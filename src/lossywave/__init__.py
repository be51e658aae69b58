"""Dissipative pressure-wave toolkit.

Evaluates causal and power-law attenuation-dispersion models, samples
and integrates the corresponding frequency-domain Green functions,
bounds the L2 error of band truncation and of the power-law
approximation, and synthesizes time-domain pulses by inverse FFT.

Importing the package runs none of its modules.  Each module of the
export map is registered in `sys.modules` and bound here as a lazy
module, whose code runs on the first read of a name it does not hold
yet; a public name is looked up in its module on first access.  So a
process compiles and runs only the modules its work reads: a CLI command
the modules it calls, `load_preset` only `laws` and `numerics`.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# module -> the public names it exports, its `__all__`
_EXPORTS = {
    "numerics": ("NumericalError", "integrate_intervals"),
    "laws": ("CausalLaw", "PowerLaw", "DispersionLaw", "MediumPreset", "derive_powerlaw_coeffs",
             "alpha_parts", "eval_alpha", "alpha_difference_majorants", "attenuation_rise",
             "wavenumber", "phase_speed", "powerlaw_phase_singularity", "small_frequency_bound",
             "builtin_preset", "load_preset"),
    "spectrum": ("FrequencyGrid", "ComplexSpectrum", "EnergyProfile", "energy_profiles",
                 "energies_at", "band_edges", "green_hat", "sample_green_spectrum",
                 "log10_truncation_errors", "deviation_factor", "relative_model_errors"),
    "timedomain": ("RealSignal", "ForcingSignal", "synthesize_time_signal",
                   "pre_arrival_fractions", "forward_point_source"),
    "tables": ("write_json", "write_table"),
    "bounds": ("EnvelopeBoundConstants", "EnvelopeCheck", "ModelErrorReport", "verify_envelope",
               "log10_truncation_error_bound", "TruncationBound", "power_lower_envelope",
               "corrected_truncation_error_bound", "model_error_reports"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


_RUNNING = threading.RLock()


class _LazyModule(types.ModuleType):
    """A registered submodule whose code has not run yet.

    The first read of a name it does not hold runs its code, once, under a
    lock, so a thread that reads it meanwhile waits for the whole module;
    the module is then a plain module.
    """

    def __getattr__(self, name):
        with _RUNNING:
            if type(self) is _LazyModule and self.__spec__.loader_state is None:
                self.__spec__.loader_state = "started"
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        if type(self) is _LazyModule:  # read by its own code while that runs
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r} yet")
        return getattr(self, name)


def _lazy(module):
    """Register and return submodule `module` as a `_LazyModule`."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    lazy = importlib.util.module_from_spec(spec)
    lazy.__class__ = _LazyModule
    sys.modules[spec.name] = lazy
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _lazy(_module)
del _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
