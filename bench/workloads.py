"""Seeded workload plans: the CLI operations one pass runs and the inputs they read.

A plan depends only on the workload name and the seed.  Every pass of a run
repeats the same operations, so the share of failed operations is the same
in every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import reference as ref

CASTOR = ref.Medium(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6)  # the built-in preset

# criterion-05 distances; the published model-error table at M = 100
BOUNDS_DISTANCES = (1e-6, 1e-4, 1e-2, 1.0, 10.0)
TABLE2_PUBLISHED = {1e-6: 7.62e-8, 1e-3: 7.35e-5, 1e-1: 4.46e-4, 10.0: 7.13e-5}

# fig2 has no pole for gamma = 2 and exits 2 instead of leaving the marker
# out.  The failing medium is fixed, not drawn, so every seed fails the
# same one operation per pass.
GAMMA_TWO = ref.Medium(gamma=2.0, c0=0.15, alpha1=138.08, tau0=1e-6)
GAMMA_TWO_FAULT = "no phase-speed singularity: gamma = 2"

# pulses run on the first grid, causality on the last two; a 2**20 causality
# run takes about as long as a 2**18 pulse, so the pooled median latency
# falls inside one cluster of similar operations
TIME_DOMAIN_SAMPLES = (2**18, 2**19, 2**20)
FORCINGS = ("delta", "gaussian-pulse", "gaussian-modulated-sine")


@dataclass
class Op:
    """One CLI command; `argv` omits --out, which the worker adds per pass."""

    argv: list
    params: dict = field(default_factory=dict)
    fault: str | None = None  # the error message of a kept, known failure

    @property
    def command(self):
        return self.argv[0]


def _fmt(x):
    return repr(float(x))


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def bounds_sweep(rng, run_dir):
    """Castor oil: `bounds` at three band edges, `table2` at M = 100.

    `table2` covers the criterion-05 and the published distances in one
    command.  With three `bounds` per `table2` the pooled median latency
    falls a third of the way into the `bounds` latencies; a quantile at
    the edge of a cluster, or on the gap between two, moves far more
    between runs.
    """
    ms = [100.0] + [round(_log_uniform(rng, 70.0, 140.0), 3) for _ in range(2)]
    r_list = ",".join(_fmt(r) for r in BOUNDS_DISTANCES)
    ops = [Op(["bounds", "--m", _fmt(m), "--r-list", r_list], {"m": m, "medium": CASTOR})
           for m in ms]
    distances = sorted(set(BOUNDS_DISTANCES) | set(TABLE2_PUBLISHED))
    ops.append(Op(["table2", "--m", "100.0", "--r-list", ",".join(_fmt(r) for r in distances)],
                  {"m": 100.0, "medium": CASTOR}))
    return ops


def omega_max_for(med, r):
    """Grid half-width, a whole number, where the power-law spectrum has fallen by e**-80.

    A whole number keeps the grid w_k = -omega_max + k*(2*omega_max/n)
    exactly symmetric; otherwise rounding in w_k breaks the Hermitian
    check of `synthesize_time_signal` for some distances (see CHANGES.md).

    For castor oil at r = 1e-3 ... 1e-1 this gives 6000 ... 370 rad/us:
    the step pi/omega_max resolves the front r/c0 with at least 12
    samples and 2**18 steps hold the bulk arrival r*(1/c0 + a2) many
    times over, so the wave does not wrap around the window.
    """
    return float(round((80.0 / (r * med.a1)) ** (1.0 / med.gamma)))


def time_domain(rng, run_dir):
    """Castor oil: six `pulse` runs at one distance, `causality` at two distances on two grids."""
    med = CASTOR
    r_pulse = round(_log_uniform(rng, 1e-3, 1e-2), 6)
    r_causal = round(_log_uniform(rng, 1e-2, 1e-1), 6)
    ops = []
    w_max = omega_max_for(med, r_pulse)
    width = round(rng.uniform(15.0, 25.0) / w_max, 9)  # spectrum e**-100 below its peak at w_max
    forcing = {"center": round(8.0 * width, 9), "width": width,
               "carrier": round(rng.uniform(0.1, 0.3) * w_max, 6)}
    for law in ("causal", "powerlaw"):
        for kind in FORCINGS:
            argv = ["pulse", "--law", law, "--kind", kind, "--r", _fmt(r_pulse),
                    "--omega-max", _fmt(w_max), "--samples", str(TIME_DOMAIN_SAMPLES[0])]
            for key, value in forcing.items():
                argv += [f"--{key}", _fmt(value)]
            ops.append(Op(argv, {"medium": med, "law": law, "kind": kind, "r": r_pulse,
                                 "omega_max": w_max, "n": TIME_DOMAIN_SAMPLES[0], **forcing}))
    m = round(rng.uniform(60.0, 150.0), 3)
    for r in (r_pulse, r_causal):
        w_max = omega_max_for(med, r)
        for n in TIME_DOMAIN_SAMPLES[1:]:
            ops.append(Op(["causality", "--r", _fmt(r), "--m", _fmt(m), "--omega-max", _fmt(w_max),
                           "--samples", str(n)],
                          {"medium": med, "r": r, "m": m, "omega_max": w_max, "n": n}))
    return ops


# Seven media that span gamma in (1, 2), tau0 over three decades, alpha1 and c0
# over two, and band edges from well inside the decay scale to far beyond it,
# each with (r, M) for table2 and fig3.  The seed jitters every value by a
# few percent: a free draw over the whole range makes the work of a pass
# vary by 30% from seed to seed (fig3 alone takes 90 to 210 ms per medium).
MEDIA = (
    (ref.Medium(gamma=1.15, c0=0.3, alpha1=500.0, tau0=3e-8), 0.02, 120.0),
    (ref.Medium(gamma=1.3, c0=1.0, alpha1=50.0, tau0=1e-6), 0.3, 60.0),
    (ref.Medium(gamma=1.45, c0=0.08, alpha1=200.0, tau0=3e-7), 0.05, 150.0),
    (ref.Medium(gamma=1.66, c0=0.15, alpha1=138.08, tau0=1e-6), 1.0, 100.0),
    (ref.Medium(gamma=1.75, c0=0.5, alpha1=20.0, tau0=5e-6), 0.1, 180.0),
    (ref.Medium(gamma=1.85, c0=0.06, alpha1=800.0, tau0=1e-8), 0.5, 80.0),
    (ref.Medium(gamma=1.95, c0=1.2, alpha1=15.0, tau0=2e-5), 0.015, 200.0),
    (GAMMA_TWO, 0.2, 100.0),
)


def _jitter(rng, x, spread=0.05):
    """x times 10**U(-spread, spread), to six significant digits."""
    return float(f"{x * 10.0 ** rng.uniform(-spread, spread):.6g}")


def media_sweep(rng, run_dir):
    """The eight media, seven of them jittered by the seed, each through five commands."""
    ops = []
    for i, (base, r, m) in enumerate(MEDIA):
        med = base if base is GAMMA_TWO else ref.Medium(
            gamma=round(base.gamma + rng.uniform(-0.02, 0.02), 4), c0=_jitter(rng, base.c0),
            alpha1=_jitter(rng, base.alpha1), tau0=_jitter(rng, base.tau0))
        r, m = _jitter(rng, r), _jitter(rng, m, 0.02)
        preset = run_dir / f"medium{i}.json"
        preset.write_text(json.dumps({"name": f"medium{i}", "gamma": med.gamma, "c0": med.c0,
                                      "alpha1": med.alpha1, "tau0": med.tau0}) + "\n",
                          encoding="utf-8")
        common = ["--preset", str(preset)]
        threshold = round(rng.uniform(0.02, 0.3), 6)
        ops.append(Op(["table1", "--gammas", _fmt(med.gamma), "--tau0", _fmt(med.tau0),
                       "--threshold", _fmt(threshold)],
                      {"medium": med, "threshold": threshold}))
        ops.append(Op(["table2", *common, "--m", _fmt(m), "--r-list", _fmt(r)],
                      {"medium": med, "m": m}))
        ops.append(Op(["fig1", *common], {"medium": med}))
        ops.append(Op(["fig2", *common], {"medium": med},
                      fault=GAMMA_TWO_FAULT if med.gamma == 2.0 else None))
        ops.append(Op(["fig3", *common, "--r", _fmt(r), "--m", _fmt(m)],
                      {"medium": med, "r": r, "m": m}))
    return ops


WORKLOADS = {"bounds-sweep": bounds_sweep, "time-domain": time_domain, "media-sweep": media_sweep}


def build(name, seed, run_dir):
    """The operations of one pass of workload `name` for `seed`; writes input files to run_dir."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, run_dir)
