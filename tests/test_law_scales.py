"""The causal law's scales tau0 and alpha1 are read in a few declared places only.

Every causal quantity is a function of w' = tau0*|omega| and the one scale
K = alpha1/(c0*tau0), which `laws._reduced` forms.  A function that reads
`.tau0` or `.alpha1` itself would carry the scales by hand again, with its
own overflow handling.  The standard library's `ast` finds the readers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lossywave"
SCALES = {"tau0", "alpha1"}
READERS = {
    "laws.CausalLaw.__post_init__",  # validation
    "laws.derive_powerlaw_coeffs",  # a1 = alpha1*tau0**(gamma-1)*|cos(gamma*pi/2)|/(2*c0)
    "laws._reduced",
    "bounds.EnvelopeBoundConstants.__post_init__",  # the envelope split max(M, 1/tau0)
    "cli.cmd_table1",  # its --tau0 option, not a law's
}


def scale_readers(source, module):
    """Qualified names of the outermost functions of `source` that read .tau0 or .alpha1."""
    readers = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            name, inner = owner, prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{prefix}.{child.name}"
                if owner is None and not isinstance(child, ast.ClassDef):
                    name = inner
            if (isinstance(child, ast.Attribute) and child.attr in SCALES
                    and isinstance(child.ctx, ast.Load)):
                readers.add(owner or prefix)
            visit(child, inner, name)

    visit(ast.parse(source), module, None)
    return readers


def test_only_the_declared_functions_read_the_scales():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= scale_readers(path.read_text(encoding="utf-8"), path.stem)
    assert sorted(found) == sorted(READERS)


def test_finds_readers_in_methods_and_nested_functions():
    source = ("class Law:\n"
              "    def rate(self):\n"
              "        return self.alpha1\n"
              "def outer(law):\n"
              "    def inner():\n"
              "        return law.tau0\n"
              "    return inner\n"
              "def other(law):\n"
              "    law.tau0 = 1.0\n"
              "    return law.c0\n")
    assert scale_readers(source, "m") == {"m.Law.rate", "m.outer"}
