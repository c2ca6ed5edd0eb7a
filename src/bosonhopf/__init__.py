"""Numerical verification lab for generalized boson/Heisenberg Hopf algebras.

Five algebra families (B, Bbar, Bq, Bbarq, H) are represented on truncated
Fock spaces; the package builds their Hopf structure maps and R-matrices and
certifies the defining relations, Hopf axioms, quasitriangularity,
Yang-Baxter equation, Casimir spectra and the B <-> H isomorphism.

The names below are imported from their module on first use, so importing
the package loads no module a run does not need.  Which points exist is
stated by the pure-Python ``spec``; the numerical modules, and numpy with
them, load when a name of theirs is first used.
"""

from importlib import import_module

__version__ = "0.1.0"
GRAMMAR_VERSION = "1.2"   # of the expression language in expr

# Each exported name -> the module that defines it.
_EXPORTS = {
    "AlgebraSpec": "spec",
    **dict.fromkeys(("FockRep", "build_rep", "check_defining_relations", "weight"),
                    "fock"),
    **dict.fromkeys(("HopfTables", "build_tables"), "hopf"),
    "CheckReport": "report",
    **dict.fromkeys(("bracket_factorial", "phase_pow", "q_bracket"), "scalars"),
    **dict.fromkeys(("BranchChoice", "RMatrix", "build_r", "build_r0",
                     "run_r_checks"), "rmatrix"),
    **dict.fromkeys(("build_realization", "run_structure_checks"), "structure"),
    **dict.fromkeys(("EvalContext", "evaluate", "evaluate_text", "parse",
                     "print_expr"), "expr"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
