"""Numerical verification lab for generalized boson/Heisenberg Hopf algebras.

Five algebra families (B, Bbar, Bq, Bbarq, H) are represented on truncated
Fock spaces; the package builds their Hopf structure maps and R-matrices and
certifies the defining relations, Hopf axioms, quasitriangularity,
Yang-Baxter equation, Casimir spectra and the B <-> H isomorphism.
"""

from .expr import EvalContext, evaluate, evaluate_text, parse, print_expr
from .fock import AlgebraSpec, FockRep, build_rep, check_defining_relations, weight
from .hopf import HopfTables, build_tables
from .report import CheckReport
from .rmatrix import BranchChoice, RMatrix, build_r, build_r0, run_r_checks
from .scalars import bracket_factorial, phase_pow, q_bracket
from .structure import StructureElement, build_L, build_M, build_realization

__all__ = [
    "AlgebraSpec", "FockRep", "build_rep", "check_defining_relations",
    "weight", "HopfTables", "build_tables", "CheckReport",
    "bracket_factorial", "phase_pow", "q_bracket",
    "BranchChoice", "RMatrix", "build_r", "build_r0", "run_r_checks",
    "StructureElement", "build_L", "build_M", "build_realization",
    "EvalContext", "evaluate", "evaluate_text", "parse", "print_expr",
]

__version__ = "0.1.0"
