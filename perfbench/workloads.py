"""Seeded workloads: slices of the verification grid, written as INI configs.

Each workload is a list of family slices.  A slice names an admissible
value pool per parameter axis and how many values a seed draws from it;
the drawn values expand as a Cartesian grid, exactly as ``bosonhopf run``
expands any config.  Every point of every pool's full product passes at the
commit that wrote ``reference/<workload>.json``, so any seed yields a config
whose reports can be checked row by row against that reference.

The number of values drawn per axis is fixed, so every seed runs the same
number of points, suites and checks; only the parameter values change.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Parameter order per family, as ``bosonhopf.fock.PARAM_NAMES`` lists it.
PARAMS = {
    "B": ("alpha", "beta"),
    "Bbar": ("sigma", "tau"),
    "Bq": ("alpha", "beta", "q"),
    "Bbarq": ("sigma", "tau", "q"),
    "H": ("delta", "nu", "rho"),
}

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Slice:
    """One family's admissible pools and the draw a seed makes from them."""

    family: str
    pools: tuple                 # per PARAMS axis: tuple of admissible values
    take: tuple                  # per PARAMS axis: values drawn by a seed
    suites: tuple
    tols: tuple = ()             # (suite, tolerance) overrides


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    slices: tuple
    why: str


@dataclass(frozen=True)
class Scenario:
    """One ``[scenario NAME]`` section of a generated config."""

    name: str
    family: str
    grid: tuple                  # per PARAMS axis: tuple of values
    dim: int
    suites: tuple
    tols: tuple = ()

    def points(self) -> list:
        """Parameter dicts in the order ``grid_expand`` produces them."""
        names = PARAMS[self.family]
        return [dict(zip(names, combo)) for combo in itertools.product(*self.grid)]

    def jobs(self) -> list:
        """(point, suite) pairs: the units ``bosonhopf run`` schedules."""
        return [(p, s) for p in self.points() for s in self.suites]


_DEFORMED_TOLS = (("rmatrix", 1e-8), ("ybe", 1e-8))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="hopf-3site",
        dim=10,
        why="3-site coassociativity: D^3 Kronecker sums and dense SVDs of "
            "1000x1000 zero residuals in tensor.windowed_norm",
        slices=(
            Slice("B", ((1.0, 2.0, 4.0), (1.0, 2.0, 3.0)), (1, 1), ("hopf",)),
            # alpha = 4 breaches the 1e-10 antipode bound at D = 10
            Slice("Bq", ((2.0,), (2.0, 4.0, 8.0), (0.7, 1.3)), (1, 1, 1),
                  ("hopf",)),
            Slice("H", ((0.5, 1.0), (0.5, 2.0), (-0.25, 0.0, 0.25)), (1, 1, 1),
                  ("hopf",)),
        )),
    Workload(
        name="rmatrix-3site",
        dim=8,
        why="R-series assembly, fusion and inverse identities and YBE triple "
            "products, whose norms bypass tensor.windowed_norm",
        slices=(
            # beta/alpha must be an integer for the graded R-matrices
            Slice("B", ((1.0,), (1.0, 2.0, 3.0)), (1, 2), ("rmatrix", "ybe")),
            Slice("Bq", ((2.0, 4.0), (4.0, 8.0), (0.7, 1.3)), (1, 1, 2),
                  ("rmatrix", "ybe"), _DEFORMED_TOLS),
            Slice("Bbarq", ((1.0, 2.0), (0.0, 1.0, 2.0), (0.7, 1.3)), (1, 1, 2),
                  ("rmatrix", "ybe"), _DEFORMED_TOLS),
        )),
    Workload(
        name="wide-2site",
        dim=10,
        why="thousands of cheap 1- and 2-site checks on all five families: "
            "per-job Python, report and JSON cost, no 3-site work",
        slices=(
            Slice("B", ((0.5, 1.0, 2.0, 3.0, 4.0, 6.0), (0.5, 1.0, 2.0, 3.0, 4.0)),
                  (4, 4),
                  ("relations", "delta-hom", "casimir", "structure", "iso")),
            Slice("Bbar", ((0.5, 1.0, 2.0, 3.0), (0.0, 0.5, 1.0, 2.0, 3.0)), (4, 4),
                  ("relations", "delta-hom", "rmatrix", "structure")),
            Slice("Bq", ((1.0, 2.0, 4.0), (1.0, 2.0, 4.0, 8.0),
                         (0.6, 0.7, 0.8, 1.2, 1.3, 1.5)),
                  (2, 3, 4), ("relations", "delta-hom", "structure")),
            Slice("Bbarq", ((0.5, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0),
                            (0.6, 0.7, 0.8, 1.2, 1.3, 1.5)),
                  (2, 3, 4), ("relations", "delta-hom", "structure")),
            Slice("H", ((0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (-0.25, 0.0, 0.25, 0.5)),
                  (3, 2, 3), ("relations", "delta-hom", "structure", "iso")),
        )),
)}


def _scenario(workload: Workload, sl: Slice, grid: tuple) -> Scenario:
    return Scenario(name=f"{workload.name}-{sl.family}", family=sl.family,
                    grid=grid, dim=workload.dim, suites=sl.suites, tols=sl.tols)


def generate(name: str, seed: int) -> list:
    """The scenarios a seed draws for a workload; same seed, same scenarios."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [_scenario(workload, sl, tuple(tuple(sorted(rng.sample(pool, k)))
                                          for pool, k in zip(sl.pools, sl.take)))
            for sl in workload.slices]


def pool_scenarios(name: str) -> list:
    """Every admissible point of a workload, as one full-pool scenario per family."""
    workload = WORKLOADS[name]
    return [_scenario(workload, sl, sl.pools) for sl in workload.slices]


def to_ini(scenarios: list) -> str:
    lines = []
    for sc in scenarios:
        lines.append(f"[scenario {sc.name}]")
        lines.append(f"family = {sc.family}")
        for axis, values in zip(PARAMS[sc.family], sc.grid):
            lines.append(f"{axis} = " + ", ".join(repr(v) for v in values))
        lines.append(f"dim = {sc.dim}")
        lines.append("suites = " + ", ".join(sc.suites))
        for suite, tol in sc.tols:
            lines.append(f"tol.{suite} = {tol!r}")
        lines.append("")
    return "\n".join(lines)
