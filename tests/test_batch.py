"""A scenario's one-site corpus lines run once, on the direct sum of its
grid points: each point's rows must be the rows it gets alone."""

import itertools
import json

import pytest

from bosonhopf import cli, hopf
from bosonhopf.cli import Scenario, grid_expand

# Each family's scenario; together they run every suite.  B: beta/alpha is
# an integer at some points only, so the points differ in lam4 and the
# parity-head rmatrix and ybe suites skip some of them.  Bq and Bbarq: q on
# both sides of q_bracket's switch between its sinh form (|log q| < 0.1:
# q = 0.95, 1.05) and its difference form.  Bbar: sigma = 0 points are
# skipped by the grid, between points that run.
SCENARIOS = [
    Scenario("graded", "B", {"alpha": [2.0, 4.0], "beta": [1.0, 2.0, 4.0]}, dim=8,
             suites=("relations", "delta-hom", "casimir", "structure", "iso", "rmatrix",
                     "hopf", "ybe")),
    Scenario("graded-deformed", "Bq", {"alpha": [2.0], "beta": [2.0, 4.0], "q": [0.95, 1.3]},
             dim=8, suites=("relations", "delta-hom", "structure", "hopf", "rmatrix", "ybe")),
    Scenario("ungraded", "Bbar", {"sigma": [0.0, 1.0, 2.0], "tau": [0.0, 1.0]}, dim=8,
             suites=("relations", "delta-hom", "structure", "rmatrix")),
    Scenario("ungraded-deformed", "Bbarq",
             {"sigma": [1.0, 2.0], "tau": [0.0, 1.0], "q": [0.7, 1.05]}, dim=6,
             suites=("relations", "delta-hom", "structure")),
    Scenario("reflection", "H", {"delta": [0.5, 1.0], "nu": [0.5, 2.0], "rho": [0.0, 0.25]},
             dim=8, suites=("relations", "delta-hom", "structure", "iso")),
]


def test_the_scenarios_run_every_suite():
    assert {suite for scenario in SCENARIOS for suite in scenario.suites} == set(cli.SUITES)


def _rows(records):
    """The rows of a job's records, without their timing."""
    rows = [json.loads(line) for _, _, line in records]
    for row in rows:
        del row["wall_time"]
    return rows


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.family)
def test_a_batched_scenario_matches_each_point_run_alone(scenario):
    """One job for the whole scenario writes, point after point, the rows
    that each point writes as a job of its own, bit for bit: the direct sum
    keeps every summand's entries, each point reads its own parameters and
    scalars and is normed on its own window, and q_bracket and phase run
    per point on its slice, so no tolerance is needed."""
    entries = grid_expand(scenario)
    together = _rows(cli._run_job((scenario, entries)))
    alone = [row for entry in entries for row in _rows(cli._run_job((scenario, [entry])))]
    assert together == alone
    assert {row["suite"] for row in together} == set(scenario.suites)
    assert all(row["passed"] or row["skipped"] for row in together)


def test_a_batch_holds_more_than_one_point():
    """The batched lines do run on a direct sum of several points: the rep
    images of one relation run are the concatenated blocks of all live points."""
    from bosonhopf import fock
    seen = []
    real = fock.relation_residuals

    def spy(specs, gens, anti=False):
        seen.append((len(specs), gens["I"].summands, gens["I"].sectors.sites,
                     gens["I"].blocks.shape[0]))
        return real(specs, gens, anti)

    scenario = SCENARIOS[2]   # Bbar: two of six points skipped by sigma = 0
    try:
        fock.relation_residuals = spy
        cli._run_job((scenario, grid_expand(scenario)))
    finally:
        fock.relation_residuals = real
    # the relations and the antipode rows on the direct sum of the four
    # live points, then each point's Delta rows on its own two-site space
    assert seen == [(4, 4, 1, 4 * 8)] * 2 + [(1, 1, 2, 2 * 8 - 1)] * 4


@pytest.mark.parametrize("scenario", SCENARIOS[:2], ids=lambda sc: sc.family)
def test_a_job_never_holds_two_points_delta_images(scenario, monkeypatch):
    """Every suite that reads the two-site Delta images runs them at its
    point's turn, and the point's tables release them once its suites are
    done: at most one point of a multi-point job holds its images at once."""
    holding, most = [], [0]
    delta_image, release = hopf.HopfTables.delta_image, hopf.HopfTables.release

    def spy_image(self, *args, **kwargs):
        if not any(t is self for t in holding):
            holding.append(self)
            most[0] = max(most[0], len(holding))
        return delta_image(self, *args, **kwargs)

    def spy_release(self):
        holding[:] = [t for t in holding if t is not self]
        release(self)

    monkeypatch.setattr(hopf.HopfTables, "delta_image", spy_image)
    monkeypatch.setattr(hopf.HopfTables, "release", spy_release)
    scenario = Scenario(scenario.name, scenario.family, scenario.param_grid, scenario.dim,
                        suites=("hopf", "delta-hom", "rmatrix", "ybe", "structure"))
    entries = grid_expand(scenario)
    assert len(entries) > 1
    rows = _rows(cli._run_job((scenario, entries)))
    assert all(row["passed"] or row["skipped"] for row in rows)
    assert most == [1]


def _failing_at(monkeypatch, cls, name, bad):
    """Make ``cls.name`` raise at the points whose spec ``bad`` selects."""
    real = getattr(cls, name)

    def wrapped(self, *args):
        if bad(self.spec):
            raise RuntimeError(f"{name} refused at {self.spec.params}")
        return real(self, *args)

    monkeypatch.setattr(cls, name, wrapped)


@pytest.mark.parametrize("where", ["batch", "two-site line"])
def test_a_suite_that_raises_at_one_point_of_a_batch_keeps_every_other_row(where, monkeypatch):
    """A suite that raises at one point of a batch writes that point's one
    ``delta-hom.error`` row and, at every other point, the rows that point
    gets in a clean run; the later suites run everywhere.  It raises either
    while the batch runs (an antipode image refused: the suite reruns point
    by point) or in the point's own two-site Delta rows."""
    scenario = SCENARIOS[0]
    entries = grid_expand(scenario)
    clean = _rows(cli._run_job((scenario, entries)))
    bad = lambda spec: spec.params == (4.0, 2.0)   # noqa: E731
    if where == "batch":
        _failing_at(monkeypatch, hopf.HopfTables, "antipode_images", bad)
    else:
        _failing_at(monkeypatch, hopf.HopfTables, "delta_hom_rows", bad)
    rows = _rows(cli._run_job((scenario, entries)))
    errors = [r for r in rows if r["identity"].endswith(".error")]
    assert [(r["identity"], r["params"]) for r in errors] == [
        ("delta-hom.error", {"alpha": 4.0, "beta": 2.0})]
    assert errors[0]["branch_note"]["error"].startswith("RuntimeError: ")
    at_bad = lambda r: r["params"] == {"alpha": 4.0, "beta": 2.0}   # noqa: E731
    assert [r for r in rows if not at_bad(r)] == [r for r in clean if not at_bad(r)]
    assert ([r for r in rows if at_bad(r) and r["suite"] != "delta-hom"]
            == [r for r in clean if at_bad(r) and r["suite"] != "delta-hom"])
    suites = [(suite, len(list(group)))
              for suite, group in itertools.groupby(r["suite"] for r in rows if at_bad(r))]
    assert [suite for suite, _ in suites] == list(scenario.suites)
    assert dict(suites)["delta-hom"] == 1
