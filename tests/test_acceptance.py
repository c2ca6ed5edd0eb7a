"""Acceptance gate: twelve criteria, one verdict line each.

Each test prints exactly one ``CRITERION nn ...: PASS/FAIL`` line; a FAIL
line is always followed by a failing assertion with the offending details.
"""

import json
import random

import numpy as np
import pytest

from bosonhopf import (AlgebraSpec, build_rep, build_tables,
                       check_defining_relations, weight)
from bosonhopf import expr as ex
from bosonhopf.cli import main as cli_main
from bosonhopf.fock import windowed_norm
from bosonhopf.rmatrix import (YBE_DIM, build_r, build_r0, check_r_axioms, check_ybe,
                               diagnose_branches, run_r_checks)
from bosonhopf.tensor import spectral_norm, total_window_projector
from bosonhopf import structure as structure_mod
from grids import (BBARQ_GRID, BBAR_GRID, BQ_GRID, BQ_INTEGER_GRID,
                      B_GRID, FULL_GRID, H_GRID)


def _verdict(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"CRITERION {num:02d} {label}: {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _collect(reports):
    return [r.summary() for r in reports if not r.passed and not r.skipped]


def test_criterion_01_defining_relations():
    failures = []
    for family, params in FULL_GRID:
        rep = build_rep(AlgebraSpec(family, params), 16)
        failures += _collect(check_defining_relations(rep, 1e-10))
    _verdict(1, "defining relations, full grid, D=16, tol 1e-10", failures)


def test_criterion_02_hopf_axioms():
    failures = []
    for family, params in FULL_GRID:
        tables = build_tables(build_rep(AlgebraSpec(family, params), 8))
        failures += _collect(tables.run_axiom_checks(1e-10))
    _verdict(2, "Hopf axioms per generator, D=8, tol 1e-10", failures)


def test_criterion_03_delta_and_antipode_homomorphisms():
    failures = []
    for family, params in FULL_GRID:
        tables = build_tables(build_rep(AlgebraSpec(family, params), 8))
        failures += _collect(tables.check_delta_homomorphism(1e-10))
    _verdict(3, "Delta-hom and S-antihom preservation, D=8", failures)


def test_criterion_04_quasitriangularity():
    failures = []
    grids = ([("Bq", p) for p in BQ_INTEGER_GRID]
             + [("Bbarq", p) for p in BBARQ_GRID])
    for family, params in grids:
        rep = build_rep(AlgebraSpec(family, params), 8)
        tables = build_tables(rep)
        failures += _collect(run_r_checks(rep, tables, build_rep(rep.spec, YBE_DIM), 1e-8))
    # failure path: a forced failure must surface the branch-diagnosis table
    rep = build_rep(AlgebraSpec("Bbarq", (1, 2, 0.7)), 6)
    tables = build_tables(rep)
    forced = [r for r in run_r_checks(rep, tables, rep, tol=1e-30) if not r.passed]
    if not forced or any("diagnosis" not in r.branch_note for r in forced):
        failures.append("branch-diagnosis table missing on failure")
    _, table = diagnose_branches(rep, tables)
    if "branch diagnosis" not in table:
        failures.append("diagnosis table unavailable")
    _verdict(4, "quasitriangularity, inverse and fusion, D=8, tol 1e-8",
             failures)


def test_criterion_05_yang_baxter():
    failures = []
    for family, grid in [("Bq", BQ_INTEGER_GRID), ("Bbarq", BBARQ_GRID)]:
        for params in grid:
            rep = build_rep(AlgebraSpec(family, params), 6)
            report = check_ybe(build_r(rep), 1e-8)
            failures += _collect([report])
    r0 = build_r0(build_rep(AlgebraSpec("B", (2, 2)), 4))
    failures += _collect([check_ybe(r0, 1e-12)])
    _verdict(5, "Yang-Baxter at D=6 (tol 1e-8) and R0 at D=4 (tol 1e-12)",
             failures)


def test_criterion_06_classical_limit():
    """|R(q) - R0| at D = 6 falls along q = 1.1, 1.01, 1.001 and ends below 0.05."""
    reps = [build_rep(AlgebraSpec("Bq", (1, 1, q)), 6) for q in (1.1, 1.01, 1.001)]
    r0 = build_r0(reps[0]).op
    gaps = [spectral_norm(build_r(rep).op - r0) for rep in reps]
    failures = []
    if not (gaps[0] > gaps[1] > gaps[2]):
        failures.append(f"gaps not monotone: {gaps}")
    if not gaps[-1] < 0.05:
        failures.append(f"final gap {gaps[-1]:.3e} not below 0.05")
    _verdict(6, "classical limit R(q) -> R0, monotone, final < 0.05",
             failures)


def test_criterion_07_casimir_spectra():
    failures = []
    expected = {(2.0, 1.0): (-1 / 16, 3 / 16, 3 / 16),
                (4.0, 1.0): (-3 / 64, 7 / 64, 15 / 64)}
    for params, (i2, c_even, c_odd) in expected.items():
        rep = build_rep(AlgebraSpec("B", params), 12)
        osp, sl2 = structure_mod.casimir_spectrum(rep, 1e-10)
        if (osp.identity, sl2.identity) != ("structure.casimir-osp",
                                            "structure.casimir-sl2"):
            failures.append(f"Casimir rows at {params}: {osp.identity}, {sl2.identity}")
        failures += _collect([osp, sl2])
        if abs(osp.branch_note["i2"] - i2) > 1e-10:
            failures.append(f"i2 at {params}: {osp.branch_note['i2']}")
        if abs(sl2.branch_note["c_even"] - c_even) > 1e-10 \
                or abs(sl2.branch_note["c_odd"] - c_odd) > 1e-10:
            failures.append(f"sector constants at {params}: "
                            f"{sl2.branch_note}")
    _verdict(7, "Casimir spectra match the closed forms, tol 1e-10",
             failures)


def test_criterion_08_structure_elements():
    failures = []
    element_rows = {"B": ("structure.anticommute.low", "structure.anticommute.raise",
                          "structure.delta-closed-form", "structure.antipode-fixed",
                          "structure.characteristic", "structure.bh-form"),
                    "H": ("structure.m-element.low", "structure.m-element.raise",
                          "structure.com")}
    for family, grid in (("B", B_GRID), ("H", H_GRID)):
        for params in grid:
            rep = build_rep(AlgebraSpec(family, params), 12)
            tables = build_tables(rep) if family == "B" else None
            rows = [r for r in structure_mod.run_structure_checks(rep, tables, 1e-10)
                    if r.identity in element_rows[family]]
            if tuple(r.identity for r in rows) != element_rows[family]:
                failures.append(f"{family}{params}: rows {[r.identity for r in rows]}")
            failures += _collect(rows)
    _verdict(8, "structure elements L, M, commutator forms, D=12, tol 1e-10",
             failures)


def test_criterion_09_isomorphism():
    failures = []
    pairs = [((2.0, 1.0), (1.0, 0.5, -0.25)),
             ((2.0, 2.0), (1.0, 2.0, 0.0)),
             ((1.0, 3.0), (0.5, 1.0, 0.25))]
    for b_params, h_params in pairs:
        b_spec = AlgebraSpec("B", b_params)
        h_spec = AlgebraSpec("H", h_params)
        h_rep = build_rep(h_spec, 12)
        b_rep = build_rep(b_spec, 12)
        failures += _collect(structure_mod.iso_phi(b_spec, h_rep, tol=1e-10))
        failures += _collect(
            structure_mod.iso_phi_prime(h_spec, b_rep, tol=1e-10))
    # off the alpha = 2 delta locus the map must fail measurably
    witness = structure_mod.iso_phi(AlgebraSpec("B", (3.0, 1.0)),
                                    build_rep(AlgebraSpec("H",
                                                          (1.0, 0.5, -0.25)),
                                              12))
    worst = max(r.residual for r in witness)
    if worst <= 1e-2:
        failures.append(f"no failure witness at alpha != 2 delta: {worst}")
    _verdict(9, "phi/phi' isomorphism iff alpha = 2 delta, tol 1e-10",
             failures)


def test_criterion_10_weight_continuity():
    failures = []
    q = 1.0001
    for deformed, classical, grid in [("Bq", "B", B_GRID),
                                      ("Bbarq", "Bbar", BBAR_GRID)]:
        for params in grid:
            if deformed == "Bbarq" and params[0] == 0:
                continue
            spec_q = AlgebraSpec(deformed, (*params, q))
            spec_c = AlgebraSpec(classical, params)
            for n in range(1, 11):
                gap = abs(weight(spec_q, n) - weight(spec_c, n))
                if gap >= 1e-2:
                    failures.append(f"{deformed}{params} n={n}: gap {gap}")
    _verdict(10, "deformed weights -> classical weights at q = 1.0001",
             failures)


def test_criterion_11_expression_corpus():
    failures = []
    by_family = {}
    for entry in ex.load_corpus():
        by_family.setdefault(entry.family, []).append(entry)
    for family, params in FULL_GRID:
        rep = build_rep(AlgebraSpec(family, params), 8)
        ctx = ex.EvalContext(rep)
        for entry in by_family[family]:
            res = windowed_norm(
                ex.evaluate(entry.tree, ctx),
                total_window_projector(rep.dim, 1, entry.raise_degree))
            if res >= 1e-10:
                failures.append(f"{family}{params} {entry.text}: {res}")
    # 1000 random well-formed trees survive the print/parse round trip
    rng = random.Random(20260823)

    def rand_tree(depth):
        kinds = (["num", "name", "neg", "bin", "pow", "call"]
                 if depth else ["num", "name"])
        kind = rng.choice(kinds)
        if kind == "num":
            return ex.Num(float(rng.choice([0, 1, 2, 0.25, 3.5])))
        if kind == "name":
            return ex.Name(rng.choice(ex.GENERATOR_ATOMS
                                      + ex.PARAMETER_NAMES))
        if kind == "neg":
            return ex.Neg(rand_tree(depth - 1))
        if kind == "bin":
            return ex.BinOp(rng.choice("+-*"), rand_tree(depth - 1),
                            rand_tree(depth - 1))
        if kind == "pow":
            return ex.Pow(rand_tree(depth - 1), rng.randrange(4))
        fn = rng.choice(sorted(ex.BUILTINS))
        return ex.Call(fn, tuple(rand_tree(depth - 1)
                                 for _ in range(ex.BUILTINS[fn])))

    for _ in range(1000):
        tree = rand_tree(rng.randrange(7))
        if ex.parse(ex.print_expr(tree)) != tree:
            failures.append(f"round trip broke: {ex.print_expr(tree)}")
            break
    _verdict(11, "expression corpus, tol 1e-10, and 1000-tree round trip",
             failures)


MIXED_CONFIG = """
[scenario ok]
family = B
alpha = 2
beta = 1
dim = 8
suites = relations

[scenario skipped]
family = H
delta = 0
nu = 0.5
rho = 0
dim = 8
suites = relations

[scenario failing]
family = Bbar
sigma = 1
tau = 2
dim = 8
suites = relations
tol.relations = 1e-30
"""


def test_criterion_12_cli_contract(tmp_path):
    failures = []
    config = tmp_path / "mixed.ini"
    config.write_text(MIXED_CONFIG)
    outs = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for out in outs:
        code = cli_main(["run", "--config", str(config), "--out", str(out),
                         "--jobs", "1"])
        if code != 1:
            failures.append(f"mixed config exit code {code}, expected 1")
    docs = [json.loads(out.read_text()) for out in outs]
    for doc in docs:
        for row in doc["reports"]:
            row.pop("wall_time")
    if docs[0] != docs[1]:
        failures.append("reports differ between identical runs")
    counts = docs[0]["counts"]
    if not (counts["passed"] and counts["failed"] and counts["skipped"]):
        failures.append(f"expected mixed outcome, got {counts}")
    green = tmp_path / "green.ini"
    green.write_text("[scenario ok]\nfamily = B\nalpha = 2\nbeta = 1\n"
                     "dim = 6\nsuites = relations\n")
    if cli_main(["run", "--config", str(green),
                 "--out", str(tmp_path / "g.json"), "--jobs", "1"]) != 0:
        failures.append("all-green config did not exit 0")
    if cli_main(["run", "--config", str(tmp_path / "absent.ini")]) != 2:
        failures.append("config error did not exit 2")
    _verdict(12, "CLI determinism and exit-code contract", failures)
