"""The traced run: spans around each layer's public functions, and their metrics.

Run as a script, this installs the wrappers on ``bosonhopf`` and numpy, runs
``bosonhopf.cli.main`` in-process and writes the spans to a JSON file:

    python3 perfbench/layers.py SPANS_OUT run --config CFG --jobs 1 --out REPORT

Layers are the package modules on the ``run`` path (``expr`` is not on it);
numpy's dense kernels are the leaf under ``tensor`` and ``rmatrix``.
"""

from __future__ import annotations

import json
import math
import sys
import time

from tracer import Tracer, aggregate, install, percentile

SUITES = ("relations", "hopf", "delta-hom", "rmatrix", "ybe", "casimir",
          "structure", "iso")


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _norm_bytes(args, kwargs, result):
    return _nbytes(args[0])


def _kron_bytes(args, kwargs, result):
    return _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(result)


def _window(args, kwargs, result):
    """(columns the window keeps, columns fed to the norm)."""
    mat, projector = args[0], args[1]
    return [int((projector.diagonal() != 0).sum()), int(mat.shape[1])]


def _slots(args, kwargs, result):
    terms = args[0]
    return terms[0].slots if terms else 0


def _suite(args, kwargs, result):
    return args[2]


def _zero_residuals(args, kwargs, result):
    return [sum(1 for r in result if r.residual == 0.0), len(result)]


CT = ("calls", "total_s")

# (module, qualified name, stats reported, note); the span name drops the
# package prefix: "bosonhopf.tensor" + "kron" -> "tensor.kron".
TARGETS = (
    ("numpy.linalg", "norm", ("calls", "self_s", "computed_bytes"), _norm_bytes),
    ("numpy", "kron", ("calls", "self_s", "computed_bytes"), _kron_bytes),
    ("bosonhopf.scalars", "q_bracket", ("calls",), None),
    ("bosonhopf.scalars", "phase_pow", ("calls",), None),
    ("bosonhopf.scalars", "bracket_factorial", ("calls",), None),
    ("bosonhopf.fock", "build_rep", CT, None),
    ("bosonhopf.fock", "check_defining_relations", CT, None),
    ("bosonhopf.fock", "windowed_norm", CT, None),
    ("bosonhopf.tensor", "windowed_norm",
     ("calls", "total_s", "self_s", "window_share"), _window),
    ("bosonhopf.tensor", "kron_all", CT, None),
    ("bosonhopf.tensor", "kron", CT, None),
    ("bosonhopf.tensor", "embed_two_site", CT, None),
    ("bosonhopf.tensor", "total_window_projector", CT, None),
    ("bosonhopf.tensor", "swap_matrix", CT, None),
    ("bosonhopf.hopf", "build_tables", CT, None),
    ("bosonhopf.hopf", "expand_slot", CT, None),
    ("bosonhopf.hopf", "terms_matrix", CT, _slots),
    ("bosonhopf.hopf", "HopfTables.delta_matrix", CT, None),
    ("bosonhopf.hopf", "HopfTables.check_coassociativity",
     ("total_s", "self_s", "zero_residual_share"), _zero_residuals),
    ("bosonhopf.hopf", "HopfTables.check_counit", ("total_s",), None),
    ("bosonhopf.hopf", "HopfTables.check_antipode", ("total_s",), None),
    ("bosonhopf.hopf", "HopfTables.check_antipode_inverse", ("total_s",), None),
    ("bosonhopf.hopf", "HopfTables.check_delta_homomorphism", ("total_s",), None),
    ("bosonhopf.rmatrix", "build_r", CT, None),
    ("bosonhopf.rmatrix", "build_r0", CT, None),
    ("bosonhopf.rmatrix", "check_quasitriangularity", ("total_s",), None),
    ("bosonhopf.rmatrix", "check_trivial_r", ("total_s",), None),
    ("bosonhopf.rmatrix", "run_r_checks", ("total_s",), None),
    ("bosonhopf.rmatrix", "check_r_axioms", ("total_s", "self_s"), None),
    ("bosonhopf.rmatrix", "check_ybe", ("total_s", "self_s"), None),
    ("bosonhopf.rmatrix", "diagnose_branches", ("calls",), None),
    ("bosonhopf.structure", "run_structure_checks", CT, None),
    ("bosonhopf.structure", "build_realization", CT, None),
    ("bosonhopf.structure", "casimir_spectrum", CT, None),
    ("bosonhopf.structure", "iso_phi", CT, None),
    ("bosonhopf.structure", "iso_phi_prime", CT, None),
    ("bosonhopf.report", "CheckReport.to_dict", CT, None),
    ("bosonhopf.cli", "parse_config", ("total_s",), None),
    ("bosonhopf.cli", "grid_expand", ("total_s",), None),
    ("bosonhopf.cli", "run_suite", (), _suite),
    ("bosonhopf.cli", "run_config", ("self_s",), None),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
         "computed_bytes": "bytes", "window_share": "ratio",
         "zero_residual_share": "ratio"}


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('bosonhopf.')}.{qualname}"


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, qualname, stats, _ in TARGETS:
        base = span_name(module, qualname)
        for stat in stats:
            better = "higher" if stat.endswith("_share") else "lower"
            specs.append((f"{base}.{stat}", UNITS[stat], better))
        if base == "hopf.terms_matrix":
            specs.append(("hopf.terms_matrix.3site.total_s", "s", "lower"))
    specs += [(f"cli.run_suite.{s}.total_s", "s", "lower") for s in SUITES]
    specs += [("cli.job_p50_ms", "ms", "lower"), ("cli.job_p99_ms", "ms", "lower"),
              ("trace.coverage", "ratio", "higher"),
              ("trace.overhead_share", "ratio", "lower")]
    return specs


def _ratio(pairs: list) -> float:
    num = sum(a for a, _ in pairs)
    den = sum(b for _, b in pairs)
    return num / den if den else 0.0


def layer_metrics(spans: list, main_wall_s: float, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metric values from the spans of one traced run.

    ``main_wall_s`` is the time spent in ``cli.main`` in the traced process;
    the two process walls give the tracing overhead.
    """
    agg = aggregate(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}
    values = {}
    for module, qualname, stats, _ in TARGETS:
        base = span_name(module, qualname)
        a = agg.get(base, empty)
        notes = [n for _, n in a["notes"]]
        for stat in stats:
            if stat == "computed_bytes":
                value = sum(notes)
            elif stat.endswith("_share"):
                value = _ratio(notes)
            else:
                value = a[stat]
            values[f"{base}.{stat}"] = value
    tm = agg.get("hopf.terms_matrix", empty)
    values["hopf.terms_matrix.3site.total_s"] = math.fsum(
        d for d, slots in tm["notes"] if slots == 3)
    jobs = agg.get("cli.run_suite", empty)["notes"]
    for suite in SUITES:
        values[f"cli.run_suite.{suite}.total_s"] = math.fsum(
            d for d, s in jobs if s == suite)
    durations = [d for d, _ in jobs]
    values["cli.job_p50_ms"] = 1e3 * percentile(durations, 0.50)
    values["cli.job_p99_ms"] = 1e3 * percentile(durations, 0.99)
    values["trace.coverage"] = (sum(a["self_s"] for a in agg.values())
                                / main_wall_s)
    values["trace.overhead_share"] = traced_wall_s / untraced_wall_s - 1.0
    return values


def main(argv: list) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    from bosonhopf import cli

    tracer = Tracer()
    install(tracer, [(m, q, span_name(m, q), note) for m, q, _, note in TARGETS],
            "bosonhopf")
    start = time.perf_counter()
    code = cli.main(cli_argv)
    main_wall_s = time.perf_counter() - start
    with open(spans_out, "w") as fh:
        json.dump({"main_wall_s": main_wall_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
