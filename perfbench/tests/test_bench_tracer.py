"""Span recording, wrapper installation and self-time arithmetic."""

import json
import pathlib
import sys
import types

import pytest

import layers
from tracer import Tracer, aggregate, install, percentile, self_times, uninstall


def span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.leaf", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("other", 10.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 2.0])
    agg = aggregate(spans)
    assert agg["root"]["total_s"] == pytest.approx(10.0)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(12.0)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("root", 0.0, 6.0, -1),
        span("c", 1.0, 3.0, 0),
        span("d", 2.0, 5.0, 0),      # overlaps c: union is [1, 5]
        span("e", 5.5, 7.0, 0),      # overhangs the parent: only [5.5, 6] counts
    ]
    assert self_times(spans)[0] == pytest.approx(6.0 - 4.0 - 0.5)


def test_wrapped_calls_nest_and_close_on_error():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("x")

    inner = tracer.wrap(lambda x: x + 1, "inner")
    failing = tracer.wrap(boom, "failing")

    def body():
        inner(1)
        with pytest.raises(ValueError):
            failing()
        return 2

    outer = tracer.wrap(body, "outer", note=lambda a, k, r: r * 10)
    assert outer() == 2
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 20), ("inner", 0, None), ("failing", 0, None)]
    assert all(s[2] > s[1] for s in tracer.spans)


def test_install_patches_every_binding_and_uninstall_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.core")
    caller = types.ModuleType("fakepkg.user")

    def work(x):
        return x * 2

    class Box:
        def get(self):
            return 3

    defining.work, defining.Box = work, Box
    caller.work = work                       # "from .core import work"
    caller.use = lambda: caller.work(4)
    for mod in (pkg, defining, caller):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    patches = install(tracer, [("fakepkg.core", "work", "core.work", None),
                               ("fakepkg.core", "Box.get", "core.Box.get", None)],
                      "fakepkg")
    assert caller.use() == 8 and defining.work(1) == 2 and Box().get() == 3
    assert [s[0] for s in tracer.spans] == ["core.work", "core.work", "core.Box.get"]
    uninstall(patches)
    assert caller.work is work and defining.work is work
    assert vars(Box)["get"].__name__ == "get" and not hasattr(vars(Box)["get"], "__wrapped__")


def test_percentile_is_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile(list(range(1, 101)), 0.99) == 99


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["cli.run_config", 0.0, 10.0, -1, None],
        ["cli.run_suite", 1.0, 4.0, 0, "hopf"],
        ["hopf.terms_matrix", 1.5, 2.0, 1, 3],
        ["hopf.terms_matrix", 2.0, 2.25, 1, 2],
        ["tensor.windowed_norm", 2.5, 3.5, 1, [10, 40]],
        ["numpy.linalg.norm", 2.6, 3.4, 4, 800],
        ["cli.run_suite", 5.0, 6.0, 0, "relations"],
    ]
    values = layers.layer_metrics(spans, main_wall_s=10.0, traced_wall_s=12.0,
                                  untraced_wall_s=10.0)
    assert values["cli.run_suite.hopf.total_s"] == pytest.approx(3.0)
    assert values["cli.run_suite.ybe.total_s"] == 0.0
    assert values["hopf.terms_matrix.3site.total_s"] == pytest.approx(0.5)
    assert values["tensor.windowed_norm.window_share"] == pytest.approx(0.25)
    assert values["tensor.windowed_norm.self_s"] == pytest.approx(0.2)
    assert values["numpy.linalg.norm.computed_bytes"] == 800
    assert values["cli.run_config.self_s"] == pytest.approx(6.0)
    assert values["cli.job_p50_ms"] == pytest.approx(1000.0)
    assert values["trace.coverage"] == pytest.approx(1.0)
    assert values["trace.overhead_share"] == pytest.approx(0.2)
    assert set(values) == {name for name, _, _ in layers.metric_specs()}


def test_benchmark_json_lists_every_metric():
    doc = json.loads((pathlib.Path(layers.__file__).parent.parent
                      / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert per_layer == layers.metric_specs()
    assert [m["name"] for m in doc["end_to_end"]] == [
        "run_s", "checks_per_s", "peak_rss_mb", "setup_s"]
    import workloads
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
