"""The benchmark's traced run wraps functions by (module, qualified name).

`perfbench/run.py --trace 1` stops on the first name that no longer
resolves, so a rename or deletion in `src/` is caught here instead.
"""

import importlib
import inspect
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for module, qualname, _, _ in layers.TARGETS:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{module}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{qualname}"


def test_run_suite_takes_the_suite_third():
    """The traced run labels each `cli.run_suite` span with its third
    positional argument (`layers._suite` reads `args[2]`), so a reordering
    would file every suite's time under another name."""
    from bosonhopf import cli

    assert list(inspect.signature(cli.run_suite).parameters)[2] == "suite"
