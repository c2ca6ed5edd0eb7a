import json

import pytest

import gate
import run
import workloads
from bosonhopf import cli

SEEDS = range(40)


def _reference(name):
    return gate.from_json(json.loads(
        (run.HERE / "reference" / f"{name}.json").read_text()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generate_is_deterministic_per_seed(name):
    for seed in (0, 1, 17):
        first = workloads.generate(name, seed)
        assert workloads.generate(name, seed) == first
        assert workloads.to_ini(workloads.generate(name, seed)) == workloads.to_ini(first)
    configs = {workloads.to_ini(workloads.generate(name, s)) for s in SEEDS}
    assert len(configs) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_draws_only_admissible_passing_points(name):
    reference = _reference(name)
    assert all(v == "pass" for checks in reference.values() for v, _ in checks.values())
    sizes = set()
    for seed in SEEDS:
        scenarios = workloads.generate(name, seed)
        keys = [gate.job_key(sc.family, p, sc.dim, s)
                for sc in scenarios for p, s in sc.jobs()]
        assert len(set(keys)) == len(keys)
        assert all(k in reference for k in keys), seed
        sizes.add(sum(len(reference[k]) for k in keys))
    assert len(sizes) == 1, "every seed must run the same number of checks"


def test_generated_config_parses_to_the_same_grid(tmp_path):
    scenarios = workloads.generate("wide-2site", 5)
    path = tmp_path / "config.ini"
    path.write_text(workloads.to_ini(scenarios))
    config = cli.parse_config(str(path))
    assert [s.name for s in config.scenarios] == [sc.name for sc in scenarios]
    for parsed, sc in zip(config.scenarios, scenarios):
        expanded = cli.grid_expand(parsed)
        assert [params for params, _, _ in expanded] == sc.points()
        assert all(spec is not None and not reason for _, spec, reason in expanded)
        assert parsed.suites == sc.suites and parsed.dim == sc.dim
