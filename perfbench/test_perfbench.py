"""Tests of the benchmark itself: generators, output checks and tracing."""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from atomfield import cli
import atomfield
from perfbench import checks, tracing, workloads

SEEDS = (1, 2)


def _texts(workload: str, seed: int) -> list[str]:
    return [cfg.text for cfg in workloads.batch(workload, seed, units=2)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs_other_seed_other_configs(workload):
    assert _texts(workload, 5) == _texts(workload, 5)
    assert _texts(workload, 5) != _texts(workload, 6)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_generated_config_parses(workload):
    for seed in SEEDS:
        configs = workloads.batch(workload, seed, units=3) + workloads.warmup_configs(workload, seed)
        for cfg in configs:
            parsed = cli.parse_config(cfg.text)
            assert parsed.scenario == cfg.scenario
            assert parsed.output is None


def _run(cfg: workloads.Config, tmp_path) -> str:
    cfg_path, csv_path = tmp_path / "in.cfg", tmp_path / "out.csv"
    cfg_path.write_text(cfg.text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(cfg_path), "--out", str(csv_path)]) == 0
    return str(csv_path)


def _small(kind: str) -> workloads.Config:
    secondaries = {name: 0.5 for name in workloads.KINDS[kind].secondaries}
    return workloads._make(kind, {"s": 0.0, **secondaries})


@pytest.mark.parametrize("kind", sorted(workloads.KINDS))
def test_checker_accepts_output_and_flags_one_corrupted_value(kind, tmp_path):
    cfg = _small(kind)
    csv_path = _run(cfg, tmp_path)
    seed = 42
    assert checks.check(cfg, csv_path, seed) == []

    lines = open(csv_path).read().split("\n")
    first_row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    # corrupt the last column of a row the oracle compares
    row = first_row + checks.sampled_rows(seed, len(lines) - first_row - 1)[-1]
    values = lines[row].split(",")
    values[-1] = repr(float(values[-1]) + 0.01)
    lines[row] = ",".join(values)
    with open(csv_path, "w") as handle:
        handle.write("\n".join(lines))
    assert checks.check(cfg, csv_path, seed) != []


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    original = atomfield.spherical_cavity.stable_binomial_series
    tracer = tracing.Tracer()
    cfg = workloads.Config(
        "sphere-series",
        {"scenario": "sphere-revival", "gamma_R": "1", "t_max_R": "6", "samples": "61"},
    )
    with tracer.installed(atomfield):
        _run(cfg, tmp_path)
    assert atomfield.spherical_cavity.stable_binomial_series is original
    layers = tracer.summary()
    assert layers["cli.main"]["calls"] == 1
    assert layers["cli.write_table"]["rows"] == 61
    assert layers["spherical_cavity.excited_probability_closed_form"]["samples"] == 61
    # echoes M = 1, 2, 3 start at t = 2, 4, 6: sum over samples of floor(t / 2)
    assert layers["numerics.stable_binomial_series"]["calls"] == sum(
        int(t // 2.0) for t in np.linspace(0.0, 6.0, 61)
    )
    names = [span[0] for span in tracer.spans]
    root = names.index("cli.main")
    assert tracer.spans[root][3] == -1
    for name, start, end, parent, _, _ in tracer.spans:
        assert end >= start
        if name != "cli.main":
            assert parent >= 0 and tracer.spans[parent][1] <= start
    for layer in layers.values():
        assert 0.0 <= layer["self_s"] <= layer["total_s"] + 1e-12
