"""Smoke tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest -q bench/smoke.py
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import LogHistogram, OpStats  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sg():
    return run.load_package()


def tiny(sg, name, tmp_path):
    if name == "sweep-dense":
        return workloads.SweepDense(sg, tmp_path, sizes=(11, 41))
    return workloads.WORKLOADS[name](sg, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_and_passes_the_gate(sg, name, tmp_path):
    w = tiny(sg, name, tmp_path)
    stats = OpStats()
    failed, problems = run.measure(w, w.inputs(0), 0.05, stats)
    assert stats.ops > 0 and stats.points >= stats.ops and failed == 0, problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(sg, name, tmp_path):
    w = tiny(sg, name, tmp_path)

    def first(seed):
        return list(itertools.islice(w.inputs(seed), 50))

    assert first(7) == first(7)
    if name != "cli-readme":   # fixed commands; the seed is unused
        assert first(7) != first(8)


def test_traced_run_covers_the_layers_and_restores_the_package(sg, tmp_path):
    w = tiny(sg, "sweep-dense", tmp_path)
    original = sg.sweep.response_at
    tracer = Tracer()
    tracer.install(sg)
    try:
        run.measure(w, w.inputs(0), 0.05, OpStats(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert sg.sweep.response_at is original
    spans = tracer.summary()
    for name in ("bench.op", "sweep.sweep_detuning", "response.response_at",
                 "steady.steady_state", "model.build_generator", "params.post_init"):
        assert spans[name]["calls"] > 0, name
    assert all(v["self_ns"] >= 0 for v in spans.values())


def test_histogram_quantiles_within_a_bin():
    h = LogHistogram(0.1, 1e6)
    for v in range(1, 1001):
        h.add(float(v))
    assert h.quantile(0.5) == pytest.approx(500, rel=0.01)
    assert h.quantile(0.99) == pytest.approx(990, rel=0.01)


def test_every_runs_once_per_period_of_work():
    calls = []
    schedule = run.Every(10, lambda: calls.append(1))
    for _ in range(20):
        schedule.after(5)
    assert len(calls) == 10


def test_gate_flags_a_flipped_csv_byte(sg, tmp_path):
    w = workloads.CliReadme(sg, tmp_path / "cli")
    result = w.run(None)
    assert w.check(None, result) == []
    out = w.dirs[1] / w.golden[1]["out"]
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 1
    out.write_bytes(bytes(data))
    assert any("sha256" in p for p in w.check(None, result))


def test_gate_flags_a_wrong_band(sg):
    params = replace(sg.calibrate.calibrated_params(), p_align=0.5)
    table = sg.sweep.sweep_detuning(params, -20.0, 20.0, 81)
    assert table.bands and gate.check_table(table) == []
    (a, b), *rest = table.bands
    wrong = replace(table, bands=((a, table.grid[table.grid.index(b) + 1]), *rest))
    assert gate.check_table(wrong)


def test_gate_flags_an_in_range_nonphysical_state(sg):
    paper = sg.params.EquationVariant.PAPER_LITERAL
    params = sg.params.SystemParams(equation_variant=paper)
    with pytest.raises(sg.steady.NonPhysicalState) as real:
        sg.steady.steady_state(params)
    assert gate.check_nonphysical(sg, params, real.value) == []
    corrected = replace(params, equation_variant=sg.params.EquationVariant.CORRECTED)
    physical = sg.steady.steady_state(corrected)
    fake = sg.steady.NonPhysicalState("in range", physical)
    assert any("inside [0, 1]" in p for p in gate.check_nonphysical(sg, corrected, fake))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-stream", "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "point-stream", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
