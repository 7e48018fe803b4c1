"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced (n = 16, one probe, one
arclength, one gauge point per class) and checks that the result carries
every metric ``BENCHMARK.json`` names, with its unit; that ``metrics.py``
and ``BENCHMARK.json`` agree; that every per-layer metric maps to a
workload; and that the benchmark refuses a directory without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_spec_matches_metric_tables():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    e2e = {m.name for m in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        target, where = m.moves
        assert target in e2e, m.name
        assert where and set(where) <= set(WORKLOADS), m.name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_prints_every_metric(workload, trace):
    result = run.measure(workload, 7, 0.0, trace, sizes=workloads.TINY)
    printed = run.report(result, trace)
    assert printed["correct"] is True, result["failures"]
    assert printed["failed"] == 0
    assert printed["attempted"] >= 2
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(printed["metrics"]) == {m["name"] for m in names}
    for m in names:
        entry = printed["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        layers = result["layers"]["trace"]
        # the top-level cli.main spans cover the traced operation
        assert abs(layers["unaccounted_s"]) <= 0.01 * layers["wall_s"]
    else:
        for m in names:
            assert printed["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
