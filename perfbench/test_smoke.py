"""Smoke tests of the benchmark harness.

    python3 -m pytest perfbench -q

Each workload runs for a handful of ops (``--smoke``); the tests check the
output contract, the metric catalogue and the tracer, not the timings.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import spec
from tracer import Recorder, Tracer

sys.path.insert(0, str(spec.ROOT / "src"))

RUN = spec.HERE / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = {"cpu_model", "nproc", "blas", "blas_threads", "python", "numpy",
            "scipy", "schurrnn", "schurrnn_backend", "commit", "dirty"}


def _bench(workload, trace, out_dir, cwd=spec.ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(out_dir)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def test_catalogue_matches_benchmark_json():
    with open(spec.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": d}
        for n, u, b, d in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in spec.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    proc = _bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    catalogue = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    assert list(result["metrics"]) == [m[0] for m in catalogue]
    for name, unit, *_ in catalogue:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["error_rate"]["value"] == 0.0

    stem = f"{workload}-seed7-trace{trace}-smoke"
    record = json.loads((tmp_path / f"{stem}.json").read_text())
    assert record["metrics"] == result["metrics"]
    env = json.loads((tmp_path / f"{stem}.env.json").read_text())
    assert ENV_KEYS <= set(env)
    threads = env["blas_threads"]
    if isinstance(threads, dict):     # read from the environment
        assert set(threads.values()) == {"1"}
    else:                             # reported by threadpoolctl
        assert {p["threads"] for p in threads} == {1}


def test_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    run exits non-zero without printing a result."""
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("copy", 0, tmp_path / "out", cwd=tmp_path,
                  run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_restores_and_records_absent():
    from schurrnn import linalg, schur

    original = linalg.expm
    rec = Recorder()
    targets = (("linalg.expm", ("schurrnn.linalg:expm",)),
               ("gone", ("schurrnn.linalg:no_such_function",
                         "schurrnn.no_such_module:f")))
    with Tracer(rec, targets) as tracer:
        assert schur.expm is linalg.expm is not original
        linalg.expm_frechet([[0.0]], [[1.0]])   # calls expm internally
    assert tracer.absent == ["gone"]
    assert linalg.expm is original and schur.expm is original
    assert rec.totals()["linalg.expm"][0] == 1


def test_self_time_excludes_children():
    rec = Recorder()
    rec.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0],
                 ["inner", 6.0, 7.0, 0, 0]]
    totals = rec.totals()
    assert totals["outer"] == [1, 10.0, 6.0]
    assert totals["inner"] == [2, 4.0, 4.0]
    assert rec.root_seconds() == 10.0
