"""Smoke test of the benchmark at its smallest setting.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one second, one traced run, and the harness in a
directory without kronsim sources, which must fail without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_depend_on_seed_only_through_coefficients(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, tmp_path / "a")
        b = workloads.generate(name, 7, tmp_path / "b")
        c = workloads.generate(name, 8, tmp_path / "c")
        for ja, jb, jc in zip(a, b, c):
            for ca, cb, cc in zip(ja, jb, jc):
                ta, tb, tc = (Path(x.hamfile).read_text() for x in (ca, cb, cc))
                assert ta == tb
                assert ta != tc
                # Same header and the same identity slots: only entries move.
                header = [ln for ln in ta.splitlines() if ln.startswith(("dims", "flags"))]
                assert header == [ln for ln in tc.splitlines() if ln.startswith(("dims", "flags"))]
                assert [ln.count(" I") for ln in ta.splitlines()] == [
                    ln.count(" I") for ln in tc.splitlines()
                ]


def test_tracer_spans_cover_rebound_names_and_restore(tmp_path):
    import kronsim
    import kronsim.cli
    import kronsim.pipelines

    original = kronsim.pipelines.be_lcu
    t = tracer.Tracer()
    t.install(kronsim, 0)
    try:
        assert kronsim.pipelines.be_lcu is not original
        assert kronsim.be_lcu is kronsim.blockenc.be_lcu is kronsim.pipelines.be_lcu
        ham = str(ROOT / "docs" / "tfim3.ham")
        rc = kronsim.cli.main(["simulate", ham, "--out", str(tmp_path)])
    finally:
        t.uninstall()
    assert rc == 0
    assert kronsim.pipelines.be_lcu is original
    names, self_s = t.self_times()
    assert (self_s >= -1e-9).all()
    root = [i for i, n in enumerate(names) if t.names[n] == "cli.main"]
    assert len(root) == 1
    root_dur = t.span_end[root[0]] - t.span_start[root[0]]
    assert abs(self_s.sum() - root_dur) < 1e-6
    m = t.layer_metrics()
    assert m["blockenc.be_lcu_calls"] > 0 and m["model.make_term_calls"] == 5
    assert m["pipelines.combine_s"] > 0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_smallest_setting(name):
    res = result(bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = result(bench("--workload", "variants", "--seed", "1", "--seconds", "1", "--trace", "1"))
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dense-a1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
