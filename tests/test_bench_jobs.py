"""The benchmark's own per-job correctness checks, run in-process.

One job each of the dense-a1 and variants workloads is generated by
perfbench/workloads.py and run through `kronsim.cli.main`; every call must
pass `workloads.check_call` against a --ledger-only run of the same call.
"""

import sys
from pathlib import Path

import pytest

from kronsim.cli import main

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import workloads  # noqa: E402


def _run(argv) -> tuple[int, dict[str, str]]:
    rc = main(argv)
    out = argv[argv.index("--out") + 1]
    return rc, workloads.read_report(out) if rc == 0 else {}


@pytest.mark.parametrize("name", ["dense-a1", "variants"])
def test_bench_job_passes_its_checks(name, tmp_path, capsys):
    jobs = workloads.generate(name, 0, tmp_path / "inputs")
    problems = []
    for call in jobs[0]:
        rc, row = _run(call.argv(str(tmp_path / "out")))
        ref_rc, ref_row = _run(call.argv(str(tmp_path / "ref"), ledger_only=True))
        assert ref_rc == 0
        problems += workloads.check_call(call, rc, row, workloads.counters(ref_row))
    assert problems == []
