"""kronsim benchmark: seeded `kronsim simulate` workloads, timed end to end.

    python3 perfbench/run.py                      # all four workloads, seed 0
    python3 perfbench/run.py --workload dense-a1 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload variants --trace 1    # per-layer run

Run it from the root of a kronsim checkout; it imports kronsim from `src/`
there and exits 2 if there is none. Each workload runs in child processes of
its own (see worker.py): two set-up-only children and one that sets up and
then measures for --seconds, so a crash or an OOM kill of a child costs that
workload its remaining jobs, not the harness. BLAS threads are capped at the
number of usable CPUs.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. Detailed
results (and, for traced runs, every span) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 3  # set-ups per run; setup_s is their median
# Reference speed: the seconds each speed probe (worker.PROBES) reads at it,
# about its reading in a fast phase of the host the benchmark was sized on.
# Each time is reported as wall seconds * nominal / (the probe read next to it).
PROBE_NOMINAL_S = {"calls": 2.5e-3, "arrays": 20e-3}
TIME_LIMIT_S = 170.0  # per workload, under the 180 s a run may take
# glibc malloc in the workers: no mmap'd blocks and no trimming, so memory a
# job frees is reused by the next job instead of going back to the kernel.
# Otherwise dense-a1 spends 0.5-1.0 s of each ~1.1 s job in the kernel zeroing
# its 2.2 GB of fresh pages, and that time swings from job to job.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**50)}


def machine() -> dict:
    nproc = len(os.sched_getaffinity(0))
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": nproc, "mem_total_mb": round(mem / 2**20)}


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with `beyond` values past
    it; the maximum (percentile 100) when there are no more than `beyond`."""
    ordered = sorted(values)
    rank = len(ordered) - beyond if len(ordered) > beyond else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Child:
    """One worker process, its JSON-lines log and its exit status."""

    def __init__(self, cfg: dict, env: dict, timeout: float):
        self.log = Path(cfg["log"])
        err_path = self.log.with_suffix(".stderr")
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                self.returncode = proc.wait(timeout=max(1.0, timeout))
                self.timed_out = False
            except subprocess.TimeoutExpired:
                proc.kill()
                self.returncode = proc.wait()
                self.timed_out = True
            except BaseException:  # interrupted: take the child down too
                proc.kill()
                proc.wait()
                raise
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        self.records = []
        if self.log.exists():
            with open(self.log, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        self.records.append(json.loads(line))
                    except json.JSONDecodeError:  # half-written line of a killed child
                        break

    def of(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]

    def failure(self) -> str | None:
        if self.timed_out:
            return "killed after the time limit"
        if self.returncode != 0:
            last = self.stderr.splitlines()[-1] if self.stderr else ""
            return f"exit code {self.returncode} {last}".strip()
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads = str(machine()["nproc"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1", **MALLOC_ENV)

    def child(mode: str, k: int) -> Child:
        cfg = {
            "root": str(ROOT), "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "mode": mode, "workdir": str(work / f"{mode}{k}"),
            "log": str(work / f"{mode}{k}.jsonl"), "wall_cap_s": 2 * seconds + 30,
            "spans": str(OUT / f"{name}-spans.npz"),
        }
        cap = 60.0 if mode == "setup" else 3 * seconds + 60
        return Child(cfg, env, min(cap, deadline - time.monotonic()))

    try:
        setups = [] if trace else [child("setup", k) for k in range(SETUPS - 1)]
        measure = child("measure", 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seconds, trace, setups, measure)


def summarize(name: str, seconds: float, trace: bool, setups: list, measure: Child) -> dict:
    nominal = PROBE_NOMINAL_S[WORKLOADS[name].probe]

    def scaled(record: dict, key: str) -> float:
        """A time of a worker record, in seconds at the reference speed."""
        return record[key] * nominal / record["probe_s"]

    problems = []
    setup_records = []
    for c in setups + [measure]:
        recs = c.of("setup")
        setup_records += recs
        if not recs:
            problems.append(f"set-up failed: {c.failure() or 'no set-up record'}")
        problems += [f"warm-up: {p}" for r in recs for p in r["problems"]]
    jobs = measure.of("job")
    done = measure.of("done")
    attempted = len(jobs)
    failed = sum(not j["ok"] for j in jobs)
    problems += [p for j in jobs for p in j["problems"]]
    ok_walls = [j["wall_s"] for j in jobs if j["ok"]]
    if not done:
        # The measuring child died: the job in flight and those it would
        # still have run in its time count as failed.
        spent = sum(j.get("wall_s", 0.0) for j in jobs)
        per_job = statistics.median(ok_walls) if ok_walls else seconds
        lost = 1 + max(0, math.floor((seconds - spent) / per_job))
        attempted += lost
        failed += lost
        problems.append(f"measuring child: {measure.failure()}; {lost} jobs counted as failed")
    elif problems and failed == 0:
        attempted += 1  # a set-up that failed is one failed attempt
        failed += 1

    res = {
        "workload": name, "trace": int(trace), "attempted": attempted,
        "failed": failed, "problems": problems[:20],
        "machine": dict(machine(), **(setup_records[0]["machine"] if setup_records else {})),
        "jobs": len(jobs), "job_records": jobs,
    }
    metrics = {}
    untraced = [j for j in jobs if j["ok"] and not j["traced"]]
    if untraced and done:
        p50 = statistics.median(scaled(j, "wall_s") for j in untraced)
        if trace:
            traced = [scaled(j, "wall_s") for j in jobs if j["ok"] and j["traced"]]
            metrics.update({k: (v, unit_of(k)) for k, v in done[0]["layers"].items()})
            if traced:
                metrics["trace.overhead_s"] = (statistics.median(traced) - p50, "s")
            layers = {k[len("layer."):-2]: v for k, v in done[0]["layers"].items()
                      if k.startswith("layer.")}
            res["shares"] = {k: v / sum(layers.values()) for k, v in layers.items()}
        else:
            metrics["setup_s"] = (statistics.median(scaled(r, "setup_s") for r in setup_records), "s")
            job, res["tail_percentile"] = job_times(jobs, untraced, lambda j: scaled(j, "wall_s"))
            metrics.update({k: (v, "1/s" if k == "jobs_per_s" else "s") for k, v in job.items()})
            metrics["peak_rss_mb"] = (done[0]["peak_rss_mb"], "MB")
            res["wall"], _ = job_times(jobs, untraced, lambda j: j["wall_s"])
            res["wall"]["setup_s"] = statistics.median(r["setup_s"] for r in setup_records)
            res["probe_p50_s"] = statistics.median(j["probe_s"] for j in jobs)
            res["setups"] = len(setup_records)
        errs: dict[str, list[float]] = {}
        for j in jobs:
            for approach, e in j.get("declared_err", {}).items():
                errs.setdefault(approach, []).append(e)
        res["declared_err_p50"] = {a: statistics.median(v) for a, v in sorted(errs.items())}
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    res["correct"] = failed == 0 and bool(metrics)
    return res


def job_times(jobs: list[dict], untraced: list[dict], seconds_of) -> tuple[dict, float]:
    """p50, tail and throughput of the job times; also the tail's percentile."""
    times = [seconds_of(j) for j in untraced]
    value, pct = tail(times)
    busy = sum(seconds_of(j) for j in jobs)
    passed = sum(j["ok"] for j in jobs)
    return {
        "job_p50_s": statistics.median(times), "job_tail_s": value, "jobs_per_s": passed / busy,
    }, pct


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_share"):
        return "fraction"
    return "count"


def report(res: dict, seconds: float) -> None:
    """Human-readable lines for one workload."""
    w = WORKLOADS[res["workload"]]
    print(f"== {w.name}  (closed loop, 1 client; {w.params})")
    print(f"   why: {w.why}")
    m = res["metrics"]
    fail_frac = res["failed"] / res["attempted"]
    if res["trace"]:
        for k, v in m.items():
            print(f"   {k:<28} {v['value']:<14.6g} {v['unit']}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in res.get("shares", {}).items() if v >= 0.001)
        print(f"   self-time shares: {shares}")
    else:
        rows = [(k, v["value"], v["unit"]) for k, v in m.items()]
        rows.append(("fail_frac", fail_frac, "fraction"))
        errs = res.get("declared_err_p50", {})
        if not errs:
            rows.append(("declared_err_p50", "n/a (ledger-only)", "op-norm"))
        for approach, e in errs.items():
            label = "declared_err_p50" if len(errs) == 1 else f"declared_err_p50[{approach}]"
            rows.append((label, e, "op-norm"))
        for k, v, u in rows:
            note = f"(wall {res['wall'][k]:.4g})" if k in res.get("wall", {}) else ""
            if k == "job_tail_s":
                note += f" p{res['tail_percentile']:.0f} of {res['jobs']} jobs"
            elif k == "setup_s":
                note += f" median of {res['setups']} set-ups"
            val = f"{v:<14.6g}" if isinstance(v, float) else f"{v!s:<14}"
            print(f"   {k:<28} {val} {u:<9} {note}")
    if "probe_p50_s" in res:
        print(f"   {w.probe} speed probe p50 {res['probe_p50_s'] * 1e3:.3f} ms "
              f"(times above are scaled to {PROBE_NOMINAL_S[w.probe] * 1e3:g} ms)")
    print(f"   attempted {res['attempted']}, failed {res['failed']}, run_seconds {seconds:g}")
    for p in res["problems"]:
        print(f"   problem: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated harness unwinds through Child, which stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kronsim" / "__init__.py").is_file():
        print(f"no kronsim source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    m = machine()
    print(f"machine: nproc {m['nproc']}, MemTotal {m['mem_total_mb']} MB, "
          f"BLAS threads capped at {m['nproc']}; seed {args.seed}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
        report(res, args.seconds)
        results.append(res)
    mc = results[0]["machine"]
    print(f"software: Python {mc.get('python')}, numpy {mc.get('numpy')}, BLAS {mc.get('blas')}")
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
