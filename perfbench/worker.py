"""One workload in its own process: set up, then (optionally) measure.

Run by run.py as `python3 worker.py '<json config>'`; not meant to be called
by hand. Set-up is the kronsim import, input generation and one warm-up job.
The measure phase is a closed loop with one client: each job is one round of
in-process `kronsim.cli.main(["simulate", ...])` calls, timed around the
calls only. Correctness checks (report.csv, ledger-only reference runs) run
outside the timed section. Every record is appended to a JSON-lines file as
soon as it exists, so a killed worker still leaves what it finished.

Before and after every job (and once after set-up) the worker times a
fixed numpy kernel that runs no kronsim code, the workload's speed probe
(`PROBES`). The host's speed drifts by up to 1.7x over tens of seconds;
run.py divides each time by the adjacent probe reading so the reported
times are in seconds at one reference speed.

With tracing on, jobs alternate untraced and traced; the traced half gives
the per-layer metrics and the difference of the two halves' median job time
is the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _median_time(kernel, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calls_probe(calls: int = 400, reps: int = 5) -> float:
    """Median seconds of `reps` batches of `calls` 2x2 eigh calls.

    Small-matrix numpy calls wrapped in Python are what ledger-sweep and
    long-time consist of; over an eight-minute interleaved run their job
    times tracked this probe through the host's phases (correlation 0.8).
    """
    m = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=np.complex128)

    def kernel():
        for _ in range(calls):
            np.linalg.eigh(m)

    return _median_time(kernel, reps)


_ARRAYS = {}


def arrays_probe(reps: int = 3) -> float:
    """Median seconds of `reps` rounds of one transposing copy of a 32 MB
    complex array and one 512x512 complex matrix product.

    Strided copies (reshapes) and batched matrix products are what the
    dense-a1 and variants jobs spend their time on; their job times tracked
    each of the two parts (correlation 0.6-0.7) better than the small-call
    probe through the host's phases.
    """
    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS["x"] = rng.standard_normal((16, 64, 64, 32)) + 0j
        _ARRAYS["m"] = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    x, m = _ARRAYS["x"], _ARRAYS["m"]

    def kernel():
        np.ascontiguousarray(x.transpose(0, 2, 1, 3))
        m @ m

    return _median_time(kernel, reps)


PROBES = {"calls": calls_probe, "arrays": arrays_probe}


def _load_kronsim(root: Path):
    sys.path.insert(0, str(root / "src"))
    import kronsim
    import kronsim.cli

    origin = Path(kronsim.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise ImportError(f"kronsim imported from {origin}, not from this checkout")
    return kronsim


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "thread_caps": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Runner:
    def __init__(self, kronsim, workdir: Path):
        self.kronsim = kronsim
        self.out = str(workdir / "out")
        self.ref_out = str(workdir / "ref")
        self.references: dict[tuple, dict] = {}

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            rc = self.kronsim.cli.main(argv)
        return rc, err.getvalue().strip()

    def timed(self, job) -> tuple[float, list]:
        """Run a job's calls; (seconds spent inside the calls, per-call outcomes)."""
        spent = 0.0
        outcomes = []
        for call in job:
            argv = call.argv(self.out)
            start = time.perf_counter()
            rc, err = self._main(argv)
            spent += time.perf_counter() - start
            row = workloads.read_report(self.out) if rc == 0 else {}
            outcomes.append((call, rc, err, row))
        return spent, outcomes

    def reference(self, call) -> dict | None:
        """Counters of a --ledger-only run of the same call, computed once."""
        if not call.dense:
            return None
        key = tuple(call.argv(""))
        if key not in self.references:
            rc, err = self._main(call.argv(self.ref_out, ledger_only=True))
            if rc != 0:
                raise RuntimeError(f"ledger-only reference exited {rc}: {err}")
            self.references[key] = workloads.counters(workloads.read_report(self.ref_out))
        return self.references[key]

    def check(self, outcomes) -> list[str]:
        problems = []
        for call, rc, err, row in outcomes:
            ref = self.reference(call) if rc == 0 else None
            problems += workloads.check_call(call, rc, row, ref)
            if rc != 0 and err:
                problems.append(err)
        return problems


def main(cfg: dict) -> int:
    with open(cfg["log"], "a", encoding="utf-8") as log:

        def emit(record: dict) -> None:
            log.write(json.dumps(record) + "\n")
            log.flush()

        run(cfg, emit)
    return 0


def run(cfg: dict, emit) -> None:
    kronsim = _load_kronsim(Path(cfg["root"]))
    speed_probe = PROBES[workloads.WORKLOADS[cfg["workload"]].probe]
    import_s = time.perf_counter() - _T0
    workdir = Path(cfg["workdir"])
    start = time.perf_counter()
    jobs = workloads.generate(cfg["workload"], cfg["seed"], workdir / "inputs")
    gen_s = time.perf_counter() - start
    runner = Runner(kronsim, workdir)
    warm_s, outcomes = runner.timed(jobs[0])
    setup_s = time.perf_counter() - _T0
    warm_problems = [f"{c.approach}: exit code {rc}: {e}" for c, rc, e, _ in outcomes if rc]
    emit({
        "kind": "setup", "setup_s": setup_s, "import_s": import_s, "gen_s": gen_s,
        "warmup_s": warm_s, "probe_s": speed_probe(), "problems": warm_problems,
        "machine": _machine(),
    })
    if cfg["mode"] == "setup":
        return

    tracer = tracing.Tracer() if cfg["trace"] else None
    timed_total = 0.0
    wall_cap = time.perf_counter() + cfg["wall_cap_s"]
    j = 0
    # Whole passes over the input pool, so every file weighs the same (and a
    # traced run has untraced and traced jobs).
    while (timed_total < cfg["seconds"] or j % len(jobs)) and time.perf_counter() < wall_cap:
        traced = tracer is not None and j % 2 == 1
        record = {"kind": "job", "i": j, "traced": traced}
        before = speed_probe()
        attempt = time.perf_counter()
        outcomes = None
        try:
            if traced:
                tracer.install(kronsim, j)
            try:
                spent, outcomes = runner.timed(jobs[j % len(jobs)])
            finally:
                if traced:
                    tracer.uninstall()
        except Exception as exc:  # a failed job is counted, never fatal
            spent = time.perf_counter() - attempt
            record["problems"] = [f"{type(exc).__name__}: {exc}"]
        record["probe_s"] = (before + speed_probe()) / 2
        record["wall_s"] = spent
        timed_total += spent
        if outcomes is not None:
            try:
                record["declared_err"] = {
                    c.approach: float(row["declared_err"])
                    for c, _, _, row in outcomes
                    if row.get("declared_err")
                }
                record["problems"] = runner.check(outcomes)
            except Exception as exc:  # a failed check is counted, never fatal
                record["problems"] = [f"{type(exc).__name__}: {exc}"]
        record["ok"] = not record["problems"]
        emit(record)
        j += 1

    done = {
        "kind": "done",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        done["layers"] = tracer.layer_metrics()
        tracer.write(Path(cfg["spans"]))
    emit(done)


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
