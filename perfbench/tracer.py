"""Span tracing of kronsim's public functions, applied from outside the package.

`Tracer.install()` wraps every public function defined in a `kronsim.*`
module and rebinds every module attribute that refers to it, including the
names other modules bound with `from .x import f` and the package's
re-exports. `uninstall()` restores the originals. Spans (name, start, end,
parent, job) are kept in flat in-memory arrays while jobs run; self time is
derived from them afterwards (a span's duration minus its children's).

A few functions carry extra per-job readings, taken from arguments and
scalar result fields only, never from a block encoding's arrays:
  - linalg.eig_hermitian: whether the factor is the identity;
  - qsvt.jacobi_anger: the polynomial degree it returned;
  - pipelines.run_pipeline: the stage wall times in PipelineResult.timings;
  - blockenc encoders: the tracemalloc peak inside the outermost call.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "linalg", "model", "hamspec", "blockenc", "qsvt",
    "truncation", "pipelines", "resources", "cli", "ledger",
)

# blockenc helpers that only do integer arithmetic: no tracemalloc around them.
_INTEGER_HELPERS = frozenset({"blockenc.next_pow2", "blockenc.swap_count"})
_IDENTITY_TOL = 1e-12  # same entrywise rule as kronsim.model.is_identity_factor


def _kronsim_modules(package: types.ModuleType) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [package] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith(prefix) and m
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.job = -1
        self.jobs: list[int] = []
        self.eig_identity: dict[int, int] = defaultdict(int)
        self.poly_degree: dict[int, int] = defaultdict(int)
        self.stage_ms: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.blockenc_peak: dict[int, int] = defaultdict(int)
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self, package: types.ModuleType, job: int) -> None:
        """Wrap kronsim's public functions for one traced job."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.job = job
        self.jobs.append(job)
        modules = _kronsim_modules(package)
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                    and fn.__name__ == attr
                ):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                wrapper = wrappers.get(id(fn))
                if wrapper is not None and isinstance(fn, types.FunctionType):
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self.job = -1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        stack = self._stack
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        after = self._after_hook(name)
        track_memory = name.startswith("blockenc.") and name not in _INTEGER_HELPERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = track_memory and not tracemalloc.is_tracing()
            if outermost:
                tracemalloc.start()
            idx = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(self.job)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
                if outermost:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.blockenc_peak[self.job] = max(self.blockenc_peak[self.job], peak)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hook(self, name: str):
        if name == "linalg.eig_hermitian":
            def identity_factor(args, result):
                m = np.asarray(args[0])
                if m.ndim == 2 and m.shape[0] == m.shape[1]:
                    if np.max(np.abs(m - np.eye(m.shape[0]))) < _IDENTITY_TOL:
                        self.eig_identity[self.job] += 1
            return identity_factor
        if name == "qsvt.jacobi_anger":
            def degree(args, result):
                p = max(poly.degree for poly in result)
                self.poly_degree[self.job] = max(self.poly_degree[self.job], p)
            return degree
        if name == "pipelines.run_pipeline":
            def stages(args, result):
                acc = self.stage_ms[self.job]
                for stage, ms in result.timings.items():
                    acc["term" if stage.startswith("term") else stage] += ms
            return stages
        return None

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) per span."""
        start = np.asarray(self.span_start, dtype=np.float64)
        dur = np.asarray(self.span_end, dtype=np.float64) - start
        parent = np.asarray(self.span_parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return np.asarray(self.span_name, dtype=np.int32), dur - child

    def layer_metrics(self) -> dict[str, float]:
        """Per-job means over the traced jobs, keyed by per-layer metric name."""
        n_jobs = max(1, len(self.jobs))
        names, self_s = self.self_times()
        by_name = np.bincount(names, weights=self_s, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))

        def s(*fns: str) -> float:
            return sum(by_name[self._name_ids[f]] for f in fns if f in self._name_ids) / n_jobs

        def n(fn: str) -> float:
            return calls[self._name_ids[fn]] / n_jobs if fn in self._name_ids else 0.0

        def layer(prefix: str) -> float:
            return s(*(f for f in self.names if f.startswith(prefix + ".")))

        def stage(key: str) -> float:
            return sum(self.stage_ms[j][key] for j in self.jobs) / 1e3 / n_jobs

        eig_calls = n("linalg.eig_hermitian") * n_jobs
        identity = sum(self.eig_identity[j] for j in self.jobs)
        out = {
            "hamspec.parse_s": layer("hamspec"),
            "model.make_term_s": s("model.make_term"),
            "model.make_term_calls": n("model.make_term"),
            "model.commute_check_s": s("model.check_pairwise_commuting"),
            "linalg.eig_hermitian_calls": n("linalg.eig_hermitian"),
            "linalg.eig_hermitian_s": s("linalg.eig_hermitian"),
            "linalg.eig_identity_share": identity / eig_calls if eig_calls else 0.0,
            "linalg.op_norm_calls": n("linalg.op_norm"),
            "linalg.op_norm_s": s("linalg.op_norm"),
            "linalg.unitary_completion_s": s("linalg.unitary_completion"),
            "blockenc.be_lcu_s": s("blockenc.be_lcu"),
            "blockenc.be_lcu_calls": n("blockenc.be_lcu"),
            "blockenc.dilate_s": s("blockenc.dilate"),
            "blockenc.purification_s": s("blockenc.be_density_from_purification"),
            "blockenc.tensor_s": s("blockenc.be_tensor"),
            "blockenc.swap_s": s("blockenc.be_swap_permute", "blockenc.slot_permutation_matrix"),
            "blockenc.amplify_s": s("blockenc.be_amplify"),
            "blockenc.peak_mb": max((self.blockenc_peak[j] for j in self.jobs), default=0) / 2**20,
            "qsvt.jacobi_anger_s": s("qsvt.jacobi_anger"),
            "qsvt.jacobi_anger_calls": n("qsvt.jacobi_anger"),
            "qsvt.poly_degree": sum(self.poly_degree[j] for j in self.jobs) / n_jobs,
            "qsvt.apply_poly_s": s("qsvt.apply_poly"),
            "truncation.truncate_s": layer("truncation"),
            "pipelines.term_s": stage("term"),
            "pipelines.combine_s": stage("combine"),
            "pipelines.transform_s": stage("transform"),
            "pipelines.self_s": layer("pipelines"),
            "resources.oracle_s": s("resources.oracle_evolution"),
            "resources.compare_s": s("resources.compare"),
            "cli.self_s": layer("cli"),
        }
        out.update({f"layer.{m}_s": layer(m) for m in LAYERS})
        return {k: float(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """All spans, with their name table, as one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            job=np.asarray(self.span_job, dtype=np.int32),
            start=np.asarray(self.span_start, dtype=np.float64),
            end=np.asarray(self.span_end, dtype=np.float64),
        )

