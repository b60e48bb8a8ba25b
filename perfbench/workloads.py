"""Seeded HAMSPEC inputs, job definitions and per-job checks for the benchmark.

Every workload writes a small pool of HAMSPEC files from the benchmark seed.
The seed moves coefficients (and, for the Pauli chains, the Pauli labels)
only: term count, slot count, factor ranks and the CLI settings are fixed per
workload, so every job of a workload does the same amount of work. Where the
dense tail's cost depends on the coefficients (the effective time of the
polynomial grows with the sum of term norms), the coefficients are drawn and
then rescaled to a fixed sum.

A job is a list of `kronsim simulate` calls; only `variants` has more than
one call per job (one round of a2, a3 and td).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 4  # input files per workload (per approach for `variants`)

COUNTERS = (
    "prep_unitary_queries",
    "be_queries",
    "swap_ops",
    "lcu_terms",
    "amplification_rounds",
    "poly_degree",
    "two_qubit_gates",
    "ancilla_dims",
)

LEDGER_SWEEP_K = 64

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULIS = {"X": X, "Y": Y, "Z": Z}


@dataclass(frozen=True)
class Workload:
    name: str
    params: str
    why: str
    # Speed probe (worker.PROBES) whose time tracks this workload's jobs
    # through the host's slow and fast phases: "calls" for many small numpy
    # calls, "arrays" for large array copies and matrix products.
    probe: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-a1",
            "5-qubit random-field TFIM (4 ZZ bonds + 5 X fields, literals), "
            "a1 --t 1 --delta 1e-6, oracle on",
            "blockenc (the combine LCU) does ~95% of the work and sets the peak RSS; "
            "model/hamspec/qsvt do under 2%",
            "arrays",
        ),
        Workload(
            "ledger-sweep",
            f"random two-local Pauli chain, K={LEDGER_SWEEP_K} terms over K+1 slots, "
            "flags rescale, a1 --ledger-only",
            "hamspec + model + linalg.eig_hermitian do ~99% of the work and blockenc "
            "none: the paper's cheap sweep over term count",
            "calls",
        ),
        Workload(
            "long-time",
            "3-qubit random-field TFIM, a1 --t 1000 --delta 1e-8, oracle on",
            "qsvt.jacobi_anger (twice per job) and apply_poly do ~98% of the work on "
            "an 8-dimensional system",
            "calls",
        ),
        Workload(
            "variants",
            "one round per job on 4-qubit chains: a2 --samples 256, a3 --sparsity 1 "
            "on PSD factors, td --t 2 on a commuting Z chain with cosine coefficients",
            "blockenc used three other ways; the only workload reaching truncation "
            "and model.check_pairwise_commuting",
            "arrays",
        ),
    )
}


@dataclass(frozen=True)
class Call:
    """One `kronsim simulate` invocation of a job."""

    approach: str
    hamfile: str
    args: tuple[str, ...]
    dense: bool

    def argv(self, out_dir: str, ledger_only: bool = False) -> list[str]:
        extra = ["--ledger-only"] if ledger_only else []
        return ["simulate", self.hamfile, *self.args, *extra, "--out", out_dir]


def _num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    return f"{z.real!r}{z.imag:+.17g}i"


def _literal(m: np.ndarray) -> str:
    return "[ " + " ; ".join(" ".join(_num(x) for x in row) for row in m) + " ]"


def _fixed_sum(rng: np.random.Generator, n: int, total: float) -> np.ndarray:
    """n coefficients in ratio 1:3 at most, rescaled to sum to `total`."""
    u = rng.uniform(0.5, 1.5, n)
    return total * u / u.sum()


def _hamspec(m: int, terms: list[dict[int, str]], header=(), coeffs=()) -> str:
    lines = [f"dims {len(terms)} {m} 2", *header]
    for i, slots in enumerate(terms, start=1):
        lines.append(f"term {i}: " + " , ".join(slots.get(j, "I") for j in range(m)))
    lines.extend(f"coeff {i}: {c}" for i, c in enumerate(coeffs, start=1))
    return "\n".join(lines) + "\n"


def _chain(n: int, bonds, fields) -> list[dict[int, str]]:
    """Nearest-neighbour bonds (a, b) on slots (i, i+1), then one field per slot."""
    terms = [{i: _literal(a), i + 1: _literal(b)} for i, (a, b) in enumerate(bonds)]
    terms += [{i: _literal(f)} for i, f in enumerate(fields)]
    return terms


def random_field_ising(rng: np.random.Generator, n: int, total: float) -> str:
    """J_i Z Z bonds and h_i X fields as literals, sum of all |J| and |h| fixed.

    `total` is chosen so the largest possible coefficient stays under the
    1/2 norm premise, so the file needs no rescale flag.
    """
    c = _fixed_sum(rng, 2 * n - 1, total)
    bonds = [(cj * Z, Z) for cj in c[: n - 1]]
    return _hamspec(n, _chain(n, bonds, [ch * X for ch in c[n - 1 :]]))


def _psd(rng: np.random.Generator) -> np.ndarray:
    """Rank-2 real PSD factor of norm 1 with both eigenvector entries nonzero."""
    theta = rng.uniform(0.2, 1.3)
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return r @ np.diag([1.0, rng.uniform(0.2, 0.8)]) @ r.T


def psd_chain(rng: np.random.Generator, n: int, total: float) -> str:
    c = _fixed_sum(rng, 2 * n - 1, total)
    bonds = [(cj * _psd(rng), _psd(rng)) for cj in c[: n - 1]]
    return _hamspec(n, _chain(n, bonds, [ch * _psd(rng) for ch in c[n - 1 :]]))


def commuting_z_chain(rng: np.random.Generator, n: int, total: float) -> str:
    c = _fixed_sum(rng, 2 * n - 1, total)
    bonds = [(cj * Z, Z) for cj in c[: n - 1]]
    terms = _chain(n, bonds, [ch * Z for ch in c[n - 1 :]])
    coeffs = [
        f"cosine {rng.uniform(0.5, 1.0)!r} {rng.uniform(0.5, 2.0)!r}" for _ in terms
    ]
    return _hamspec(n, terms, header=("flags timedep",), coeffs=coeffs)


def pauli_chain(rng: np.random.Generator, k: int) -> str:
    """K two-local Pauli terms on slots (i, i+1): a weighted Pauli literal,
    then a named Pauli that the rescale flag halves."""
    labels = list(PAULIS)
    terms = []
    for i in range(k):
        a = PAULIS[labels[rng.integers(3)]] * rng.uniform(0.5, 1.0)
        terms.append({i: _literal(a), i + 1: labels[rng.integers(3)]})
    return _hamspec(k + 1, terms, header=("flags rescale",))


def generate(name: str, seed: int, in_dir: Path) -> list[list[Call]]:
    """Write the workload's HAMSPEC pool under in_dir; return one job per file."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    in_dir.mkdir(parents=True, exist_ok=True)

    def write(stem: str, text: str) -> str:
        path = in_dir / f"{stem}.ham"
        path.write_text(text, encoding="utf-8")
        return str(path)

    jobs = []
    for p in range(POOL):
        if name == "dense-a1":
            f = write(f"tfim5-{p}", random_field_ising(rng, 5, 1.8))
            job = [Call("a1", f, ("--approach", "a1", "--t", "1", "--delta", "1e-6"), True)]
        elif name == "ledger-sweep":
            k = LEDGER_SWEEP_K
            f = write(f"pauli{k}-{p}", pauli_chain(rng, k))
            job = [Call("a1", f, ("--approach", "a1", "--ledger-only"), False)]
        elif name == "long-time":
            f = write(f"tfim3-{p}", random_field_ising(rng, 3, 1.1))
            job = [Call("a1", f, ("--approach", "a1", "--t", "1000", "--delta", "1e-8"), True)]
        else:
            a2 = write(f"tfim4-{p}", random_field_ising(rng, 4, 1.4))
            a3 = write(f"psd4-{p}", psd_chain(rng, 4, 1.4))
            td = write(f"zcos4-{p}", commuting_z_chain(rng, 4, 1.4))
            mc_seed = str(int(rng.integers(2**31)))
            job = [
                Call("a2", a2, ("--approach", "a2", "--samples", "256", "--seed", mc_seed), True),
                Call("a3", a3, ("--approach", "a3", "--sparsity", "1"), True),
                Call("td", td, ("--approach", "td", "--t", "2"), True),
            ]
        jobs.append(job)
    return jobs


def read_report(out_dir: str) -> dict[str, str]:
    """The single data row of a report.csv, keyed by column."""
    rows = [
        line
        for line in (Path(out_dir) / "report.csv").read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    if len(rows) != 2:
        raise ValueError(f"report.csv has {len(rows) - 1} data rows, expected 1")
    return dict(zip(rows[0].split(","), rows[1].split(",")))


def counters(row: dict[str, str]) -> dict[str, int]:
    return {k: int(row[k]) for k in COUNTERS}


def check_call(call: Call, rc: int, row: dict[str, str], reference) -> list[str]:
    """Problems with one call's outcome; an empty list means it passed.

    `reference` is the counter dict of a --ledger-only run of the same file
    (dense calls) or None. The only non-dense call is ledger-sweep's.
    """
    if rc != 0:
        return [f"{call.approach}: exit code {rc}"]
    problems = []
    if call.dense:
        declared = float(row["declared_err"])
        measured = float(row["measured_err"])
        if not (np.isfinite(measured) and measured <= declared):
            problems.append(f"{call.approach}: measured_err {measured} > declared_err {declared}")
        got = counters(row)
        if got != reference:
            problems.append(f"{call.approach}: counters {got} != ledger-only {reference}")
    else:
        # Each two-local Pauli term: 4 eigentuples, so 4 LCU branches and
        # 8 prep queries; the combine LCU adds one branch per term.
        got = counters(row)
        k = LEDGER_SWEEP_K
        if got["lcu_terms"] != 5 * k or got["prep_unitary_queries"] != 8 * k:
            problems.append(
                f"ledger: lcu_terms {got['lcu_terms']} (want {5 * k}), "
                f"prep_unitary_queries {got['prep_unitary_queries']} (want {8 * k})"
            )
    return problems
