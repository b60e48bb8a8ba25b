"""End-to-end simulation pipelines over tensor-factor Hamiltonians.

Four pipelines share one backbone: build an exact (or approximate) encoding
of each term divided by its subnormalization, combine terms by a convex LCU,
remove as much subnormalization as is provably safe, then transform the
spectrum with the half-amplitude approximant of exp(-i x t) and restore the
factor 2 on the extracted block.

Resource accounting is centralized here (combinators get no ledger): every
counter is computed from spectra and configuration alone, so ledger-only runs
and dense runs record identical counters by construction. The ledger follows
the nominal schedule of the source analysis: amplification is charged at
gamma = sum of the used subnormalizations and the polynomial degree at the
physical time, while the dense backend executes a feasibility-capped
amplification and absorbs the remaining subnormalization alpha_rem into the
polynomial's effective time t_eff = alpha_rem * t. Declared errors always
describe the dense path actually executed.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .blockenc import (
    BlockEncoding,
    attach_target,
    be_amplify,
    be_lcu,
    be_negate,
    be_swap_permute,
    be_tensor,
    be_with_scale,
    dilate,
    be_density_from_purification,
    next_pow2,
    swap_count,
)
from .errors import (
    CoefficientsMissing,
    InvalidFactor,
    NegativeEigenvalueProduct,
    NotCommuting,
)
from .ledger import ResourceLedger, amplification_rounds
from .linalg import kron_all, op_norm, sparsity, trace_norm, unitary_completion
from .model import (
    TensorFactorHamiltonian,
    TensorTerm,
    check_pairwise_commuting,
    coefficient_degree,
    integrate_coefficient,
)
from .qsvt import apply_poly, jacobi_anger
from .truncation import randomized_truncate

AMP_DELTA = 0.1  # amplification's fixed stability margin
APPROACHES = ("a1", "a2", "a3", "td")


@dataclass(frozen=True)
class PipelineConfig:
    approach: str
    t: float
    delta: float
    use_simplification: bool = True
    mc_samples: int | None = None
    mc_seed: int | None = None
    truncation_sparsity: int | None = None
    tail_groups: int = 8
    ledger_only: bool = False
    inject_term_err: float | None = None

    def __post_init__(self):
        if self.approach not in APPROACHES:
            raise InvalidFactor(f"unknown approach {self.approach!r}")
        if not (0.0 < self.delta < 0.5):
            raise InvalidFactor(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.approach == "a2":
            if self.mc_samples is None or self.mc_samples < 1:
                raise InvalidFactor("a2 requires mc_samples >= 1")
            if self.mc_seed is None:
                raise InvalidFactor("a2 requires an explicit mc_seed")


@dataclass(frozen=True)
class MCSampleRecord:
    """One Monte-Carlo draw: a reduced eigentuple with its sign and weight."""

    eigentuple: tuple[int, ...]
    sign: int
    probability: float
    sample_index: int


@dataclass
class PipelineResult:
    evolution_block: np.ndarray | None
    declared_err: float | None
    measured_err: float | None
    ledger: ResourceLedger
    timings: dict[str, float]
    cfg: PipelineConfig
    mc_term_errors: dict[int, float] = field(default_factory=dict)
    mc_srho_bounds: dict[int, float] = field(default_factory=dict)
    mc_records: dict[int, tuple[MCSampleRecord, ...]] = field(default_factory=dict)
    factor_trace_dists: dict[tuple[int, int, int], float] = field(default_factory=dict)
    term_trace_defects: dict[int, float] = field(default_factory=dict)
    truncation_delta: float | None = None


@contextmanager
def _stage(result: PipelineResult, name: str):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        exc.stage = name
        raise
    finally:
        result.timings[name] = (time.perf_counter() - start) * 1e3


def simplify_term(term: TensorTerm) -> tuple[tuple[np.ndarray, ...], tuple[int, ...], float]:
    """Reduced factor list over the nontrivial slots, embedding permutation,
    and the reduced subnormalization.

    The permutation maps the packed layout [nontrivial factors | identity
    slots] back to the original slot positions: perm[packed] = original.
    """
    nontrivial = sorted(term.nontrivial_set)
    identity = [j for j in range(term.m) if j not in term.nontrivial_set]
    perm = tuple(nontrivial + identity)
    reduced = tuple(term.factors[j] for j in nontrivial)
    return reduced, perm, term.gamma_prime


def _used_slots(term: TensorTerm, simplified: bool) -> list[int]:
    if simplified:
        return sorted(term.nontrivial_set)
    return list(range(term.m))


def _nonzero_tuples(spectra) -> list[tuple[int, ...]]:
    # Lexicographic over per-slot eigen-indices, restricted to nonzero
    # eigenvalues (spectra are |lambda|-descending, so those come first).
    return list(itertools.product(*(range(sd.rank) for sd in spectra)))


def _tuple_weights(spectra, tuples, gamma_used):
    prods = np.array(
        [math.prod(spectra[j].eigenvalues[k] for j, k in enumerate(tp)) for tp in tuples]
    )
    weights = np.abs(prods) / gamma_used
    signs = np.where(prods >= 0.0, 1, -1)
    return weights, signs


def _completions(term: TensorTerm, slots) -> dict[int, list[np.ndarray]]:
    out = {}
    for j in slots:
        sd = term.spectral[j]
        out[j] = [unitary_completion(sd.eigenvectors[:, k]) for k in range(sd.rank)]
    return out


def _projector_encoding(preps: list[np.ndarray], sign: int) -> BlockEncoding:
    prep = kron_all(preps)
    enc = be_density_from_purification(prep, 1)
    return be_negate(enc) if sign < 0 else enc


def _identity_encoding(d: int) -> BlockEncoding:
    eye = np.eye(d, dtype=np.complex128)
    return BlockEncoding(eye, d, 1, 1.0, 0.0, "id", target=eye)


def _embed(
    enc: BlockEncoding, term: TensorTerm, perm: tuple[int, ...]
) -> BlockEncoding:
    n_id = term.m - len(term.nontrivial_set)
    if n_id == 0:
        return enc
    parts = [enc] + [_identity_encoding(term.d) for _ in range(n_id)]
    return be_swap_permute(be_tensor(parts), perm, term.d, movable=range(len(term.nontrivial_set)))


def _term_ideal(term: TensorTerm, simplified: bool) -> np.ndarray:
    """The operator each term stage encodes: H_i (reduced if simplified)
    divided by the used subnormalization."""
    slots = _used_slots(term, simplified)
    gamma = term.gamma_prime if simplified else term.gamma
    return kron_all([term.factors[j] for j in slots]) / gamma


def _charge_term_plan(
    ledger: ResourceLedger,
    i: int,
    n_tuples: int,
    sys_used: int,
    term: TensorTerm,
    perm: tuple[int, ...],
    simplified: bool,
    anc_scale: int = 1,
) -> int:
    """Record the per-term stage counters; returns the term's nominal ancilla dim."""
    log_sys = max(1, (sys_used - 1).bit_length())
    ledger.record(
        f"term{i}-prep",
        prep_unitary_queries=2 * n_tuples,
        two_qubit_gates=n_tuples * log_sys,
        ancilla_dims=sys_used,
    )
    anc = next_pow2(n_tuples) * sys_used * anc_scale
    ledger.record(f"term{i}-lcu", lcu_terms=n_tuples, be_queries=n_tuples, ancilla_dims=anc)
    n_id = term.m - len(term.nontrivial_set)
    if simplified and n_id > 0:
        ledger.record(
            f"term{i}-embed",
            be_queries=1 + n_id,
            swap_ops=swap_count(perm, movable=range(len(term.nontrivial_set))),
        )
    return anc


def _charge_combine_plan(ledger: ResourceLedger, anc_terms: list[int]) -> int:
    anc = math.lcm(*anc_terms) * next_pow2(len(anc_terms)) if anc_terms else 1
    ledger.record(
        "combine", lcu_terms=len(anc_terms), be_queries=len(anc_terms), ancilla_dims=anc
    )
    return anc


def _charge_tail_plan(
    ledger: ResourceLedger,
    gamma_nominal: float,
    anc_combined: int,
    t_nominal: float,
    delta: float,
) -> None:
    """Nominal-schedule amplification and polynomial charges."""
    anc = anc_combined
    if gamma_nominal > 1.0:
        m = amplification_rounds(gamma_nominal, AMP_DELTA, delta / 10.0)
        anc = 2 * anc_combined
        ledger.record(
            "amplify", amplification_rounds=m, be_queries=m, ancilla_dims=anc
        )
    pr, pi = jacobi_anger(t_nominal, delta)
    p = max(pr.degree, pi.degree)
    anc_qubits = max(1, (anc - 1).bit_length())
    ledger.record(
        "poly",
        be_queries=p + 1,
        poly_degree=p,
        two_qubit_gates=(anc_qubits + 1) * p,
        ancilla_dims=4 * anc,
    )


def _dense_tail(
    u: BlockEncoding,
    gamma_sum: float,
    norm_upper: float,
    t_physical: float,
    delta: float,
    allow_amplify: bool,
    result: PipelineResult,
) -> None:
    """Feasible amplification, spectral transform, factor-2 restoration."""
    alpha_rem = gamma_sum
    if allow_amplify and norm_upper > 0.0:
        gamma_cap = min(gamma_sum, (1.0 - AMP_DELTA) * gamma_sum / norm_upper)
        if gamma_cap > 1.0 + 1e-12:
            u = be_amplify(u, gamma_cap, AMP_DELTA, delta / 10.0)
            alpha_rem = gamma_sum / gamma_cap
    t_eff = alpha_rem * t_physical
    pr, pi = jacobi_anger(t_eff, delta)
    out = apply_poly(u, pr, pi)
    result.evolution_block = 2.0 * out.block()
    result.declared_err = 2.0 * out.err


def _exact_term_encoding(
    term: TensorTerm, i: int, simplified: bool, perm: tuple[int, ...]
) -> BlockEncoding:
    """LCU of signed eigentuple projector encodings: H_i / gamma_used."""
    slots = _used_slots(term, simplified)
    spectra = [term.spectral[j] for j in slots]
    gamma_used = term.gamma_prime if simplified else term.gamma
    tuples = _nonzero_tuples(spectra)
    weights, signs = _tuple_weights(spectra, tuples, gamma_used)
    comps = _completions(term, slots)
    encs = [
        _projector_encoding([comps[j][k] for j, k in zip(slots, tp)], sg)
        for tp, sg in zip(tuples, signs)
    ]
    enc = be_lcu(encs, weights / weights.sum(), tag=f"term{i}")
    enc = attach_target(enc, _term_ideal(term, simplified))
    return _embed(enc, term, perm) if simplified else enc


def run_approach1(h: TensorFactorHamiltonian, cfg: PipelineConfig) -> PipelineResult:
    result = PipelineResult(None, None, None, ResourceLedger(), {}, cfg)
    simplified = cfg.use_simplification
    encs: list[BlockEncoding] = []
    gammas: list[float] = []
    anc_terms: list[int] = []
    for i, term in enumerate(h.terms):
        with _stage(result, f"term{i}"):
            _, perm, _ = simplify_term(term)
            slots = _used_slots(term, simplified)
            n_tuples = math.prod(term.spectral[j].rank for j in slots)
            sys_used = term.d ** len(slots)
            anc_terms.append(
                _charge_term_plan(result.ledger, i, n_tuples, sys_used, term, perm, simplified)
            )
            gammas.append(term.gamma_prime if simplified else term.gamma)
            if not cfg.ledger_only:
                encs.append(_exact_term_encoding(term, i, simplified, perm))
    gamma_sum = float(sum(gammas))
    with _stage(result, "combine"):
        anc_combined = _charge_combine_plan(result.ledger, anc_terms)
        u = None
        if not cfg.ledger_only:
            w = np.array(gammas) / gamma_sum
            u = be_lcu(encs, w / w.sum(), tag="combine")
            u = be_with_scale(u, gamma_sum)
    with _stage(result, "transform"):
        _charge_tail_plan(result.ledger, gamma_sum, anc_combined, cfg.t, cfg.delta)
        if not cfg.ledger_only:
            ub = float(sum(term.norm_bound() for term in h.terms))
            _dense_tail(u, gamma_sum, ub, cfg.t, cfg.delta, True, result)
    return result


def _mc_term_samples(rng, term: TensorTerm, slots, n: int):
    """Draw n reduced eigentuples from the per-slot |lambda| distribution."""
    spectra = [term.spectral[j] for j in slots]
    draws = np.empty((n, len(slots)), dtype=np.intp)
    for col, sd in enumerate(spectra):
        probs = np.abs(sd.eigenvalues[: sd.rank])
        probs = probs / probs.sum()
        draws[:, col] = rng.choice(sd.rank, size=n, p=probs)
    return [tuple(int(x) for x in row) for row in draws]


def _mc_projector_encoding(
    term: TensorTerm,
    red_slots,
    comps,
    tp: tuple[int, ...],
    sign: int,
    id_indices: tuple[int, ...],
    simplified: bool,
) -> BlockEncoding:
    if simplified:
        return _projector_encoding([comps[j][k] for j, k in zip(red_slots, tp)], sign)
    # Unsimplified samples carry a uniformly drawn basis index on each
    # identity slot; together with the reduced eigentuple this reproduces the
    # full-tuple distribution, since identity spectra are uniform.
    eye = np.eye(term.d, dtype=np.complex128)
    preps = []
    id_iter = iter(id_indices)
    for j in range(term.m):
        if j in term.nontrivial_set:
            preps.append(comps[j][tp[red_slots.index(j)]])
        else:
            preps.append(unitary_completion(eye[:, next(id_iter)]))
    return _projector_encoding(preps, sign)


def run_approach2(h: TensorFactorHamiltonian, cfg: PipelineConfig) -> PipelineResult:
    result = PipelineResult(None, None, None, ResourceLedger(), {}, cfg)
    simplified = cfg.use_simplification
    n = int(cfg.mc_samples)
    rng = np.random.default_rng(cfg.mc_seed)
    encs: list[BlockEncoding] = []
    gammas: list[float] = []
    anc_terms: list[int] = []
    for i, term in enumerate(h.terms):
        with _stage(result, f"term{i}"):
            _, perm, _ = simplify_term(term)
            red_slots = sorted(term.nontrivial_set)
            slots = _used_slots(term, simplified)
            sys_used = term.d ** len(slots)
            gamma_used = term.gamma_prime if simplified else term.gamma
            gammas.append(gamma_used)
            anc_terms.append(
                _charge_term_plan(result.ledger, i, n, sys_used, term, perm, simplified)
            )

            spectra_red = [term.spectral[j] for j in red_slots]
            tuples = _mc_term_samples(rng, term, red_slots, n)
            n_id = term.m - len(red_slots)
            id_draws = (
                rng.integers(0, term.d, size=(n, n_id)) if not simplified and n_id else None
            )
            records = []
            for j, tp in enumerate(tuples):
                prod = math.prod(
                    spectra_red[c].eigenvalues[k] for c, k in enumerate(tp)
                )
                records.append(
                    MCSampleRecord(tp, 1 if prod >= 0 else -1, abs(prod) / term.gamma_prime, j)
                )
            result.mc_records[i] = tuple(records)

            if cfg.ledger_only:
                continue

            # Collapse duplicate draws; the ledger above already charged the
            # conceptual N preparations.
            counts: dict[tuple, int] = {}
            for j, rec in enumerate(records):
                key = rec.eigentuple + (tuple(id_draws[j]) if id_draws is not None else ())
                counts[key] = counts.get(key, 0) + 1
            comps = _completions(term, red_slots)
            uniq_encs = []
            uniq_w = []
            for key, cnt in sorted(counts.items()):
                tp = key[: len(red_slots)]
                ids = key[len(red_slots) :]
                prod = math.prod(
                    spectra_red[c].eigenvalues[k] for c, k in enumerate(tp)
                )
                uniq_encs.append(
                    _mc_projector_encoding(
                        term, red_slots, comps, tp, 1 if prod >= 0 else -1, ids, simplified
                    )
                )
                uniq_w.append(cnt / n)
            weights = np.array(uniq_w)
            enc = be_lcu(uniq_encs, weights / weights.sum(), tag=f"mc-term{i}")

            ideal = _term_ideal(term, simplified)
            deviation = op_norm(enc.block() - ideal)
            result.mc_term_errors[i] = deviation
            srho = sum(
                sparsity(e.target if e.target is not None else e.block())
                for e in uniq_encs
            ) + sparsity(ideal)
            result.mc_srho_bounds[i] = float(srho)
            err = deviation
            if cfg.inject_term_err is not None:
                err = max(err, cfg.inject_term_err)
            enc = replace(enc, err=err, target=ideal)
            if simplified:
                enc = _embed(enc, term, perm)
            encs.append(enc)
    gamma_sum = float(sum(gammas))
    with _stage(result, "combine"):
        anc_combined = _charge_combine_plan(result.ledger, anc_terms)
        u = None
        if not cfg.ledger_only:
            w = np.array(gammas) / gamma_sum
            u = be_lcu(encs, w / w.sum(), tag="combine")
            u = be_with_scale(u, gamma_sum)
    with _stage(result, "transform"):
        _charge_tail_plan(result.ledger, gamma_sum, anc_combined, cfg.t, cfg.delta)
        if not cfg.ledger_only:
            # A Monte-Carlo average only guarantees block norm <= 1, so no
            # amplification factor is provably safe; the subnormalization is
            # absorbed into the polynomial's effective time instead.
            _dense_tail(u, gamma_sum, 0.0, cfg.t, cfg.delta, False, result)
    return result


def _check_nonnegative_products(term: TensorTerm, i: int, slots) -> None:
    spectra = [term.spectral[j] for j in slots]
    for tp in _nonzero_tuples(spectra):
        prod = math.prod(spectra[j].eigenvalues[k] for j, k in enumerate(tp))
        if prod < 0.0:
            raise NegativeEigenvalueProduct(
                f"term {i} eigentuple {tp} has eigenvalue product {prod:.6e} < 0"
            )


def _term_ensembles(
    term: TensorTerm, i: int, slots, cfg: PipelineConfig, result: PipelineResult
):
    """Truncation ensembles for every used eigenvector of a term (or None),
    plus the padded member-register dimensions. Deterministic, so ledger-only
    and dense runs derive identical ancilla counters from it."""
    if cfg.truncation_sparsity is None:
        return None, [], 1
    s = int(cfg.truncation_sparsity)
    spectra = [term.spectral[j] for j in slots]
    ensembles = {}
    for j, sd in enumerate(spectra):
        for k in range(sd.rank):
            e = randomized_truncate(sd.eigenvectors[:, k], s, cfg.tail_groups)
            ensembles[(j, k)] = e
            result.factor_trace_dists[(i, slots[j], k)] = e.measured_trace_dist
    lmax = [
        max(len(ensembles[(j, k)].members) for k in range(sd.rank))
        for j, sd in enumerate(spectra)
    ]
    return ensembles, lmax, math.prod(lmax)


def _purified_term_encoding(
    term: TensorTerm,
    i: int,
    simplified: bool,
    perm: tuple[int, ...],
    ensembles,
    lmax,
    result: PipelineResult,
) -> BlockEncoding:
    """Single-purification encoding of H_i / gamma_used (Approach 3)."""
    slots = _used_slots(term, simplified)
    spectra = [term.spectral[j] for j in slots]
    gamma_used = term.gamma_prime if simplified else term.gamma
    tuples = _nonzero_tuples(spectra)
    weights, _ = _tuple_weights(spectra, tuples, gamma_used)
    weights = weights / weights.sum()
    d = term.d
    sys_used = d ** len(slots)

    if ensembles is None:
        phi = np.zeros(len(tuples) * sys_used, dtype=np.complex128)
        for idx, (tp, w) in enumerate(zip(tuples, weights)):
            vecs = [spectra[j].eigenvectors[:, k : k + 1] for j, k in enumerate(tp)]
            phi[idx * sys_used : (idx + 1) * sys_used] = math.sqrt(w) * kron_all(vecs).ravel()
        enc = be_density_from_purification(unitary_completion(phi), len(tuples))
    else:
        reg2 = math.prod(lmax)
        phi = np.zeros(len(tuples) * reg2 * sys_used, dtype=np.complex128)
        for idx, (tp, w) in enumerate(zip(tuples, weights)):
            mats = []
            for j, k in enumerate(tp):
                e = ensembles[(j, k)]
                a = np.zeros((lmax[j], d), dtype=np.complex128)
                for row, mem in enumerate(e.members):
                    a[row] = math.sqrt(mem.prob) * mem.vector
                mats.append(a)
            slot_tensor = kron_all(mats)  # rows: member multi-index, cols: system
            phi[idx * reg2 * sys_used : (idx + 1) * reg2 * sys_used] = (
                math.sqrt(w) * slot_tensor.ravel()
            )
        enc = be_density_from_purification(unitary_completion(phi), len(tuples) * reg2)

    ideal = _term_ideal(term, simplified)
    defect = trace_norm(enc.block() - ideal)
    result.term_trace_defects[i] = defect
    enc = replace(enc, err=op_norm(enc.block() - ideal), target=ideal)
    return _embed(enc, term, perm) if simplified else enc


def run_approach3(h: TensorFactorHamiltonian, cfg: PipelineConfig) -> PipelineResult:
    result = PipelineResult(None, None, None, ResourceLedger(), {}, cfg)
    simplified = cfg.use_simplification
    encs: list[BlockEncoding] = []
    gammas: list[float] = []
    anc_terms: list[int] = []
    for i, term in enumerate(h.terms):
        with _stage(result, f"term{i}"):
            _, perm, _ = simplify_term(term)
            slots = _used_slots(term, simplified)
            _check_nonnegative_products(term, i, slots)
            n_tuples = math.prod(term.spectral[j].rank for j in slots)
            sys_used = term.d ** len(slots)
            gammas.append(term.gamma_prime if simplified else term.gamma)
            ensembles, lmax, reg2 = _term_ensembles(term, i, slots, cfg, result)
            # One purification per term: prep and its adjoint once each.
            log_sys = max(1, (sys_used - 1).bit_length())
            anc = n_tuples * reg2 * sys_used
            result.ledger.record(
                f"term{i}-prep",
                prep_unitary_queries=2,
                two_qubit_gates=log_sys,
                ancilla_dims=anc,
            )
            anc_terms.append(anc)
            n_id = term.m - len(term.nontrivial_set)
            if simplified and n_id > 0:
                result.ledger.record(
                    f"term{i}-embed",
                    be_queries=1 + n_id,
                    swap_ops=swap_count(perm, movable=range(len(term.nontrivial_set))),
                )
            if not cfg.ledger_only:
                encs.append(
                    _purified_term_encoding(term, i, simplified, perm, ensembles, lmax, result)
                )
    if result.factor_trace_dists:
        result.truncation_delta = max(result.factor_trace_dists.values())
    elif cfg.truncation_sparsity is not None:
        result.truncation_delta = 0.0
    gamma_sum = float(sum(gammas))
    with _stage(result, "combine"):
        anc_combined = _charge_combine_plan(result.ledger, anc_terms)
        u = None
        if not cfg.ledger_only:
            w = np.array(gammas) / gamma_sum
            u = be_lcu(encs, w / w.sum(), tag="combine")
            u = be_with_scale(u, gamma_sum)
    with _stage(result, "transform"):
        _charge_tail_plan(result.ledger, gamma_sum, anc_combined, cfg.t, cfg.delta)
        if not cfg.ledger_only:
            ub = float(sum(term.norm_bound() for term in h.terms))
            _dense_tail(u, gamma_sum, ub, cfg.t, cfg.delta, True, result)
    return result


def run_time_dependent(h: TensorFactorHamiltonian, cfg: PipelineConfig) -> PipelineResult:
    result = PipelineResult(None, None, None, ResourceLedger(), {}, cfg)
    if h.coefficients is None:
        raise CoefficientsMissing("time-dependent run needs coefficient lines")
    check = check_pairwise_commuting(h, tol=1e-9)
    if not check.ok:
        raise NotCommuting(check.pair, check.norm)
    simplified = cfg.use_simplification
    betas = [integrate_coefficient(c, cfg.t) for c in h.coefficients]
    scales = [max(1.0, abs(b)) for b in betas]
    encs: list[BlockEncoding] = []
    weights_unnorm: list[float] = []
    anc_terms: list[int] = []
    for i, term in enumerate(h.terms):
        with _stage(result, f"term{i}"):
            _, perm, _ = simplify_term(term)
            slots = _used_slots(term, simplified)
            n_tuples = math.prod(term.spectral[j].rank for j in slots)
            sys_used = term.d ** len(slots)
            gamma_used = term.gamma_prime if simplified else term.gamma
            weights_unnorm.append(gamma_used * scales[i])
            anc_terms.append(
                _charge_term_plan(
                    result.ledger, i, n_tuples, sys_used, term, perm, simplified, anc_scale=2
                )
            )
            # Steps 2-3 emulation: the scalar rotation-and-transform costs
            # deg(beta_i) queries; the O(t) rotation wall time is metadata.
            result.ledger.record(
                f"term{i}-coeff", be_queries=coefficient_degree(h.coefficients[i], cfg.t)
            )
            if not cfg.ledger_only:
                term_enc = _exact_term_encoding(term, i, simplified, perm)
                scalar = dilate(np.array([[betas[i]]], dtype=np.complex128), scales[i])
                enc = be_with_scale(be_tensor([scalar, term_enc]), 1.0)
                encs.append(enc)
    # Wall time of the classical beta rotations scales with t; keep it as
    # metadata rather than a gate counter.
    result.ledger.note("rotation_wall_time_units", abs(cfg.t))
    omega = float(sum(weights_unnorm))
    with _stage(result, "combine"):
        anc_combined = _charge_combine_plan(result.ledger, anc_terms)
        u = None
        if not cfg.ledger_only:
            w = np.array(weights_unnorm) / omega
            u = be_lcu(encs, w / w.sum(), tag="combine")
            u = be_with_scale(u, omega)
    with _stage(result, "transform"):
        # t' = 1: the physical time lives inside the beta_i weights.
        _charge_tail_plan(result.ledger, omega, anc_combined, 1.0, cfg.delta)
        if not cfg.ledger_only:
            ub = float(
                sum(abs(b) * term.norm_bound() for b, term in zip(betas, h.terms))
            )
            _dense_tail(u, omega, ub, 1.0, cfg.delta, True, result)
    return result


RUNNERS = {
    "a1": run_approach1,
    "a2": run_approach2,
    "a3": run_approach3,
    "td": run_time_dependent,
}


def run_pipeline(h: TensorFactorHamiltonian, cfg: PipelineConfig) -> PipelineResult:
    return RUNNERS[cfg.approach](h, cfg)
