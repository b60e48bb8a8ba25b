import math

import numpy as np
import pytest

from kronsim.blockenc import BlockEncoding
from kronsim.errors import (
    CoefficientsMissing,
    InvalidFactor,
    NegativeEigenvalueProduct,
    NotCommuting,
)
from kronsim.ledger import amplification_rounds
from kronsim.linalg import expm_hermitian, kron_all, op_norm
from kronsim.model import (
    TimeCoefficient,
    assemble_dense,
    make_hamiltonian,
    make_term,
)
from kronsim.pipelines import (
    MCSampleRecord,
    PipelineConfig,
    run_pipeline,
    simplify_term,
)
from kronsim.qsvt import jacobi_anger
from oracles import expm_oracle

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def _cfg(**kw):
    kw.setdefault("approach", "a1")
    kw.setdefault("t", 1.0)
    kw.setdefault("delta", 1e-6)
    return PipelineConfig(**kw)


def psd_rank2(vals, vecs):
    out = np.zeros((4, 4), dtype=np.complex128)
    for lam, v in zip(vals, vecs):
        out += lam * np.outer(v, v.conj())
    return out


def psd_instance():
    """Two commuting single-slot terms with nonnegative spectra on d=4."""
    i4 = np.eye(4, dtype=np.complex128)
    v_full = np.ones(4, dtype=np.complex128) / 2.0
    v_pair = np.zeros(4, dtype=np.complex128)
    v_pair[0], v_pair[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    a = psd_rank2((0.3, 0.2), (v_full, v_pair))
    u_full = np.array([1, 1, -1, 1], dtype=np.complex128) / 2.0
    u_pair = np.zeros(4, dtype=np.complex128)
    u_pair[2], u_pair[3] = 1 / math.sqrt(2), 1 / math.sqrt(2)
    b = psd_rank2((0.25, 0.15), (u_full, u_pair))
    return make_hamiltonian([[a, i4], [i4, b]], enforce_norm=True)


def test_config_validation():
    with pytest.raises(InvalidFactor):
        _cfg(approach="a9")
    with pytest.raises(InvalidFactor):
        _cfg(delta=0.9)
    with pytest.raises(InvalidFactor):
        _cfg(approach="a2")  # no samples
    with pytest.raises(InvalidFactor):
        _cfg(approach="a2", mc_samples=16)  # no seed
    _cfg(approach="a2", mc_samples=16, mc_seed=0)


def test_simplify_term_reconstructs_dense(rng):
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = 0.2 * (h + h.conj().T)
    term = make_term([I2, h, I2, 0.5 * SZ])
    reduced, perm, gamma_prime = simplify_term(term)
    assert len(reduced) == 2
    assert perm == (1, 3, 0, 2)
    packed = list(reduced) + [I2, I2]
    rearranged = [None] * 4
    for pos, mat in enumerate(packed):
        rearranged[perm[pos]] = mat
    assert op_norm(kron_all(rearranged) - term.dense()) < 1e-13
    assert gamma_prime == pytest.approx(
        np.abs(np.linalg.eigvalsh(h)).sum() * np.abs(np.linalg.eigvalsh(0.5 * SZ)).sum()
    )


def test_a1_single_term_diagonal():
    h = make_hamiltonian([[0.5 * SZ, 0.5 * SZ]])
    t = 0.9
    res = run_pipeline(h, _cfg(t=t, delta=1e-9))
    want = np.diag(np.exp(-1j * t * np.array([0.25, -0.25, -0.25, 0.25])))
    assert op_norm(res.evolution_block - want) < 1e-8
    assert res.declared_err <= 1e-9 * 1.01
    assert op_norm(res.evolution_block - want) <= res.declared_err + 1e-9


def test_a1_t_zero_is_identity(tfim3):
    res = run_pipeline(tfim3, _cfg(t=0.0))
    assert op_norm(res.evolution_block - np.eye(8)) < 1e-12


def test_a1_matches_oracle(tfim3):
    t = 1.0
    res = run_pipeline(tfim3, _cfg(t=t, delta=1e-6))
    dense = assemble_dense(tfim3)
    want = expm_hermitian(dense, t)
    measured = op_norm(res.evolution_block - want)
    assert measured < 1e-5
    assert measured <= res.declared_err + 1e-9
    # cross-check against the scaling-and-squaring Taylor oracle
    assert op_norm(want - expm_oracle(dense, t)) < 1e-12


def test_a1_frozen_ledger(tfim3):
    res = run_pipeline(tfim3, _cfg(t=1.0, delta=1e-6, ledger_only=True))
    c = res.ledger.counters
    assert c["prep_unitary_queries"] == 28
    assert c["swap_ops"] == 4
    assert c["lcu_terms"] == 19
    assert c["amplification_rounds"] == 887
    assert c["poly_degree"] == 7
    assert c["be_queries"] == 927
    assert c["two_qubit_gates"] == 85
    assert c["ancilla_dims"] == 1024
    assert res.ledger.dominant_cost() == 198688
    assert res.evolution_block is None and res.measured_err is None


def test_a1_simplification_parity(tfim3):
    t, delta = 1.0, 1e-6
    on = run_pipeline(tfim3, _cfg(t=t, delta=delta))
    off = run_pipeline(tfim3, _cfg(t=t, delta=delta, use_simplification=False))
    # identical evolution operator either way
    assert op_norm(on.evolution_block - off.evolution_block) < 1e-9
    assert on.declared_err == pytest.approx(off.declared_err, rel=1e-6)
    # the reduced construction queries the prep oracles strictly less
    assert on.ledger.counters["prep_unitary_queries"] == 28
    assert off.ledger.counters["prep_unitary_queries"] == 80
    assert off.ledger.counters["swap_ops"] == 0
    assert on.ledger.counters["swap_ops"] <= tfim3.max_nontrivial() * tfim3.k


@pytest.mark.parametrize("approach,extra", [
    ("a1", {}),
    ("a2", {"mc_samples": 16, "mc_seed": 3}),
    ("td", {}),
])
def test_ledger_mode_parity(tfim3, td_pair, approach, extra):
    h = td_pair if approach == "td" else tfim3
    dense = run_pipeline(h, _cfg(approach=approach, t=0.8, delta=1e-4, **extra))
    ledger = run_pipeline(
        h, _cfg(approach=approach, t=0.8, delta=1e-4, ledger_only=True, **extra)
    )
    assert dense.ledger.counters == ledger.ledger.counters
    assert dense.ledger.dominant_cost() == ledger.ledger.dominant_cost()


@pytest.mark.parametrize("sparsity", [None, 2, 4])
def test_ledger_mode_parity_a3(sparsity):
    h = psd_instance()
    kw = dict(approach="a3", t=0.7, delta=1e-5, truncation_sparsity=sparsity)
    dense = run_pipeline(h, _cfg(**kw))
    ledger = run_pipeline(h, _cfg(ledger_only=True, **kw))
    assert dense.ledger.counters == ledger.ledger.counters
    # the deterministic ensembles are derived in both modes
    assert dense.factor_trace_dists == ledger.factor_trace_dists


def test_a2_deterministic(tfim3):
    cfg = _cfg(approach="a2", mc_samples=64, mc_seed=11, delta=1e-4)
    r1 = run_pipeline(tfim3, cfg)
    r2 = run_pipeline(tfim3, cfg)
    assert np.array_equal(r1.evolution_block, r2.evolution_block)
    assert r1.mc_records == r2.mc_records
    assert r1.mc_term_errors == r2.mc_term_errors


def test_a2_records_in_both_modes(tfim3):
    kw = dict(approach="a2", mc_samples=32, mc_seed=5, delta=1e-4)
    dense = run_pipeline(tfim3, _cfg(**kw))
    ledger = run_pipeline(tfim3, _cfg(ledger_only=True, **kw))
    assert dense.mc_records == ledger.mc_records
    assert ledger.mc_term_errors == {}
    # unsimplified draws extra identity indices without disturbing the
    # reduced-tuple stream's reproducibility within a mode
    full = run_pipeline(tfim3, _cfg(use_simplification=False, **kw))
    full2 = run_pipeline(
        tfim3, _cfg(use_simplification=False, ledger_only=True, **kw)
    )
    assert full.mc_records == full2.mc_records


def test_a2_record_invariants(tfim3):
    res = run_pipeline(tfim3, _cfg(approach="a2", mc_samples=40, mc_seed=2, delta=1e-4))
    for i, term in enumerate(tfim3.terms):
        records = res.mc_records[i]
        assert len(records) == 40
        ranks = [term.spectral[j].rank for j in sorted(term.nontrivial_set)]
        for j, rec in enumerate(records):
            assert isinstance(rec, MCSampleRecord)
            assert rec.sample_index == j
            assert rec.sign in (-1, 1)
            assert all(0 <= k < r for k, r in zip(rec.eigentuple, ranks))
            # halved Pauli factors: every tuple weight is gamma'-normalized
            expect = 0.25 if len(ranks) == 2 else 0.5
            assert rec.probability == pytest.approx(expect)
        assert i in res.mc_term_errors
        assert res.mc_srho_bounds[i] > 0


def test_a2_error_shrinks_with_samples(tfim3):
    def mean_err(n):
        vals = []
        for seed in range(10):
            r = run_pipeline(
                tfim3, _cfg(approach="a2", mc_samples=n, mc_seed=seed, delta=1e-3)
            )
            vals.append(max(r.mc_term_errors.values()))
        return float(np.mean(vals))

    assert mean_err(512) < mean_err(8)


def test_a2_declared_covers_measured(tfim3):
    res = run_pipeline(tfim3, _cfg(approach="a2", mc_samples=256, mc_seed=9, delta=1e-4))
    dense = assemble_dense(tfim3)
    got = op_norm(res.evolution_block - expm_hermitian(dense, 1.0))
    assert got <= res.declared_err + 1e-9


def test_a2_error_injection(tfim3):
    kw = dict(approach="a2", mc_samples=64, mc_seed=4, delta=1e-4)
    plain = run_pipeline(tfim3, _cfg(**kw))
    bumped = run_pipeline(tfim3, _cfg(inject_term_err=0.2, **kw))
    assert bumped.declared_err > plain.declared_err
    assert np.array_equal(bumped.evolution_block, plain.evolution_block)


def test_a2_injected_err_propagates_as_square_root():
    # rank-one factor: every sample draws the same eigen-tuple, so the
    # monte-carlo deviation is exactly zero and the injected term error is
    # the only input error.  declared_err then isolates the 4*p*sqrt(eps/alpha)
    # propagation term, which must scale as sqrt(eps).
    h = make_hamiltonian([[np.diag([0.4, 0.0]).astype(np.complex128)]])
    kw = dict(approach="a2", mc_samples=8, mc_seed=3, delta=1e-3)
    base = run_pipeline(h, _cfg(**kw)).declared_err
    d1 = run_pipeline(h, _cfg(inject_term_err=1e-4, **kw)).declared_err
    d2 = run_pipeline(h, _cfg(inject_term_err=1e-8, **kw)).declared_err
    assert (d1 - base) / (d2 - base) == pytest.approx(100.0, rel=1e-6)


def test_a2_never_amplifies_in_dense_mode(tfim3):
    # the nominal plan charges rounds, but the executed tail absorbs the
    # subnormalization into the polynomial time instead
    res = run_pipeline(tfim3, _cfg(approach="a2", mc_samples=16, mc_seed=1, delta=1e-4))
    assert res.ledger.counters["amplification_rounds"] == amplification_rounds(
        5.0, 0.1, 1e-4 / 10.0
    )
    # effective time = gamma_sum * t makes the result match the oracle anyway
    dense = assemble_dense(tfim3)
    got = op_norm(res.evolution_block - expm_hermitian(dense, 1.0))
    assert got < 1.0  # crude: 16 samples, still a contraction-level match


def test_a3_rejects_negative_products(tfim3):
    with pytest.raises(NegativeEigenvalueProduct) as info:
        run_pipeline(tfim3, _cfg(approach="a3"))
    assert info.value.stage == "term0"


def test_a3_exact_matches_a1():
    h = psd_instance()
    t, delta = 0.7, 1e-7
    a1 = run_pipeline(h, _cfg(t=t, delta=delta))
    a3 = run_pipeline(h, _cfg(approach="a3", t=t, delta=delta))
    assert op_norm(a3.evolution_block - a1.evolution_block) < 1e-10
    assert a3.truncation_delta is None
    want = expm_hermitian(assemble_dense(h), t)
    assert op_norm(a3.evolution_block - want) < 1e-5
    assert op_norm(a3.evolution_block - want) <= a3.declared_err + 1e-9


def test_a3_truncation_defect_bounded():
    h = psd_instance()
    res = run_pipeline(
        h, _cfg(approach="a3", t=0.5, delta=1e-5, truncation_sparsity=2)
    )
    assert res.truncation_delta is not None and res.truncation_delta > 0
    for i in range(h.k):
        assert res.term_trace_defects[i] <= res.truncation_delta + 1e-9
    # full-sparsity truncation is exact
    exact = run_pipeline(
        h, _cfg(approach="a3", t=0.5, delta=1e-5, truncation_sparsity=4)
    )
    assert exact.truncation_delta == pytest.approx(0.0, abs=1e-12)
    assert max(exact.term_trace_defects.values()) < 1e-9


def test_a3_factor_dists_keyed_by_slot():
    h = psd_instance()
    res = run_pipeline(
        h, _cfg(approach="a3", t=0.5, delta=1e-5, truncation_sparsity=2)
    )
    # keys: (term, original slot, eigenvector index)
    assert set(res.factor_trace_dists) == {(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)}
    # support-2 eigenvectors truncate exactly at s=2
    assert res.factor_trace_dists[(0, 0, 1)] == pytest.approx(0.0, abs=1e-12)
    assert res.factor_trace_dists[(0, 0, 0)] > 0


def test_td_matches_a1_for_constant_coefficients():
    const = TimeCoefficient("constant", (1.0,))
    h_td = make_hamiltonian(
        [[0.5 * SZ, I2], [I2, 0.5 * SZ]], coefficients=[const, const]
    )
    h_static = make_hamiltonian([[0.5 * SZ, I2], [I2, 0.5 * SZ]])
    # at t = 1 both paths build the same effective-time polynomial, so the
    # agreement is at float precision, not merely within delta
    t, delta = 1.0, 1e-8
    td = run_pipeline(h_td, _cfg(approach="td", t=t, delta=delta))
    a1 = run_pipeline(h_static, _cfg(t=t, delta=delta))
    assert op_norm(td.evolution_block - a1.evolution_block) < 1e-10


def test_td_matches_integrated_oracle(td_pair):
    from kronsim.model import assemble_weighted, integrate_coefficient

    t = math.pi / 2
    res = run_pipeline(td_pair, _cfg(approach="td", t=t, delta=1e-6))
    betas = [integrate_coefficient(c, t) for c in td_pair.coefficients]
    assert betas[0] == pytest.approx(math.sin(t))
    assert betas[1] == pytest.approx(t)
    want = expm_hermitian(assemble_weighted(td_pair, betas), 1.0)
    measured = op_norm(res.evolution_block - want)
    assert measured < 1e-5
    assert measured <= res.declared_err + 1e-9
    assert res.ledger.notes["rotation_wall_time_units"] == pytest.approx(t)


def test_td_rejects_noncommuting():
    const = TimeCoefficient("constant", (1.0,))
    h = make_hamiltonian(
        [[0.5 * SX, I2], [0.5 * SZ, I2]], coefficients=[const, const]
    )
    with pytest.raises(NotCommuting) as info:
        run_pipeline(h, _cfg(approach="td"))
    assert info.value.pair == (0, 1)
    assert info.value.norm == pytest.approx(0.5)


def test_td_requires_coefficients(tfim3):
    with pytest.raises(CoefficientsMissing):
        run_pipeline(tfim3, _cfg(approach="td"))


def test_stage_timings_populated(tfim3):
    res = run_pipeline(tfim3, _cfg())
    for name in ("term0", "term4", "combine", "transform"):
        assert name in res.timings
        assert res.timings[name] >= 0.0


def test_nominal_poly_degree_from_physical_time(tfim3):
    # the plan prices the polynomial at the physical t, not the inflated
    # effective time the dense path executes
    res = run_pipeline(tfim3, _cfg(t=2.0, delta=1e-6, ledger_only=True))
    pr, pi = jacobi_anger(2.0, 1e-6)
    assert res.ledger.counters["poly_degree"] == max(pr.degree, pi.degree)


DENSE_CASES = [
    ("tfim3", "a1", {}),
    ("tfim3", "a2", {"mc_samples": 32, "mc_seed": 5}),
    ("td_pair", "a1", {}),
    ("td_pair", "a2", {"mc_samples": 32, "mc_seed": 5}),
    ("td_pair", "td", {}),
    # a3 rejects both sample files (negative eigenvalue products)
    ("psd", "a3", {}),
]


@pytest.mark.parametrize("simplified", [True, False])
@pytest.mark.parametrize("name,approach,extra", DENSE_CASES)
def test_dense_runs_never_materialize(
    tfim3, td_pair, name, approach, extra, simplified, monkeypatch
):
    h = {"tfim3": tfim3, "td_pair": td_pair, "psd": psd_instance()}[name]
    cfg = _cfg(approach=approach, use_simplification=simplified, **extra)

    def refuse(self):
        raise AssertionError("a dense run materialized a unitary")

    with monkeypatch.context() as patch:
        patch.setattr(BlockEncoding, "unitary", property(refuse))
        lazy = run_pipeline(h, cfg)

    # Reference run: every encoding builds its unitary as it is constructed,
    # and its closed-form block must be that unitary's top-left block.
    built = []
    init = BlockEncoding.__init__

    def materializing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        s = self.system_dim
        assert op_norm(self.block() - self.unitary[:s, :s]) <= 1e-12
        built.append(self.ancilla_dim)

    with monkeypatch.context() as patch:
        patch.setattr(BlockEncoding, "__init__", materializing_init)
        forced = run_pipeline(h, cfg)
    assert max(built) > 1
    assert op_norm(lazy.evolution_block - forced.evolution_block) <= 1e-12
    assert lazy.declared_err == forced.declared_err
    assert lazy.ledger.counters == forced.ledger.counters
