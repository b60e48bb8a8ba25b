import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronsim.blockenc import (
    BlockEncoding,
    attach_target,
    be_amplify,
    be_density_from_purification,
    be_lcu,
    be_negate,
    be_product,
    be_rescale,
    be_swap_permute,
    be_tensor,
    be_with_scale,
    dilate,
    next_pow2,
    pad_ancilla,
    slot_permutation_matrix,
    swap_count,
    zero_encoding,
)
from kronsim.errors import (
    AmplificationOverflow,
    BadPermutation,
    DimensionMismatch,
    InvalidFactor,
    MixedScales,
    NormExceedsScale,
    NotUnitary,
    WeightsNotNormalized,
)
from kronsim.ledger import ResourceLedger, amplification_rounds
from kronsim.linalg import kron_all, op_norm, unitary_completion
from kronsim.qsvt import apply_poly, jacobi_anger
from oracles import random_hermitian, random_unit, random_unitary


def _rand_contraction(rng, n, norm=0.8):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return norm * a / np.linalg.norm(a, 2)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]


def test_dilate_exact_block(rng):
    a = _rand_contraction(rng, 3, norm=1.2)
    u = dilate(a, 2.0)
    assert u.ancilla_dim == 2 and u.system_dim == 3
    assert u.unitarity_defect() < 1e-12
    assert op_norm(u.block() - a / 2.0) < 1e-13
    assert op_norm(u.encoded() - a) < 1e-13
    assert u.err == 0.0
    assert op_norm(u.target - a) == 0.0


def test_dilate_rejects_oversized():
    with pytest.raises(NormExceedsScale):
        dilate(np.eye(2) * 3.0, 2.0)


def test_dilate_boundary_shrink():
    # norm within the 1e-9 slack of the scale: shrunk, drift declared as err
    a = np.eye(2) * (1.0 + 5e-10)
    u = dilate(a, 1.0)
    assert u.unitarity_defect() < 1e-12
    assert 0.0 < u.err < 2e-9
    assert op_norm(u.scale * u.block() - a) <= u.err + 1e-15


def test_block_encoding_shape_validation():
    with pytest.raises(DimensionMismatch):
        BlockEncoding(np.eye(6), system_dim=4, ancilla_dim=2, scale=1.0, err=0.0)


def test_zero_encoding_and_pad():
    z = zero_encoding(3, 2.0)
    assert op_norm(z.block()) == 0.0
    assert z.unitarity_defect() < 1e-12
    padded = pad_ancilla(z, 8)
    assert padded.ancilla_dim == 8
    assert op_norm(padded.block()) == 0.0
    with pytest.raises(DimensionMismatch):
        pad_ancilla(z, 3)


def test_negate_flips_block(rng):
    a = _rand_contraction(rng, 3)
    u = dilate(a, 1.0)
    n = be_negate(u)
    assert op_norm(n.block() + a) < 1e-13
    assert n.unitarity_defect() < 1e-12
    assert op_norm(n.target + a) == 0.0


def test_with_scale_relabels_claim(rng):
    a = _rand_contraction(rng, 3, norm=0.5)
    u = dilate(a, 1.0)
    u = BlockEncoding(u.unitary, u.system_dim, u.ancilla_dim, u.scale, 1e-3, target=a)
    v = be_with_scale(u, 2.0)
    assert v.scale == 2.0
    assert op_norm(v.block() - u.block()) == 0.0  # same matrix, new claim
    assert v.err == pytest.approx(2e-3)
    assert op_norm(v.target - 2.0 * a) < 1e-13
    with pytest.raises(InvalidFactor):
        be_with_scale(u, 0.0)


def test_tensor_blocks_multiply(rng):
    a = _rand_contraction(rng, 2)
    b = _rand_contraction(rng, 3)
    u = be_tensor([dilate(a, 1.0), dilate(b, 2.0)])
    assert u.system_dim == 6
    assert u.ancilla_dim == 4
    assert u.scale == 2.0
    assert u.unitarity_defect() < 1e-12
    assert op_norm(u.block() - np.kron(a, b / 2.0)) < 1e-12
    assert op_norm(u.target - np.kron(a, b)) < 1e-12


def test_tensor_error_propagation(rng):
    a = _rand_contraction(rng, 2)
    u1 = dilate(a, 1.0)
    u1 = BlockEncoding(u1.unitary, 2, 2, 1.0, 0.01, target=a)
    u2 = dilate(a, 2.0)
    u2 = BlockEncoding(u2.unitary, 2, 2, 2.0, 0.02, target=a)
    out = be_tensor([u1, u2])
    assert out.err == pytest.approx(1.0 * 0.02 + 2.0 * 0.01 + 0.01 * 0.02)


def test_product_composes_blocks(rng):
    a = _rand_contraction(rng, 3)
    b = _rand_contraction(rng, 3)
    u = be_product(dilate(a, 1.5), dilate(b, 1.0))
    assert u.scale == 1.5
    assert u.unitarity_defect() < 1e-12
    assert op_norm(u.block() - (a / 1.5) @ b) < 1e-12
    assert op_norm(u.target - a @ b) < 1e-12


def test_product_tensor_metamorphic(rng):
    # (A (x) B) @ (C (x) D) = AC (x) BD through the combinators
    mats = [_rand_contraction(rng, 2) for _ in range(4)]
    a, b, c, d = mats
    left = be_tensor([dilate(a, 1.0), dilate(b, 1.0)])
    right = be_tensor([dilate(c, 1.0), dilate(d, 1.0)])
    u = be_product(left, right)
    assert op_norm(u.block() - np.kron(a @ c, b @ d)) < 1e-12
    assert u.unitarity_defect() < 1e-11


def test_lcu_convex_combination(rng):
    blocks = [_rand_contraction(rng, 3) for _ in range(3)]
    encs = [dilate(m, 1.0) for m in blocks]
    w = np.array([0.5, 0.25, 0.25])
    u = be_lcu(encs, w)
    assert u.unitarity_defect() < 1e-11
    want = sum(wi * m for wi, m in zip(w, blocks))
    assert op_norm(u.block() - want) < 1e-12
    assert op_norm(u.target - want) < 1e-12
    assert u.err == 0.0


def test_lcu_error_is_weighted_sum(rng):
    e1 = dilate(_rand_contraction(rng, 2), 1.0)
    e1 = BlockEncoding(e1.unitary, 2, 2, 1.0, 0.1, target=e1.target)
    e2 = dilate(_rand_contraction(rng, 2), 1.0)
    e2 = BlockEncoding(e2.unitary, 2, 2, 1.0, 0.3, target=e2.target)
    u = be_lcu([e1, e2], [0.75, 0.25])
    assert u.err == pytest.approx(0.75 * 0.1 + 0.25 * 0.3)


def test_lcu_rejections(rng):
    e1 = dilate(_rand_contraction(rng, 2), 1.0)
    e2 = dilate(_rand_contraction(rng, 2), 2.0)
    with pytest.raises(WeightsNotNormalized):
        be_lcu([e1, e1], [0.5, 0.4])
    with pytest.raises(WeightsNotNormalized):
        be_lcu([e1, e1], [1.5, -0.5])
    with pytest.raises(MixedScales):
        be_lcu([e1, e2], [0.5, 0.5])


def test_lcu_mixed_ancillas_pad_to_lcm(rng):
    a = _rand_contraction(rng, 2)
    b = _rand_contraction(rng, 2)
    u1 = dilate(a, 1.0)  # ancilla 2
    u2 = be_tensor([dilate(b, 1.0), dilate(np.eye(2) * 0.5, 1.0)])  # ancilla 4, sys 4
    u1b = be_tensor([u1, dilate(np.eye(2) * 0.5, 1.0)])  # ancilla 4, sys 4
    out = be_lcu([u1b, u2], [0.5, 0.5])
    assert out.system_dim == 4
    assert out.unitarity_defect() < 1e-11


def test_rescale_divides_block(rng):
    a = _rand_contraction(rng, 3)
    u = dilate(a, 1.0)
    v = be_rescale(u, 4.0)
    assert v.scale == 1.0
    assert op_norm(v.block() - a / 4.0) < 1e-12
    assert op_norm(v.target - a / 4.0) < 1e-12
    assert v.unitarity_defect() < 1e-11
    with pytest.raises(InvalidFactor):
        be_rescale(u, 1.0)


def test_amplify_scales_block(rng):
    a = _rand_contraction(rng, 3, norm=0.3)
    u = dilate(a, 1.0)
    led = ResourceLedger()
    v = be_amplify(u, 2.0, 0.1, 1e-6, ledger=led)
    assert op_norm(v.block() - 2.0 * a) < 1e-12
    assert v.scale == 1.0
    assert op_norm(v.target - 2.0 * a) < 1e-12
    # nominal round count, frozen from ceil((gamma/delta) ln(gamma/eps))
    assert led.counters["amplification_rounds"] == 291
    assert amplification_rounds(2.0, 0.1, 1e-6) == 291
    assert amplification_rounds(1.0, 0.1, 1e-6) == 0


def test_amplify_err_scales(rng):
    a = _rand_contraction(rng, 3, norm=0.3)
    u = dilate(a, 1.0)
    u = BlockEncoding(u.unitary, 3, 2, 1.0, 1e-4, target=a)
    v = be_amplify(u, 2.0, 0.1, 1e-6)
    assert v.err >= 2.0 * 1e-4


def test_amplify_overflow():
    a = np.eye(2) * 0.6
    u = dilate(a, 1.0)
    with pytest.raises(AmplificationOverflow):
        be_amplify(u, 2.0, 0.1, 1e-6)  # 2 * 0.6 > 1 - 0.1
    with pytest.raises(InvalidFactor):
        be_amplify(u, 0.5, 0.1, 1e-6)
    with pytest.raises(InvalidFactor):
        be_amplify(u, 2.0, 1.5, 1e-6)


def test_density_from_purification_matches_partial_trace(rng):
    traced, sys = 3, 4
    phi = random_unit(rng, traced * sys)
    prep = unitary_completion(phi)
    led = ResourceLedger()
    u = be_density_from_purification(prep, traced, ledger=led)
    mat = phi.reshape(traced, sys)
    rho = np.zeros((sys, sys), dtype=np.complex128)
    for a in range(traced):
        rho += np.outer(mat[a], mat[a].conj())
    assert u.scale == 1.0 and u.err == 0.0
    assert u.unitarity_defect() < 1e-12
    assert op_norm(u.block() - rho) < 1e-12
    assert op_norm(u.target - rho) < 1e-12
    assert led.counters["prep_unitary_queries"] == 2


def test_density_projector_for_product_state(rng):
    # traced register of dim 1: the block is the pure projector itself
    v = random_unit(rng, 4)
    u = be_density_from_purification(unitary_completion(v), 1)
    assert op_norm(u.block() - np.outer(v, v.conj())) < 1e-12


def test_density_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        be_density_from_purification(np.ones((4, 4)), 2)


def test_slot_permutation_matrix_moves_factors(rng):
    d = 2
    mats = [random_hermitian(rng, d) for _ in range(3)]
    perm = (2, 0, 1)  # content of slot i goes to slot perm[i]
    p = slot_permutation_matrix(perm, d)
    lhs = p @ kron_all(mats) @ p.conj().T
    rearranged = [None] * 3
    for i, mat in enumerate(mats):
        rearranged[perm[i]] = mat
    assert op_norm(lhs - kron_all(rearranged)) < 1e-12
    with pytest.raises(BadPermutation):
        slot_permutation_matrix((0, 0, 1), d)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_swap_permute_conjugates(seed):
    rng = np.random.default_rng(seed)
    d = 2
    m = 3
    perm = tuple(rng.permutation(m))
    mats = [random_hermitian(rng, d, scale=0.5) for _ in range(m)]
    u = dilate(kron_all(mats), 1.0)
    v = be_swap_permute(u, perm, d)
    rearranged = [None] * m
    for i, mat in enumerate(mats):
        rearranged[perm[i]] = mat
    assert op_norm(v.block() - kron_all(rearranged)) < 1e-12
    assert v.unitarity_defect() < 1e-11


def test_swap_count_bounds():
    assert swap_count((0, 1, 2)) == 0
    assert swap_count((1, 0, 2)) == 1
    assert swap_count((1, 2, 0)) == 2
    # with a movable set, the count never exceeds its size
    assert swap_count((1, 0, 2), movable={0}) <= 1
    assert swap_count((2, 0, 1), movable={0}) <= 1


def test_swap_permute_rejects_bad_shapes(rng):
    u = dilate(_rand_contraction(rng, 6), 1.0)
    with pytest.raises(BadPermutation):
        be_swap_permute(u, (1, 0), 2)  # 2^2 != 6


def test_attach_target_roundtrip(rng):
    a = _rand_contraction(rng, 2)
    u = dilate(a, 1.0)
    v = attach_target(u, 2.0 * a)
    assert op_norm(v.target - 2.0 * a) == 0.0
    assert v.target_defect() == pytest.approx(op_norm(a - 2.0 * a))


def test_unitarity_through_combinator_chain(rng):
    # every construction stays within 1e-10 of unitary
    a = dilate(_rand_contraction(rng, 2), 1.0)
    b = dilate(_rand_contraction(rng, 2), 1.0)
    chain = be_lcu(
        [be_tensor([a, b]), be_tensor([b, a])],
        [0.5, 0.5],
    )
    chain = be_product(chain, be_tensor([a, b]))
    chain = be_rescale(chain, 2.0)
    assert chain.unitarity_defect() < 1e-10


def test_claim_holds_on_random_encodings(rng):
    # ||scale * block - target|| <= err for exact dilations and their sums
    for _ in range(20):
        a = _rand_contraction(rng, 3, norm=1.5)
        u = dilate(a, 2.0)
        assert op_norm(u.scale * u.block() - u.target) <= u.err + 1e-9
        v = be_lcu([u, dilate(-a, 2.0)], [0.5, 0.5])
        assert op_norm(v.scale * v.block() - v.target) <= v.err + 1e-9


def _two_slot_tensor(rng):
    a = dilate(_rand_contraction(rng, 2), 1.0)
    b = be_negate(dilate(_rand_contraction(rng, 2), 1.0))
    return be_tensor([a, b])


# Each case builds an encoding through one combinator (inputs with unequal
# ancillas where the combinator regroups or pads registers).
BLOCK_CASES = {
    "dilate": lambda rng: dilate(_rand_contraction(rng, 3, norm=1.2), 2.0),
    "dilate-shrink": lambda rng: dilate(np.eye(2) * (1.0 + 5e-10), 1.0),
    "zero": lambda rng: zero_encoding(3, 2.0),
    "pad": lambda rng: pad_ancilla(dilate(_rand_contraction(rng, 3), 1.0), 6),
    "negate": lambda rng: be_negate(dilate(_rand_contraction(rng, 3), 1.0)),
    "tensor": lambda rng: be_tensor(
        [dilate(_rand_contraction(rng, 2), 1.0), zero_encoding(1, 1.0), _two_slot_tensor(rng)]
    ),
    "product": lambda rng: be_product(
        dilate(_rand_contraction(rng, 4), 1.5), _two_slot_tensor(rng)
    ),
    "lcu": lambda rng: be_lcu(
        [dilate(_rand_contraction(rng, 4), 1.0), _two_slot_tensor(rng), zero_encoding(4, 1.0)],
        [0.5, 0.3, 0.2],
    ),
    "rescale": lambda rng: be_rescale(dilate(_rand_contraction(rng, 3), 1.0), 4.0),
    "amplify": lambda rng: be_amplify(
        be_rescale(dilate(_rand_contraction(rng, 3, norm=0.6), 1.0), 2.0), 1.5, 0.1, 1e-6
    ),
    "swap": lambda rng: be_swap_permute(
        be_tensor([_two_slot_tensor(rng), dilate(_rand_contraction(rng, 2), 1.0)]), (2, 0, 1), 2
    ),
    "density": lambda rng: be_density_from_purification(
        unitary_completion(random_unit(rng, 12)), 3
    ),
    "apply_poly": lambda rng: apply_poly(
        be_rescale(dilate(random_hermitian(rng, 4, scale=0.45), 1.0), 1.5),
        *jacobi_anger(1.3, 1e-8),
    ),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_matches_materialized_unitary(case, rng, monkeypatch):
    def refuse(self):
        raise AssertionError("unitary materialized while building the block")

    # The closed-form block is computed without building any unitary.
    with monkeypatch.context() as patch:
        patch.setattr(BlockEncoding, "unitary", property(refuse))
        u = BLOCK_CASES[case](rng)
        block = u.block()
    s = u.system_dim
    full = u.unitary
    assert full.shape == (u.ancilla_dim * s, u.ancilla_dim * s)
    assert block.shape == (s, s)
    assert op_norm(block - full[:s, :s]) <= 1e-12
    assert u.unitarity_defect() < 1e-10
    assert u.unitary is full  # built once, then cached
