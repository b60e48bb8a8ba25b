"""Block-encoding calculus, block first: eager top-left blocks, unitaries on demand.

A block encoding stands for a unitary on ancilla (x) system whose top-left
system-sized block, times the scale, approximates a target operator to the
declared err. Combinators below preserve that contract: dilation (exact
unitary completion of a contraction), products, tensor products with explicit
register regrouping, linear combinations via prepare-select-unprepare,
rescaling, amplification (emulated by exact re-dilation, costed by the query
formula), density operators from purifications, and slot permutations.

Each combinator computes the new block eagerly in closed form, by standard
block-encoding algebra (Gilyen-Su-Low-Wiebe, arXiv:1806.01838; LCU per
Childs-Wiebe, arXiv:1202.5822): A/scale for a dilation, B1 B2 for a product,
kron(B1, B2) for a tensor product, sum_i w_i B_i for an LCU, -B for a
negation, gamma B for amplification, the permuted block for a slot
permutation and the partial trace for a purification. The full unitary is
built only when `.unitary` is read (unitarity checks, tests): each combinator
keeps a materializer that runs the explicit dense construction on its inputs'
unitaries, once, and caches the result.

Register convention: ancilla is always the left tensor factor, and ancilla
registers concatenate left-to-right in composition order; an LCU's select
register goes leftmost. This fixes every materialized unitary entrywise,
which is what makes golden tests possible.

Combinators take an optional ledger for standalone accounting. Pipelines do
their own centralized accounting instead (single-writer rule), so they pass
no ledger here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AmplificationOverflow,
    BadPermutation,
    DimensionMismatch,
    InvalidFactor,
    MixedScales,
    NormExceedsScale,
    NotUnitary,
    WeightsNotNormalized,
)
from .ledger import ResourceLedger, amplification_rounds
from .linalg import (
    as_cmatrix,
    hermitian_op_norm,
    op_norm,
    partial_trace,
    require_square,
    unitary_completion,
)


def next_pow2(n: int) -> int:
    return 1 << max(0, n - 1).bit_length() if n > 1 else 1


@dataclass(frozen=True, init=False)
class BlockEncoding:
    """(scale, ancilla, err) encoding carried by its top-left block.

    top_left is the system-sized block of the encoding's unitary with the
    ancilla projected onto zero. The unitary itself is built by materialize,
    only when `unitary` is first read; ancilla_dim is the ancilla register's
    dimension either way.

    BlockEncoding(unitary, system_dim, ancilla_dim, scale, err, ledger_tag,
    target=...) wraps an explicit unitary and reads the block from it.
    Combinators pass top_left= and materialize= instead of a unitary.

    target, when attached, is the operator the encoding claims to hold:
    ||scale * block - target||_o <= err (+ numerical slack). Combinators
    propagate targets whenever every input carries one.
    """

    system_dim: int
    ancilla_dim: int
    scale: float
    err: float
    ledger_tag: str
    target: np.ndarray | None
    top_left: np.ndarray
    materialize: Callable[[], np.ndarray] = field(repr=False, compare=False)

    def __init__(
        self,
        unitary: np.ndarray | None = None,
        system_dim: int | None = None,
        ancilla_dim: int | None = None,
        scale: float | None = None,
        err: float | None = None,
        ledger_tag: str = "",
        target: np.ndarray | None = None,
        *,
        top_left: np.ndarray | None = None,
        materialize: Callable[[], np.ndarray] | None = None,
    ):
        if None in (system_dim, ancilla_dim, scale, err):
            raise TypeError("system_dim, ancilla_dim, scale and err are required")
        if unitary is not None:
            if top_left is not None or materialize is not None:
                raise TypeError("pass either a unitary or top_left with materialize")
            n = unitary.shape[0]
            if n != ancilla_dim * system_dim:
                raise DimensionMismatch(
                    f"unitary dim {n} != ancilla {ancilla_dim} * system {system_dim}"
                )
            top_left = unitary[:system_dim, :system_dim]
            materialize = lambda: unitary
        elif top_left is None or materialize is None:
            raise TypeError("pass either a unitary or top_left with materialize")
        elif top_left.shape != (system_dim, system_dim):
            raise DimensionMismatch(
                f"block shape {top_left.shape} != system dim {system_dim}"
            )
        fields = {
            "system_dim": system_dim,
            "ancilla_dim": ancilla_dim,
            "scale": scale,
            "err": err,
            "ledger_tag": ledger_tag,
            "target": target,
            "top_left": top_left,
            "materialize": materialize,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def unitary(self) -> np.ndarray:
        """The full ancilla (x) system unitary, built on first read."""
        return self.materialize()

    def block(self) -> np.ndarray:
        """Top-left system-sized block (ancilla projected onto zero)."""
        return self.top_left

    def encoded(self) -> np.ndarray:
        return self.scale * self.block()

    def unitarity_defect(self) -> float:
        u = self.unitary
        return hermitian_op_norm(u.conj().T @ u - np.eye(u.shape[0]))

    def target_defect(self) -> float:
        if self.target is None:
            raise ValueError("no target attached")
        return op_norm(self.encoded() - self.target)


def _from_block(
    top_left: np.ndarray,
    ancilla_dim: int,
    scale: float,
    err: float,
    tag: str,
    target: np.ndarray | None,
    build: Callable[[], np.ndarray],
) -> BlockEncoding:
    """Encoding with an eager block; build() makes its unitary once, on first read."""
    return BlockEncoding(
        system_dim=top_left.shape[0],
        ancilla_dim=ancilla_dim,
        scale=float(scale),
        err=err,
        ledger_tag=tag,
        target=target,
        top_left=top_left,
        materialize=functools.cache(build),
    )


def attach_target(u: BlockEncoding, target) -> BlockEncoding:
    return replace(u, target=as_cmatrix(target))


def be_with_scale(u: BlockEncoding, new_scale: float) -> BlockEncoding:
    """Reinterpret the encoding at a different scale.

    The unitary is untouched; the claim ||alpha*block - T|| <= err becomes
    ||alpha'*block - rho*T|| <= rho*err with rho = alpha'/alpha, so target and
    err rescale proportionally. Used to fold normalization factors discarded
    by convex LCU weights back into the scale.
    """
    if new_scale <= 0:
        raise InvalidFactor(f"scale must be positive, got {new_scale}")
    rho = new_scale / u.scale
    target = None if u.target is None else rho * u.target
    return replace(u, scale=float(new_scale), err=rho * u.err, target=target)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def dilate(
    a_mat,
    scale: float,
    ledger: ResourceLedger | None = None,
    tag: str = "dilate",
) -> BlockEncoding:
    """Exact encoding of a_mat at the given scale by 2x2-block completion."""
    a = require_square(a_mat)
    if scale <= 0:
        raise InvalidFactor(f"scale must be positive, got {scale}")
    tilde = a / scale
    norm = op_norm(tilde)
    if norm > 1.0 + 1e-9:
        raise NormExceedsScale(f"||A/scale|| = {norm:.12f} exceeds 1")
    err = 0.0
    if norm > 1.0:
        # Floating-point drift just over the contraction boundary: shrink and
        # charge the shift to err so the contract stays an upper bound.
        tilde = tilde / norm
        err = (norm - 1.0) * scale
    n = a.shape[0]

    def build():
        eye = np.eye(n, dtype=np.complex128)
        upper = _psd_sqrt(eye - tilde @ tilde.conj().T)
        lower = _psd_sqrt(eye - tilde.conj().T @ tilde)
        return np.block([[tilde, upper], [lower, -tilde.conj().T]])

    if ledger is not None:
        ledger.record(tag, ancilla_dims=2)
    return _from_block(tilde, 2, scale, err, tag, a, build)


def zero_encoding(system_dim: int, scale: float) -> BlockEncoding:
    """Exact encoding of the zero operator (an ancilla-system swap)."""
    zero = np.zeros((system_dim, system_dim), dtype=np.complex128)

    def build():
        eye = np.eye(system_dim, dtype=np.complex128)
        return np.block([[zero, eye], [eye, zero]])

    return _from_block(zero, 2, scale, 0.0, "zero", zero, build)


def pad_ancilla(u: BlockEncoding, target_dim: int) -> BlockEncoding:
    """Grow the ancilla to target_dim by tensoring identity on the left."""
    if target_dim == u.ancilla_dim:
        return u
    q, r = divmod(target_dim, u.ancilla_dim)
    if r != 0 or q < 1:
        raise DimensionMismatch(
            f"cannot pad ancilla {u.ancilla_dim} to {target_dim}"
        )

    def build():
        return np.kron(np.eye(q, dtype=np.complex128), u.unitary)

    return replace(u, ancilla_dim=target_dim, materialize=functools.cache(build))


def be_negate(u: BlockEncoding) -> BlockEncoding:
    """Flip the encoded block's sign by reflecting about the ancilla zero state."""

    def build():
        # Rows with ancilla index 0 are exactly the first system_dim rows.
        reflected = u.unitary.copy()
        reflected[: u.system_dim, :] *= -1.0
        return reflected

    target = None if u.target is None else -u.target
    return replace(
        u, top_left=-u.block(), target=target, materialize=functools.cache(build)
    )


def _regroup_indices(a1: int, s1: int, a2: int, s2: int) -> np.ndarray:
    """new (a1,a2,s1,s2) index -> old (a1,s1,a2,s2) linear index."""
    return (
        np.arange(a1 * s1 * a2 * s2)
        .reshape(a1, s1, a2, s2)
        .transpose(0, 2, 1, 3)
        .ravel()
    )


def _tensor_pair(u1: BlockEncoding, u2: BlockEncoding) -> BlockEncoding:
    def build():
        raw = np.kron(u1.unitary, u2.unitary)
        idx = _regroup_indices(u1.ancilla_dim, u1.system_dim, u2.ancilla_dim, u2.system_dim)
        return raw[np.ix_(idx, idx)]

    target = None
    if u1.target is not None and u2.target is not None:
        target = np.kron(u1.target, u2.target)
    err = u1.scale * u2.err + u2.scale * u1.err + u1.err * u2.err
    return _from_block(
        np.kron(u1.block(), u2.block()),
        u1.ancilla_dim * u2.ancilla_dim,
        u1.scale * u2.scale,
        err,
        f"({u1.ledger_tag})x({u2.ledger_tag})",
        target,
        build,
    )


def be_tensor(us: list[BlockEncoding], ledger: ResourceLedger | None = None) -> BlockEncoding:
    """Encoding of the Kronecker product, with registers regrouped explicitly."""
    if not us:
        raise DimensionMismatch("be_tensor needs at least one encoding")
    out = us[0]
    for u in us[1:]:
        out = _tensor_pair(out, u)
    if ledger is not None:
        ledger.record("tensor", be_queries=len(us), ancilla_dims=out.ancilla_dim)
    return out


def be_product(
    u1: BlockEncoding, u2: BlockEncoding, ledger: ResourceLedger | None = None
) -> BlockEncoding:
    """Encoding of A1 A2 with scale alpha1*alpha2 and err alpha1*eps2 + alpha2*eps1."""
    if u1.system_dim != u2.system_dim:
        raise DimensionMismatch(
            f"system dims differ: {u1.system_dim} vs {u2.system_dim}"
        )
    a1, a2, s = u1.ancilla_dim, u2.ancilla_dim, u1.system_dim

    def build():
        # Lift U1 to (anc1, anc2, sys) with anc2 spectator; U2 lifts directly.
        idx = np.arange(a1 * s * a2).reshape(a1, s, a2).transpose(0, 2, 1).ravel()
        lifted1 = np.kron(u1.unitary, np.eye(a2, dtype=np.complex128))[np.ix_(idx, idx)]
        lifted2 = np.kron(np.eye(a1, dtype=np.complex128), u2.unitary)
        return lifted1 @ lifted2

    target = None
    if u1.target is not None and u2.target is not None:
        target = u1.target @ u2.target
    if ledger is not None:
        ledger.record("product", be_queries=2, ancilla_dims=a1 * a2)
    return _from_block(
        u1.block() @ u2.block(),
        a1 * a2,
        u1.scale * u2.scale,
        u1.scale * u2.err + u2.scale * u1.err,
        f"({u1.ledger_tag})*({u2.ledger_tag})",
        target,
        build,
    )


def be_lcu(
    us: list[BlockEncoding],
    weights,
    ledger: ResourceLedger | None = None,
    tag: str = "lcu",
) -> BlockEncoding:
    """Convex combination sum w_i A_i via prepare-select-unprepare.

    Weights must be nonnegative and sum to one (fold signs into the
    encodings first, e.g. with be_negate); scales must already agree.
    """
    if not us:
        raise DimensionMismatch("be_lcu needs at least one encoding")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != len(us):
        raise WeightsNotNormalized("one weight per encoding required")
    if np.any(w < -1e-15):
        raise WeightsNotNormalized("weights must be nonnegative")
    w = np.clip(w, 0.0, None)
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise WeightsNotNormalized(f"weights sum to {w.sum():.15f}, expected 1")
    us = tuple(us)  # the materializer may run after the caller's list has changed
    s = us[0].system_dim
    scale = us[0].scale
    for u in us:
        if u.system_dim != s:
            raise DimensionMismatch("mixed system dims in be_lcu")
        if abs(u.scale - scale) > 1e-12 * max(1.0, abs(scale)):
            raise MixedScales(f"scales {scale} vs {u.scale}; pre-normalize via be_rescale")

    common_anc = 1
    for u in us:
        common_anc = math.lcm(common_anc, u.ancilla_dim)
    sel = next_pow2(len(us))

    def build():
        padded = [pad_ancilla(u, common_anc) for u in us]
        sub = common_anc * s
        stack = np.empty((sel, sub, sub), dtype=np.complex128)
        for i in range(sel):
            stack[i] = padded[i].unitary if i < len(us) else np.eye(sub)
        amplitudes = np.zeros(sel, dtype=np.complex128)
        amplitudes[: len(us)] = np.sqrt(w)
        prep = unitary_completion(amplitudes)

        # W = (prep^dag (x) I) SELECT (prep (x) I), assembled blockwise:
        # block (a, c) = sum_b conj(prep[b, a]) prep[b, c] U_b.
        return np.einsum(
            "ba,bc,bxy->axcy", prep.conj(), prep, stack, optimize=True
        ).reshape(sel * sub, sel * sub)

    # W's top-left block is sum_b |prep[b, 0]|^2 B_b = sum_b w_b B_b, since
    # prep's first column is sqrt(w).
    block = np.tensordot(w, np.stack([u.block() for u in us]), axes=1)
    target = None
    if all(u.target is not None for u in us):
        target = sum(wi * u.target for wi, u in zip(w, us))
    err = float(np.dot(w, [u.err for u in us]))
    if ledger is not None:
        ledger.record(tag, lcu_terms=len(us), be_queries=len(us), ancilla_dims=sel * common_anc)
    return _from_block(block, sel * common_anc, scale, err, tag, target, build)


def be_rescale(
    u: BlockEncoding, p: float, ledger: ResourceLedger | None = None
) -> BlockEncoding:
    """Encoding of A/p at the same scale: LCU of u against a zero block."""
    if p <= 1.0:
        raise InvalidFactor(f"rescale factor must exceed 1, got {p}")
    zero = zero_encoding(u.system_dim, u.scale)
    if u.target is not None:
        zero = attach_target(zero, np.zeros_like(u.target))
    out = be_lcu([u, zero], [1.0 / p, 1.0 - 1.0 / p], ledger=ledger, tag="rescale")
    return replace(out, ledger_tag=f"rescale({u.ledger_tag})")


def be_amplify(
    u: BlockEncoding,
    gamma: float,
    delta: float,
    eps: float,
    ledger: ResourceLedger | None = None,
) -> BlockEncoding:
    """Scale the encoded block up by gamma.

    Dense emulation re-dilates gamma times the measured block exactly; the
    ledger is charged the query count of the alternating phase-modulation
    sequence, m = ceil((gamma/delta) ln(gamma/eps)).
    """
    if gamma <= 1.0:
        raise InvalidFactor(f"amplification factor must exceed 1, got {gamma}")
    if not (0.0 < delta < 1.0):
        raise InvalidFactor(f"delta must lie in (0,1), got {delta}")
    block = u.block()
    norm = op_norm(block)
    if u.target is not None:
        norm = max(norm, op_norm(u.target) / u.scale)
    if gamma * norm > 1.0 - delta + 1e-9:
        raise AmplificationOverflow(
            f"gamma*||block|| = {gamma * norm:.6f} exceeds 1 - delta = {1.0 - delta:.6f}"
        )
    m = amplification_rounds(gamma, delta, eps)
    if ledger is not None:
        ledger.record(
            "amplify",
            amplification_rounds=m,
            be_queries=m,
            ancilla_dims=2 * u.ancilla_dim,
        )
    out = dilate(gamma * block, 1.0, tag=f"amplify({u.ledger_tag})")
    target = None if u.target is None else gamma * u.target / u.scale
    return replace(out, err=gamma * u.err + out.err, target=target)


def be_density_from_purification(
    prep, traced_dim: int, ledger: ResourceLedger | None = None, tag: str = "density"
) -> BlockEncoding:
    """Exact encoding of rho = Tr_traced |phi><phi| where |phi> = prep e0.

    prep acts on traced (x) system; the constructed unitary acts on
    (traced (x) system) (x) system', uses prep and its adjoint once each plus
    a system swap, and its top-left system block is exactly rho.
    """
    prep = require_square(prep)
    total = prep.shape[0]
    defect = hermitian_op_norm(prep.conj().T @ prep - np.eye(total))
    if defect > 1e-10:
        raise NotUnitary(f"prep unitarity defect {defect:.3e}")
    if traced_dim < 1 or total % traced_dim != 0:
        raise DimensionMismatch(f"traced dim {traced_dim} does not divide {total}")
    sys = total // traced_dim

    def build():
        lifted = np.kron(prep, np.eye(sys, dtype=np.complex128))
        idx = np.arange(total * sys).reshape(traced_dim, sys, sys).transpose(0, 2, 1).ravel()
        return lifted.conj().T @ lifted[idx, :]

    phi = prep[:, 0]
    rho = partial_trace(np.outer(phi, phi.conj()), sys, traced_dim, "left")
    if ledger is not None:
        ledger.record(
            tag,
            prep_unitary_queries=2,
            two_qubit_gates=max(1, math.ceil(math.log2(sys))),
            ancilla_dims=total,
        )
    return _from_block(rho, total, 1.0, 0.0, tag, rho, build)


def slot_permutation_matrix(perm, d: int) -> np.ndarray:
    """Unitary placing the content of slot i at slot perm[i] on (C^d)^(x)M."""
    m = len(perm)
    if sorted(perm) != list(range(m)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{m - 1}")
    dims = (d,) * m
    digits = np.array(np.unravel_index(np.arange(d**m), dims))
    placed = np.empty_like(digits)
    for i, p in enumerate(perm):
        placed[p] = digits[i]
    new_lin = np.ravel_multi_index(tuple(placed), dims)
    mat = np.zeros((d**m, d**m), dtype=np.complex128)
    mat[new_lin, np.arange(d**m)] = 1.0
    return mat


def swap_count(perm, movable=None) -> int:
    """Transpositions needed to realize perm, placing only `movable` contents.

    Slots outside movable hold interchangeable content (identity factors), so
    a swap that parks one movable item counts once and the shuffle of the
    rest is free. Bounded by len(movable).
    """
    m = len(perm)
    movable = range(m) if movable is None else sorted(movable)
    slot_of = list(range(m))  # content i currently at slot i
    content_at = list(range(m))
    count = 0
    for i in movable:
        cur, tgt = slot_of[i], perm[i]
        if cur == tgt:
            continue
        other = content_at[tgt]
        slot_of[i], slot_of[other] = tgt, cur
        content_at[tgt], content_at[cur] = i, other
        count += 1
    return count


def be_swap_permute(
    u: BlockEncoding,
    perm,
    d: int,
    ledger: ResourceLedger | None = None,
    movable=None,
) -> BlockEncoding:
    """Conjugate the encoded block by the slot-permutation unitary."""
    m = len(perm)
    if d**m != u.system_dim:
        raise BadPermutation(
            f"system dim {u.system_dim} is not d^M = {d}^{m}"
        )
    p = slot_permutation_matrix(perm, d)
    # (I (x) P) U (I (x) P)^dag via index arrays: full[i] = anc * sys + pinv(x)
    new_lin = np.argmax(p, axis=0)  # content-placement map: e_b -> e_{new_lin[b]}
    pinv = np.empty_like(new_lin)
    pinv[new_lin] = np.arange(u.system_dim)

    def build():
        full = (
            np.arange(u.ancilla_dim)[:, None] * u.system_dim + pinv[None, :]
        ).ravel()
        return u.unitary[np.ix_(full, full)]

    target = None if u.target is None else p @ u.target @ p.conj().T
    if ledger is not None:
        ledger.record("swap", swap_ops=swap_count(perm, movable))
    return _from_block(
        u.block()[np.ix_(pinv, pinv)],
        u.ancilla_dim,
        u.scale,
        u.err,
        f"perm({u.ledger_tag})",
        target,
        build,
    )
