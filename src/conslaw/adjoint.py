"""Formal adjoints and factorizations L* = A2 . R . L . R . A1^{-1}.

The formal adjoint for the complex L2 pairing is
``L* = sum_a (-1)^{|a|} (M_a)^dagger D^a``.  For a square operator whose
coefficients satisfy a simultaneous similarity ``(M_a)^dagger = A2 M_a A1^{-1}``
(possibly with an extra per-order sign absorbed), the adjoint factors through
constant matrices and a variable reflection R, and every symmetry of the
operator then yields a conservation law downstream.

The solver treats two variants of the coefficient similarity:

* plain:  ``(M_a)^dagger A1 = A2 M_a`` for every a.  The factorization then
  needs the reflection R of all variables (R absorbs the (-1)^{|a|} signs),
  so ``parity_mask`` is all-True.
* sign-absorbed:  ``(M_a)^dagger A1 = (-1)^{|a|} A2 M_a``.  No reflection is
  needed (``parity_mask`` all-False) and ``L* = A2 L A1^{-1}`` directly.

The sign-absorbed variant is preferred when it exists since the resulting
conserved densities are local in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import frobenius_norms
from .opcore import ConstCoeffOperator, midx_order

__all__ = [
    "formal_adjoint",
    "transpose_adjoint",
    "classify_adjointness",
    "ConjugacyPair",
    "AdjointFactorization",
    "SemiConjugacyNotFound",
    "semi_conjugacy_solve",
    "clifford_conjugators",
    "adjoint_factorization",
]


def formal_adjoint(L):
    """Adjoint for the complex L2 inner product: transpose, conjugate, sign."""
    terms = {
        alpha: (-1) ** midx_order(alpha) * mat.conj().T for alpha, mat in L.terms.items()
    }
    return ConstCoeffOperator(L.nvars, (L.cols, L.rows), terms)


def transpose_adjoint(L):
    """Adjoint without complex conjugation (the bilinear pairing's adjoint).

    Coincides with :func:`formal_adjoint` for real coefficients.  This is the
    operator entering the bilinear divergence identity; complex conjugation is
    applied to field samples at evaluation time instead.
    """
    terms = {alpha: (-1) ** midx_order(alpha) * mat.T for alpha, mat in L.terms.items()}
    return ConstCoeffOperator(L.nvars, (L.cols, L.rows), terms)


def classify_adjointness(L):
    """Return ``"self_adjoint"``, ``"skew_adjoint"`` or ``"neither"``."""
    if not L.is_square():
        raise ValueError("classification needs a square operator")
    Ls = formal_adjoint(L)
    if Ls.allclose(L):
        return "self_adjoint"
    if Ls.allclose(-L):
        return "skew_adjoint"
    return "neither"


class SemiConjugacyNotFound(RuntimeError):
    """No invertible conjugating pair was found.

    This is "not found", not a nonexistence certificate; it signals that the
    conservation-law factory is unavailable for this operator.
    """


@dataclass(frozen=True)
class ConjugacyPair:
    """Invertible pair with ``(M_a)^dagger A1 = s_a A2 M_a`` for every term.

    ``s_a = (-1)^{|a|}`` when ``parity_mask`` is empty (signs absorbed into
    the matrices), else ``s_a = 1`` and the factorization carries the
    reflection of the masked variables.
    """

    A1: np.ndarray
    A2: np.ndarray
    parity_mask: tuple  # bool per variable; all-True or all-False here
    residual: float = 0.0

    @property
    def sign_absorbed(self):
        return not any(self.parity_mask)


_RESIDUAL_TOL = 1e-10  # largest coefficient residual of an accepted pair
_MAX_SAMPLES = 64  # random elements of the solution space tried per variant


def _pair_residual(L, A1, A2, sign_absorbed):
    """Max over terms of ||M^dagger A1 - s A2 M|| / ||M||."""
    worst = 0.0
    for alpha, mat in L.terms.items():
        s = (-1) ** midx_order(alpha) if sign_absorbed else 1.0
        lhs = mat.conj().T @ A1 - s * (A2 @ mat)
        scale = np.linalg.norm(mat)
        worst = max(worst, np.linalg.norm(lhs) / max(scale, 1e-300))
    return worst


def _kron(a, b):
    """``np.kron`` of two square matrices of one size, bit for bit, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.size, a.size)


def _joint_nullspace(L, sign_absorbed):
    """Nullspace basis of the stacked constraints, as (2m^2, k) array: the
    right-singular vectors past the numerical rank (``sv`` comes sorted).

    Only ``sv`` and ``vh`` are read, so the SVD is the reduced one unless the
    stack has fewer rows than unknowns, where the nullspace needs the rows of
    ``vh`` that the reduced SVD leaves out."""
    m = L.rows
    eye = np.eye(m)
    blocks = []
    for alpha, mat in L.terms.items():
        s = (-1) ** midx_order(alpha) if sign_absorbed else 1.0
        scale = max(np.linalg.norm(mat), 1e-300)
        blocks.append(np.hstack([_kron(mat.conj().T, eye), -s * _kron(eye, mat.T)]) / scale)
    stacked = np.vstack(blocks)
    _, sv, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    rank = np.count_nonzero(sv > 1e-10 * sv[0])
    return vh[rank:].conj().T


def _candidates(L, seed):
    """``(sign_absorbed, A1, A2)`` to try: per variant with a nullspace, the
    identity pairs, then ``_MAX_SAMPLES`` seeded samples scaled by A1's largest
    entry (each takes its draw, also one skipped for a zero block)."""
    m = L.rows
    for sign_absorbed in (True, False):
        null = _joint_nullspace(L, sign_absorbed)
        if null.shape[1] == 0:
            continue
        eye = np.eye(m, dtype=complex)
        yield sign_absorbed, eye, eye.copy()
        yield sign_absorbed, eye.copy(), -eye
        rng = np.random.default_rng(seed)
        for _ in range(_MAX_SAMPLES):
            g = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
            A1, A2 = (null @ g).reshape(2, m, m)
            if np.linalg.norm(A1) >= 1e-12 and np.linalg.norm(A2) >= 1e-12:
                c = A1.flat[np.argmax(np.abs(A1))]
                yield sign_absorbed, A1 / c, A2 / c


def semi_conjugacy_solve(L, seed=0):
    """Find an invertible pair conjugating every coefficient to its adjoint.

    Solves the joint linear system over all terms, first in the sign-absorbed
    variant (no reflection needed), then in the plain variant (full
    reflection).  The first candidate (seeded, so NotFound is reproducible)
    with both condition numbers at most 1e8 and coefficient residual at most
    ``_RESIDUAL_TOL`` is returned; else :class:`SemiConjugacyNotFound`.
    """
    if not L.is_square():
        raise ValueError("semi-conjugacy needs a square operator")
    if L.is_zero():
        raise ValueError("semi-conjugacy of the zero operator is vacuous")
    for sign_absorbed, A1, A2 in _candidates(L, seed):
        if np.linalg.cond(A1) <= 1e8 and np.linalg.cond(A2) <= 1e8:
            res = _pair_residual(L, A1, A2, sign_absorbed)
            if res <= _RESIDUAL_TOL:
                return ConjugacyPair(A1, A2, (not sign_absorbed,) * L.nvars, res)
    raise SemiConjugacyNotFound(
        f"no invertible conjugating pair found after {_MAX_SAMPLES} samples (seed={seed})"
    )


def clifford_conjugators(gammas):
    """Conjugating pair for a unitary Clifford family, signature (+,-,...,-).

    Checks, to 1e-12, the anticommutation relations and unitarity of the
    generators; the timelike generator (the first one, squaring to +I) then
    conjugates every generator to its Hermitian adjoint, so
    ``A1 = A2 = gammas[0]``.
    """
    tol = 1e-12
    gammas = [np.asarray(g, dtype=complex) for g in gammas]
    if not gammas:
        raise ValueError("need at least one generator")
    m = gammas[0].shape[0]
    eye = np.eye(m)
    eta = [1.0] + [-1.0] * (len(gammas) - 1)
    for i, gi in enumerate(gammas):
        if gi.shape != (m, m):
            raise ValueError("generators must share a square shape")
        if np.max(np.abs(gi @ gi.conj().T - eye)) > tol:
            raise ValueError(f"generator {i} is not unitary")
        for j, gj in enumerate(gammas):
            anti = gi @ gj + gj @ gi
            want = 2.0 * eta[i] * eye if i == j else np.zeros((m, m))
            if np.max(np.abs(anti - want)) > tol:
                raise ValueError(f"Clifford relation fails for generators ({i}, {j})")
    g0 = gammas[0]
    for i, gi in enumerate(gammas):
        if np.max(np.abs(gi.conj().T - g0 @ gi @ g0)) > tol:
            raise ValueError(f"adjoint conjugation fails for generator {i}")
    return g0.copy(), g0.copy()


@dataclass(frozen=True)
class AdjointFactorization:
    """Operator-level factorization ``L* = A2 . R . L . R . A1^{-1}``.

    ``R`` reflects the variables flagged in ``parity_mask`` (identity when the
    mask is empty).  In symbol space R acts as ``k -> sigma(k)`` with the
    masked components negated; in verification contexts the time slot reflects
    as ``t -> s - t`` with a scenario parameter ``s``.
    """

    operator: ConstCoeffOperator
    pair: ConjugacyPair
    symbol_residual: float = 0.0

    @property
    def A1(self):
        return self.pair.A1

    @property
    def A2(self):
        return self.pair.A2

    @property
    def parity_mask(self):
        return self.pair.parity_mask


def _symbol_identity_residual(L, pair):
    """Worst relative symbol-identity residual over 50 seeded wavevectors.

    Both symbols are evaluated on the whole stack at once, and so are the
    Frobenius norms of each wavevector's matrices (``fields.frobenius_norms``).
    """
    k = np.random.default_rng(7).standard_normal((50, L.nvars))
    sig = k.astype(complex)
    for slot, flip in enumerate(pair.parity_mask):
        if flip:
            sig[:, slot] = -sig[:, slot]
    lhs = formal_adjoint(L).symbol(k)
    rhs = pair.A2 @ L.symbol(sig) @ np.linalg.inv(pair.A1)
    worst = 0.0
    for left, right, diff in zip(*(frobenius_norms(x) for x in (lhs, rhs, lhs - rhs))):
        worst = max(worst, diff / max(left, right, 1e-300))
    return worst


def adjoint_factorization(L, pair):
    """Verify ``pair`` against ``L`` and package the factorization.

    Raises ``ValueError`` when the coefficient residual or the symbol-identity
    residual exceeds ``_RESIDUAL_TOL``.
    """
    res = _pair_residual(L, pair.A1, pair.A2, pair.sign_absorbed)
    if res > _RESIDUAL_TOL:
        raise ValueError(f"conjugating pair does not verify: coefficient residual {res:.3e}")
    sym = _symbol_identity_residual(L, pair)
    if sym > _RESIDUAL_TOL:
        raise ValueError(f"factorization symbol identity fails: residual {sym:.3e}")
    return AdjointFactorization(L, pair, sym)
