"""Symmetry operators as chains of simple factors, and their verification.

A chain applies right to left: ``SymmetryOp((F1, F2))`` acts as ``F1(F2(u))``.
Factors are constant matrices, first-degree-polynomial-coefficient
differential operators, per-variable point reflections (the time slot
reflecting as ``t -> s - t`` with a stored parameter), complex
conjugation, and kernel shifts (a constant map ``u -> w``, innermost in an
adjoint characteristic's chain).  A chain is linear iff it contains an even
number of conjugations.  A *point chain* (matrix, reflection and conjugation
factors only) has one normal form ``u -> M R_s [conj^c u]``, a :class:`PointChain`.

Verification is kernel preservation, and every generator chain has one
check, :func:`verify_symmetry`, in symbol space: each kernel probe ``v
exp(mu t + i k.x)`` of :func:`~conslaw.fields.kernel_probes` becomes the
first-degree jet ``(a + b_0 t + sum_j b_j x_j) exp(mu t + i k.x)``, every
factor maps it linearly to another such jet, and the image's operator
residual is a few matrix products per probe.  The check takes any chain
without kernel shifts whose coordinate-weighted factors add up to degree 1
at most (``SymmetryOp.symbol_checkable``), passes at ``GENERATOR_TOL``
(1e-8) and raises on a non-finite sample; chains flagged ``char_map``, which
build adjoint-kernel elements directly, are checked against the formal
adjoint instead.  Kernel shifts are checked exactly by
:func:`verify_kernel_shift`.  The closed-form field oracle that pushes
random kernel superpositions through a chain pointwise lives with the tests
(``tests/analytic_oracle.py``), as the reference the check is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import formal_adjoint
from .fields import AnalyticField, kernel_probes
from .opcore import ConstCoeffOperator, op_lower

__all__ = [
    "MatrixFactor",
    "DiffFactor",
    "PointReflect",
    "Conjugation",
    "SymmetryOp",
    "PointChain",
    "KernelShift",
    "verify_symmetry",
    "verify_kernel_shift",
    "SymmetryReport",
    "SymbolProbes",
    "symbol_probes",
]

GENERATOR_TOL = 1e-8  # the largest relative residual with which a generator check passes


@dataclass(frozen=True)
class MatrixFactor:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DiffFactor:
    """Sum of ``p(x) * M * d^alpha`` with polynomial coefficients of degree <= 1.

    ``terms`` is a tuple of ``(poly, matrix, alpha)`` where ``poly`` maps a
    variable slot to its (single) power and ``matrix`` may be None for a
    scalar coefficient.  Powers are nonnegative integers; a zero power is
    dropped, so ``{1: 0}`` is the constant 1.
    """

    terms: tuple

    def __post_init__(self):
        canon = []
        for poly, mat, alpha in self.terms:
            poly = dict(poly)
            for slot, e in poly.items():
                if not (float(e).is_integer() and e >= 0):
                    raise ValueError(f"polynomial power {e!r} of slot {slot} is not a nonnegative integer")
            poly = tuple(sorted((slot, int(e)) for slot, e in poly.items() if e))
            if sum(e for _, e in poly) > 1:
                raise ValueError("polynomial coefficients are capped at degree 1")
            if mat is not None:
                mat = np.array(mat, dtype=complex)
                mat.flags.writeable = False
            canon.append((poly, mat, tuple(alpha)))
        object.__setattr__(self, "terms", tuple(canon))


@dataclass(frozen=True)
class PointReflect:
    """Reflect masked variables; the time slot maps ``t -> s - t``.

    ``s=None`` defers to the evaluation context (the scenario parameter); an
    explicit value always wins.
    """

    mask: tuple
    s: float | None = None

    def resolve_s(self, context_s):
        if self.s is not None:
            return self.s
        return 0.0 if context_s is None else float(context_s)


@dataclass(frozen=True)
class Conjugation:
    pass


@dataclass(frozen=True)
class SymmetryOp:
    """Composition chain of factors; ``factors[0]`` acts last.

    ``char_map`` flags chains whose output is already an adjoint-kernel
    element Q (they bypass the factorization step in the pipeline and are
    verified against the adjoint operator).
    """

    factors: tuple
    name: str = ""
    char_map: bool = False

    def __matmul__(self, other):
        if not isinstance(other, SymmetryOp):
            return NotImplemented
        return SymmetryOp(
            self.factors + other.factors,
            name=f"{self.name or '?'}*{other.name or '?'}",
            char_map=self.char_map or other.char_map,
        )

    @property
    def symbol_checkable(self):
        """Whether :func:`verify_symmetry` applies: no factor is a
        ``KernelShift`` and at most one ``DiffFactor`` has a coordinate-weighted
        term, so the chain's total coordinate degree is at most 1."""
        if any(isinstance(f, KernelShift) for f in self.factors):
            return False
        return sum(isinstance(f, DiffFactor) and any(poly for poly, _, _ in f.terms) for f in self.factors) <= 1

    def point_form(self, nvars, ncomp):
        """The :class:`PointChain` of this chain on ``ncomp`` components of
        ``nvars`` variables; ``None`` if it holds a ``DiffFactor`` or ``KernelShift``."""
        still = (False,) * nvars
        form = PointChain(np.eye(ncomp), still)
        for f in reversed(self.factors):
            if isinstance(f, MatrixFactor):
                form = PointChain(f.matrix, still) @ form
            elif isinstance(f, PointReflect):
                form = PointChain(np.eye(len(form.matrix)), f.mask, s=f.s) @ form
            elif isinstance(f, Conjugation):
                form = PointChain(np.eye(len(form.matrix)), still, conj=True) @ form
            else:
                return None
        return form


@dataclass(frozen=True)
class PointChain:
    """The normal form ``u -> M R_s [conj^c u]`` of a point chain.

    ``R_s`` reflects the masked slots, time as ``t -> s - t`` (a product keeps
    ``s`` only when it reflects time).  ``@`` is exact, ``(M1, e1, c1)(M2, e2, c2) =
    (M1 conj^c1(M2), e1 xor e2, c1 xor c2)``, and refuses time reflections at two
    stored ``s``: they compose to a time translation.
    """

    matrix: np.ndarray
    mask: tuple
    conj: bool = False
    s: float | None = None

    def __post_init__(self):
        MatrixFactor.__post_init__(self)  # a read-only complex copy of the matrix

    def __matmul__(self, other):
        if self.mask[0] and other.mask[0] and self.s != other.s:
            raise ValueError(f"time reflections at s={self.s} and s={other.s} compose to a time translation")
        inner = other.matrix.conj() if self.conj else other.matrix
        mask = tuple(a != b for a, b in zip(self.mask, other.mask))
        s = (self.s if self.mask[0] else other.s) if mask[0] else None
        return PointChain(self.matrix @ inner, mask, self.conj != other.conj, s)


@dataclass(frozen=True)
class KernelShift:
    """A fixed field ``w`` with ``L[w] = 0``, standing for ``u -> u + eps w``.

    As a chain factor it is the constant map ``u -> w``.
    """

    field: AnalyticField
    name: str = ""


@dataclass(frozen=True)
class SymmetryReport:
    residual: float
    passed: bool
    target: str
    samples: int


def _default_wavevectors(L, rng):
    n = L.nvars - 1
    out = []
    for _ in range(4):
        k = rng.integers(-3, 4, size=n).astype(float)
        if not k.any():
            k[rng.integers(0, n)] = 1.0
        out.append(tuple(k))
    return out


def _refuse_non_finite(g, bad, times):
    """Refuse the generator check of ``g`` at the first of ``times`` that ``bad`` marks non-finite."""
    if bad.any():
        raise ValueError(
            f"generator check of {g.name or 'the symmetry'} is non-finite at t={times[np.argmax(bad)]:.6g}; "
            "its residual is undefined"
        )


def verify_kernel_shift(L, shift):
    """Exact check that the fixed field is annihilated by ``L``."""
    resid = shift.field.apply_operator(L)
    return resid.max_coeff() <= 1e-12 * max(L.max_norm(), 1.0) * max(shift.field.max_coeff(), 1.0)


# -- the generator check in symbol space ----------------------------------------


@dataclass(frozen=True)
class SymbolProbes:
    """Kernel probes ``(mu, k, v)`` of an operator, the five sample times and
    the context reflection time ``s`` of a symbol-space generator check."""

    mu: np.ndarray
    k: np.ndarray
    v: np.ndarray
    times: np.ndarray
    s: float
    samples: int  # wavevectors drawn


def symbol_probes(L, seed=0, s=1.0):
    """The probes and times of :func:`verify_symmetry`, drawn from one
    generator stream: four wavevectors, then the draws of the closed-form
    oracle's superposition coefficients and sample points, which are thrown
    away, then the five sample times.  The oracle draws the same stream, so
    both sample the same wavevectors and name the same time in a non-finite
    error."""
    rng = np.random.default_rng(seed)
    kspace_list = _default_wavevectors(L, rng)
    mu, k, v = kernel_probes(L, kspace_list)
    rng.standard_normal((len(mu), 2))  # the oracle's superposition coefficients
    rng.standard_normal((24, L.nvars - 1))  # and sample points
    times = rng.uniform(0.1 * s, 0.9 * s, size=5) if s else rng.uniform(0.0, 1.0, size=5)
    return SymbolProbes(mu, k, v, times, s, len(kspace_list))


def _symbol_at(op, mu, k):
    """``sum_a M_a z^a`` of ``op`` at ``z = (mu, ik)``, on each plane wave ``exp(mu t + i k.x)``."""
    return op.symbol(np.column_stack((-1j * mu, k)))


def _on_jets(op, mu, k, a, b):
    """``op`` applied to the jets ``(a + sum_j b_j X_j) exp(mu t + i k.x)``,
    ``X = (t, x)``, as the constant part ``Q a + sum_j dQ_j b_j`` and the
    linear parts ``Q b_j``, with ``Q`` the symbol of ``op`` at ``z = (mu, ik)``
    and ``dQ_j`` its derivative in ``z_j`` (the product rule); the derivative
    is evaluated only for slots with a non-zero ``b_j``."""
    Q = _symbol_at(op, mu, k)
    const = np.einsum("pij,pj->pi", Q, a)
    for j in np.flatnonzero(b.any(axis=(0, 2))):
        const = const + np.einsum("pij,pj->pi", _symbol_at(op_lower(op, j), mu, k), b[:, j])
    return const, np.einsum("pij,psj->psi", Q, b)


def _apply_diff(factor, mu, k, a, b):
    """A ``DiffFactor`` on the jets: each term ``p(x) M D^alpha`` acts as
    :func:`_on_jets`; a constant ``p`` keeps the parts where they are, and
    ``p = x_j`` moves the constant part into ``b_j`` (the chain's degree
    bound leaves no linear part for it to raise)."""
    nvars, m = b.shape[1], a.shape[1]
    mats = [np.eye(m) if mat is None else mat for _, mat, _ in factor.terms]
    out_a = np.zeros((len(a), mats[0].shape[0]), dtype=complex)
    out_b = np.zeros((len(a), nvars, mats[0].shape[0]), dtype=complex)
    by_poly = {}
    for (poly, _, alpha), mat in zip(factor.terms, mats):
        by_poly.setdefault(poly, []).append((alpha, mat))
    for poly, terms in by_poly.items():
        const, linear = _on_jets(ConstCoeffOperator(nvars, mats[0].shape, terms), mu, k, a, b)
        if poly:
            ((slot, _),) = poly
            out_b[:, slot] += const
        else:
            out_a += const
            out_b += linear
    return out_a, out_b


def verify_symmetry(L, g, probes):
    """Kernel preservation of a ``symbol_checkable`` chain ``g`` on the
    probes of :func:`symbol_probes`.

    Each probe starts as the jet ``a = v``, ``b = 0`` (one row of ``b`` per
    variable, time first) and goes through the chain right to left: a matrix
    multiplies ``a`` and each ``b_j``; a conjugation conjugates them and
    ``mu`` and flips ``k``; a reflection negates the masked ``k_j`` and
    ``b_j``, its time slot (``t -> s - t``) also adding ``s b_0`` to ``a``,
    negating ``mu`` and gaining the amplitude ``exp(mu s)``; a ``DiffFactor``
    acts by :func:`_apply_diff`.  The image is in the kernel of ``L`` (of its
    formal adjoint for ``char_map`` chains) iff ``P a + sum_j dP_j b_j`` and
    every ``P b_j`` vanish (:func:`_on_jets`).  The residual is the largest
    of their norms over ``max(|a|, |b_j|) max(1, |mu|, |k|_inf) max(|L|_max,
    1)``, a zero image counting 0, and 1 when every image is zero; it passes
    at ``GENERATOR_TOL``.  With ``b = 0`` (a point or constant-coefficient
    chain) it is ``|P a|`` over that scale.  Raises ``ValueError`` for a chain
    that is not ``symbol_checkable``, and when an amplitude ``exp(Re(log amp
    + mu t))`` at a sample time, or the residual, is not finite.
    """
    if not g.symbol_checkable:
        raise ValueError(
            f"{g.name or 'the chain'} has no generator check: it holds a kernel shift "
            "or its coordinate-weighted factors exceed degree 1"
        )
    mu, k, a = probes.mu, probes.k, probes.v
    b = np.zeros((len(mu), L.nvars, a.shape[1]), dtype=complex)
    logamp = np.zeros(len(mu), dtype=complex)
    for f in reversed(g.factors):
        if isinstance(f, MatrixFactor):
            a, b = a @ f.matrix.T, b @ f.matrix.T
        elif isinstance(f, Conjugation):
            mu, k, a, b, logamp = mu.conj(), -k, a.conj(), b.conj(), logamp.conj()
        elif isinstance(f, PointReflect):
            if len(f.mask) != L.nvars:
                raise ValueError(f"reflection mask {f.mask} has {len(f.mask)} slots, expected {L.nvars}")
            if f.mask[0]:
                s = f.resolve_s(probes.s)
                logamp = logamp + mu * s
                mu = -mu
                a = a + s * b[:, 0]
            k = np.where(f.mask[1:], -k, k)
            b = np.where(np.array(f.mask)[:, None], -b, b)
        else:
            a, b = _apply_diff(f, mu, k, a, b)
    target = formal_adjoint(L) if g.char_map else L
    with np.errstate(over="ignore", invalid="ignore"):
        const, linear = _on_jets(target, mu, k, a, b)
        resid = np.maximum(np.linalg.norm(const, axis=1), np.linalg.norm(linear, axis=2).max(axis=1))
        freq = np.maximum(1.0, np.maximum(np.abs(mu), np.abs(k).max(axis=1)))
        size = np.maximum(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=2).max(axis=1))
        size = size * freq * max(L.max_norm(), 1.0)
        rel = np.divide(resid, size, out=np.zeros(len(mu)), where=size != 0)  # a NaN size stays NaN
        amp = np.exp((logamp[:, None] + mu[:, None] * probes.times).real)
    _refuse_non_finite(g, ~np.isfinite(amp).all(axis=0) | ~np.isfinite(rel).all(), probes.times)
    worst = 1.0 if not (a.any() or b.any()) else float(rel.max())  # no image at all fails
    return SymmetryReport(worst, worst <= GENERATOR_TOL, "adjoint" if g.char_map else "kernel", probes.samples)
