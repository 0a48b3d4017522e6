"""Symmetry operators as chains of simple factors, and their verification.

A chain applies right to left: ``SymmetryOp((F1, F2))`` acts as ``F1(F2(u))``.
Factors are constant matrices, first-degree-polynomial-coefficient
differential operators, per-variable point reflections (the time slot
reflecting as ``t -> s - t`` with a stored parameter), complex
conjugation, and kernel shifts (a constant map ``u -> w``, innermost in an
adjoint characteristic's chain).  A chain is linear iff it contains an even
number of conjugations.  A *point chain* (matrix, reflection and conjugation
factors only) has one normal form ``u -> M R_s [conj^c u]``, a :class:`PointChain`.

Verification is kernel preservation, checked in one of two ways; both pass
at ``GENERATOR_TOL`` (1e-8) and raise on a non-finite sample, and chains
flagged ``char_map``, which build adjoint-kernel elements directly, are
checked against the formal adjoint instead.  A chain of matrices,
reflections, conjugations and constant-coefficient ``DiffFactor``s
(``SymmetryOp.symbol_checkable``) is checked in symbol space by
:func:`verify_symbol`: each kernel probe ``(mu, k, v)`` of
:func:`~conslaw.fields.kernel_probes` is mapped through the chain and
``P(mu'', k'') v''`` is one matrix product.  :func:`verify_symmetry`, the
oracle, checks any chain: random exact kernel superpositions are pushed
through it as closed-form fields and the operator residual is evaluated
pointwise; the pipeline uses it for chains with ``x``- or ``t``-weighted
``DiffFactor``s (the rotations).  Kernel shifts are checked exactly by
:func:`verify_kernel_shift`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import formal_adjoint
from .fields import AnalyticField, collect, kernel_probes, plane_wave
from .opcore import ConstCoeffOperator

__all__ = [
    "MatrixFactor",
    "DiffFactor",
    "PointReflect",
    "Conjugation",
    "SymmetryOp",
    "PointChain",
    "KernelShift",
    "apply_symmetry_analytic",
    "verify_symmetry",
    "verify_kernel_shift",
    "SymmetryReport",
    "SymbolProbes",
    "symbol_probes",
    "verify_symbol",
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
        """Whether every factor is a matrix, a reflection, a conjugation or a
        constant-coefficient ``DiffFactor``: then :func:`verify_symbol` applies."""
        return all(
            isinstance(f, (MatrixFactor, PointReflect, Conjugation))
            or (isinstance(f, DiffFactor) and not any(poly for poly, _, _ in f.terms))
            for f in self.factors
        )

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


def apply_factor_analytic(factor, f, s=None):
    if isinstance(factor, KernelShift):
        return factor.field
    if isinstance(factor, MatrixFactor):
        return f.apply_matrix(factor.matrix)
    if isinstance(factor, Conjugation):
        return f.conjugate()
    if isinstance(factor, PointReflect):
        return f.point_reflect(factor.mask, s=factor.resolve_s(s))
    if isinstance(factor, DiffFactor):

        def pieces():
            for poly, mat, alpha in factor.terms:
                piece = f.diff_multi(alpha)
                if mat is not None:
                    piece = piece.apply_matrix(mat)
                for slot, e in poly:
                    for _ in range(e):
                        piece = piece.multiply_coordinate(slot)
                yield from piece.terms.items()

        return collect(f.nvars, f.ncomp, pieces())
    raise TypeError(f"unknown factor {factor!r}")


def apply_symmetry_analytic(g, f, s=None):
    """Apply a symmetry chain to an exact closed-form field."""
    for factor in reversed(g.factors):
        f = apply_factor_analytic(factor, f, s=s)
    return f


@dataclass(frozen=True)
class SymmetryReport:
    residual: float
    passed: bool
    target: str
    samples: int


def _random_kernel_superposition(L, kspace_list, rng):
    """A random superposition of the plane waves ``v exp(mu t + i k.x)`` of the
    kernel probes, one complex coefficient per probe row, drawn in row order."""
    mu, k, v = kernel_probes(L, kspace_list)  # before the first draw: the rng stream stays the same

    def pieces():
        for lam, kspace, vec in zip(mu, k, v):
            c = complex(rng.standard_normal(), rng.standard_normal())
            yield from ((key, c * x) for key, x in plane_wave(L.nvars, vec, lam, kspace).terms.items())

    return collect(L.nvars, L.cols, pieces())


def _default_wavevectors(L, rng):
    n = L.nvars - 1
    out = []
    for _ in range(4):
        k = rng.integers(-3, 4, size=n).astype(float)
        if not k.any():
            k[rng.integers(0, n)] = 1.0
        out.append(tuple(k))
    return out


def verify_symmetry(L, g, seed=0, s=1.0, kspace_list=None):
    """Residual report for kernel preservation of a symmetry chain.

    Builds a random superposition of exact kernel elements (four random
    wavevectors unless ``kspace_list`` is given), applies ``g`` and measures
    ``max |L[g u]|`` on random points and times, relative to the field scale
    (the largest of ``|g u|`` and its first derivatives) times the
    coefficient scale; it passes at ``GENERATOR_TOL``.  Each field is
    evaluated once, over all samples.  Chains flagged ``char_map`` are
    measured against the formal adjoint (their output is a Q, not a kernel
    element).  Time-reflecting
    factors use the parameter ``s``.  Raises ``ValueError`` when a sampled
    residual or scale is not finite.  An image with no terms fails with
    residual 1, the whole field lost: a time reflection whose amplitude
    ``exp(lam s)`` underflows on every term would otherwise leave the zero
    field, which every kernel holds.
    """
    rng = np.random.default_rng(seed)
    kspace_list = kspace_list or _default_wavevectors(L, rng)
    u = _random_kernel_superposition(L, kspace_list, rng)
    gu = apply_symmetry_analytic(g, u, s=s)
    target = "adjoint" if g.char_map else "kernel"
    if u.terms and not gu.terms:
        return SymmetryReport(1.0, False, target, len(kspace_list))
    target_op = formal_adjoint(L) if g.char_map else L
    resid_field = gu.apply_operator(target_op)
    pts = rng.standard_normal((24, L.nvars - 1)) * 2.0
    times = rng.uniform(0.1 * s, 0.9 * s, size=5) if s else rng.uniform(0.0, 1.0, size=5)
    coeff_scale = max(L.max_norm(), 1.0)
    # first derivatives are in the scale so pure-derivative residuals scale honestly
    fields = [gu] + [gu.diff(slot) for slot in range(L.nvars)]
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.abs(resid_field.evaluate(times, pts)).max(axis=(0, 2))  # per time
        scale = np.max([np.abs(f.evaluate(times, pts)).max(axis=(0, 2)) for f in fields], axis=0) * coeff_scale
    _refuse_non_finite(g, ~(np.isfinite(worst) & np.isfinite(scale)), times)
    rel = float(worst.max()) / max(float(scale.max()), 1e-300)
    return SymmetryReport(rel, rel <= GENERATOR_TOL, target, len(kspace_list))


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
    """The probes and times of :func:`verify_symbol`, drawn as ``verify_symmetry``
    draws its wavevectors and times: the same generator stream, so both checks
    sample the same wavevectors and name the same time in a non-finite error."""
    rng = np.random.default_rng(seed)
    kspace_list = _default_wavevectors(L, rng)
    mu, k, v = kernel_probes(L, kspace_list)
    rng.standard_normal((len(mu), 2))  # verify_symmetry's superposition coefficients
    rng.standard_normal((24, L.nvars - 1))  # and sample points
    times = rng.uniform(0.1 * s, 0.9 * s, size=5) if s else rng.uniform(0.0, 1.0, size=5)
    return SymbolProbes(mu, k, v, times, s, len(kspace_list))


def _symbol_at(op, mu, k):
    """``sum_a M_a mu^a0 (ik)^a'`` of ``op`` on each plane wave ``exp(mu t + i k.x)``."""
    return op.symbol(np.column_stack((-1j * mu, k)))


def _diff_operator(factor, nvars, ncomp):
    """A constant-coefficient ``DiffFactor`` on ``ncomp`` components as an operator."""
    mats = [np.eye(ncomp) if mat is None else mat for _, mat, _ in factor.terms]
    return ConstCoeffOperator(nvars, mats[0].shape, [(alpha, mat) for (_, _, alpha), mat in zip(factor.terms, mats)])


def verify_symbol(L, g, probes):
    """:func:`verify_symmetry`'s verdict for a ``symbol_checkable`` chain, from
    one matrix product per kernel probe.

    Each probe ``v exp(mu t + i k.x)`` goes through the chain right to left: a
    matrix maps ``v -> M v``, a conjugation ``(mu, k, v) -> (conj mu, -k,
    conj v)``, a reflection negates the masked ``k_j`` and, for the time slot,
    ``mu`` (the image of ``t -> s - t`` gains the amplitude ``exp(mu s)``), and
    a constant-coefficient ``DiffFactor`` maps ``v -> Q(mu, k) v``.  The image
    ``(mu'', k'', v'')`` is a kernel element iff ``P(mu'', k'') v'' = 0``, with
    ``P`` the symbol of ``L`` (of its formal adjoint for ``char_map`` chains).
    The residual is the largest ``|P v''| / (|v''| max(1, |mu''|, |k''|_inf)
    max(|L|_max, 1))``, a probe with ``v'' = 0`` counting as 0, and 1 when
    every probe's is (the chain maps the kernel to zero); it passes at
    ``GENERATOR_TOL``.  Raises ``ValueError`` when an image's amplitude
    ``exp(Re(log amp + mu'' t))`` at a sample time, or the residual, is not
    finite.
    """
    if not g.symbol_checkable:
        raise TypeError(f"{g.name or 'the chain'} has a factor with no action on kernel probes")
    mu, k, v = probes.mu, probes.k, probes.v
    logamp = np.zeros(len(mu), dtype=complex)
    for f in reversed(g.factors):
        if isinstance(f, MatrixFactor):
            v = v @ f.matrix.T
        elif isinstance(f, Conjugation):
            mu, k, v, logamp = mu.conj(), -k, v.conj(), logamp.conj()
        elif isinstance(f, PointReflect):
            if len(f.mask) != L.nvars:
                raise ValueError(f"reflection mask {f.mask} has {len(f.mask)} slots, expected {L.nvars}")
            if f.mask[0]:
                logamp = logamp + mu * f.resolve_s(probes.s)
                mu = -mu
            k = np.where(f.mask[1:], -k, k)
        else:  # a constant-coefficient DiffFactor
            v = np.einsum("pij,pj->pi", _symbol_at(_diff_operator(f, L.nvars, v.shape[1]), mu, k), v)
    target = formal_adjoint(L) if g.char_map else L
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.linalg.norm(np.einsum("pij,pj->pi", _symbol_at(target, mu, k), v), axis=1)
        freq = np.maximum(1.0, np.maximum(np.abs(mu), np.abs(k).max(axis=1)))
        size = np.linalg.norm(v, axis=1) * freq * max(L.max_norm(), 1.0)
        rel = np.divide(resid, size, out=np.zeros(len(mu)), where=size != 0)  # a NaN size stays NaN
        amp = np.exp((logamp[:, None] + mu[:, None] * probes.times).real)
    _refuse_non_finite(g, ~np.isfinite(amp).all(axis=0) | ~np.isfinite(rel).all(), probes.times)
    worst = 1.0 if not v.any() else float(rel.max())  # no image at all fails, as in verify_symmetry
    return SymmetryReport(worst, worst <= GENERATOR_TOL, "adjoint" if g.char_map else "kernel", probes.samples)
