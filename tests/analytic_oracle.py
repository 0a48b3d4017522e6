"""The closed-form field oracle of the generator check, for the tests.

``conslaw.symmetry.verify_symmetry`` checks a chain on first-degree jet
probes in symbol space.  This oracle checks it the long way: a random
superposition of exact kernel plane waves is pushed through the chain as an
``AnalyticField`` and the operator residual is evaluated pointwise.  Its
field algebra is a set of reference accumulators, each operation summing its
terms into a dict of its own, so it shares no arithmetic with the package's
field algebra beyond the ``AnalyticField`` container and its ``evaluate``;
``tests/test_symmetry.py`` holds the package's field operations to these
forms bit for bit.
"""

from math import comb

import numpy as np

from conslaw.adjoint import formal_adjoint
from conslaw.fields import AnalyticField, kernel_probes, plane_wave
from conslaw.symmetry import (
    GENERATOR_TOL,
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
    SymmetryReport,
    _default_wavevectors,
    _refuse_non_finite,
)

# -- reference accumulators: each operation summing into its own dict ------------


def add(f, g):
    terms = dict(f.terms)
    for key, c in g.terms.items():
        terms[key] = terms.get(key, 0.0) + c
    return AnalyticField(f.nvars, f.ncomp, terms)


def diff(f, slot):
    """Partial derivative along variable ``slot`` (0 = time)."""
    terms = {}

    def put(key, c):
        if c != 0:
            terms[key] = terms.get(key, 0.0) + c

    for (i, pol, lam, k), c in f.terms.items():
        e = pol[slot]
        if e:
            put((i, pol[:slot] + (e - 1,) + pol[slot + 1 :], lam, k), e * c)
        put((i, pol, lam, k), (lam if slot == 0 else 1j * k[slot - 1]) * c)
    return AnalyticField(f.nvars, f.ncomp, terms)


def diff_multi(f, alpha):
    for slot, e in enumerate(alpha):
        for _ in range(e):
            f = diff(f, slot)
    return f


def apply_matrix(f, mat):
    mat = np.asarray(mat, dtype=complex)
    terms = {}
    for (i, pol, lam, k), c in f.terms.items():
        for r in range(mat.shape[0]):
            m = mat[r, i]
            if m != 0:
                terms[(r, pol, lam, k)] = terms.get((r, pol, lam, k), 0.0) + m * c
    return AnalyticField(f.nvars, mat.shape[0], terms)


def apply_operator(f, L):
    out = AnalyticField(f.nvars, L.rows, {})
    for alpha, mat in L.terms.items():
        out = add(out, apply_matrix(diff_multi(f, alpha), mat))
    return out


def multiply_coordinate(f, slot):
    """Multiply by the coordinate of variable ``slot``."""
    terms = {}
    for (i, pol, lam, k), c in f.terms.items():
        key = (i, pol[:slot] + (pol[slot] + 1,) + pol[slot + 1 :], lam, k)
        terms[key] = terms.get(key, 0.0) + c
    return AnalyticField(f.nvars, f.ncomp, terms)


def point_reflect(f, mask, s):
    """Compose with the reflection of masked variables; time uses ``t -> s - t``."""
    terms = {}

    def put(key, c):
        if c != 0:
            terms[key] = terms.get(key, 0.0) + c

    for (i, pol, lam, k), c in f.terms.items():
        newk = tuple(-kj if mask[d + 1] else kj for d, kj in enumerate(k))
        sign = 1.0
        for d in range(1, f.nvars):
            if mask[d] and pol[d] % 2:
                sign = -sign
        base = sign * c
        if mask[0]:
            # t^a exp(lam t) -> (s-t)^a exp(lam s) exp(-lam t)
            a = pol[0]
            amp = base * np.exp(lam * s)
            for r in range(a + 1):
                put((i, (r,) + pol[1:], -lam, newk), amp * comb(a, r) * (s ** (a - r)) * ((-1.0) ** r))
        else:
            put((i, pol, lam, newk), base)
    return AnalyticField(f.nvars, f.ncomp, terms)


def conjugate(f):
    terms = {}
    for (i, pol, lam, k), c in f.terms.items():
        key = (i, pol, np.conj(lam), tuple(-kj for kj in k))
        terms[key] = terms.get(key, 0.0) + np.conj(c)
    return AnalyticField(f.nvars, f.ncomp, terms)


# -- the oracle ----------------------------------------------------------------


def kernel_waves(L, kspace):
    """The plane waves of the kernel probes of ``L`` at one wavevector, in row order."""
    return [plane_wave(L.nvars, v, mu, k) for mu, k, v in zip(*kernel_probes(L, [kspace]))]


def random_kernel_superposition(L, kspace_list, rng):
    """A random superposition of the kernel plane waves at ``kspace_list``,
    one complex coefficient per wave, drawn in probe row order."""
    terms = {}
    for kspace in kspace_list:
        for w in kernel_waves(L, kspace):
            c = complex(rng.standard_normal(), rng.standard_normal())
            for key, v in w.terms.items():
                terms[key] = terms.get(key, 0.0) + c * v
    return AnalyticField(L.nvars, L.cols, terms)


def apply_factor_analytic(factor, f, s=None):
    """One chain factor applied to an exact closed-form field."""
    if isinstance(factor, DiffFactor):
        out = AnalyticField(f.nvars, f.ncomp, {})
        for poly, mat, alpha in factor.terms:
            piece = diff_multi(f, alpha)
            if mat is not None:
                piece = apply_matrix(piece, mat)
            for slot, e in poly:
                for _ in range(e):
                    piece = multiply_coordinate(piece, slot)
            out = add(out, piece)
        return out
    if isinstance(factor, MatrixFactor):
        return apply_matrix(f, factor.matrix)
    if isinstance(factor, PointReflect):
        return point_reflect(f, factor.mask, factor.resolve_s(s))
    if isinstance(factor, Conjugation):
        return conjugate(f)
    if isinstance(factor, KernelShift):
        return factor.field
    raise TypeError(f"unknown factor {factor!r}")


def apply_symmetry_analytic(g, f, s=None):
    """A symmetry chain applied to an exact closed-form field, right to left."""
    for factor in reversed(g.factors):
        f = apply_factor_analytic(factor, f, s=s)
    return f


def verify_symmetry(L, g, seed=0, s=1.0, kspace_list=None):
    """Kernel preservation of any chain, from closed-form fields.

    Builds a random superposition of exact kernel elements (four random
    wavevectors unless ``kspace_list`` is given), applies ``g`` and measures
    ``max |L[g u]|`` on 24 random points and five times, relative to the
    field scale (the largest of ``|g u|`` and its first derivatives) times
    the coefficient scale; it passes at ``GENERATOR_TOL``.  Chains flagged
    ``char_map`` are measured against the formal adjoint.  Time-reflecting
    factors use the parameter ``s``.  It draws the random stream that
    ``conslaw.symmetry.symbol_probes`` draws, and raises the same
    ``ValueError`` on a non-finite sample.  An image with no terms fails
    with residual 1, the whole field lost.
    """
    rng = np.random.default_rng(seed)
    kspace_list = kspace_list or _default_wavevectors(L, rng)
    u = random_kernel_superposition(L, kspace_list, rng)
    gu = apply_symmetry_analytic(g, u, s=s)
    target = "adjoint" if g.char_map else "kernel"
    if u.terms and not gu.terms:
        return SymmetryReport(1.0, False, target, len(kspace_list))
    resid_field = apply_operator(gu, formal_adjoint(L) if g.char_map else L)
    pts = rng.standard_normal((24, L.nvars - 1)) * 2.0
    times = rng.uniform(0.1 * s, 0.9 * s, size=5) if s else rng.uniform(0.0, 1.0, size=5)
    coeff_scale = max(L.max_norm(), 1.0)
    # first derivatives are in the scale so pure-derivative residuals scale honestly
    fields = [gu] + [diff(gu, slot) for slot in range(L.nvars)]
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.abs(resid_field.evaluate(times, pts)).max(axis=(0, 2))  # per time
        scale = np.max([np.abs(f.evaluate(times, pts)).max(axis=(0, 2)) for f in fields], axis=0) * coeff_scale
    _refuse_non_finite(g, ~(np.isfinite(worst) & np.isfinite(scale)), times)
    rel = float(worst.max()) / max(float(scale.max()), 1e-300)
    return SymmetryReport(rel, rel <= GENERATOR_TOL, target, len(kspace_list))
