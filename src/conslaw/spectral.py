"""Exact-in-time spectral lab on a periodic torus.

Evolution systems are reduced per Fourier mode to ``U' = A(k) U`` with the
block-companion matrix of the operator's time polynomial, and propagated by
exact matrix exponentials, so drift of a conserved functional measures the
mathematics rather than an integrator.  The Nyquist row is dropped to keep
the retained mode set symmetric under k -> -k; an optional spherical cutoff
``kmax`` band-limits further (needed whenever a reflected time evolution
would otherwise amplify beyond the configured cap).  A propagator with an
entry above the cap or a non-finite entry raises ``AmplificationError``, and
a non-finite kappa value raises instead of yielding a drift.

Work over modes goes one block of at most ``MODE_BLOCK`` active modes at a
time: ``EvolutionSystem`` builds ``A(k)`` and its fast-mode test block by
block, and a trajectory builds each sample time's propagator and applies it
block by block, so a run never allocates a whole-grid propagator.  Blocking
leaves every number bit-identical to a one-block run.

The module keeps one cache, and it lives for one sample time: a ``Trajectory``
memoises the companion-state stacks and field jets asked for while one time
is evaluated, and ``kappa_series``, which serves every characteristic of a
run in one pass over the times, empties it before the next.  Propagators are
not kept.  ``kappa_series`` is also the one support guard: when a field view
is ``weighted`` by a spatial coordinate, it checks the boundary fraction of
each memoised jet once, before the jets are forgotten.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .current import evaluate_terms
from .fields import evolution_matrices
from .symmetry import (
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
)

__all__ = [
    "TorusGrid",
    "SpectralState",
    "EvolutionSystem",
    "Trajectory",
    "AmplificationError",
    "SupportError",
    "kappa_series",
    "KappaSeries",
    "heat_flow_product_oracle",
]


AMP_CAP = 1e6  # default largest propagator entry before a run is refused
MODE_BLOCK = 32768  # active modes per block of the companion build and propagators
SUPPORT_TOL = 1e-10  # default largest boundary mass under position weighting


class AmplificationError(RuntimeError):
    """A reflected/backward evolution would amplify past the configured cap."""


class SupportError(RuntimeError):
    """A position-weighted functional was requested on poorly supported data."""


@dataclass(frozen=True)
class TorusGrid:
    """Periodic box: ``modes[d]`` points on ``[-L_d/2, L_d/2)`` per dimension."""

    lengths: tuple
    modes: tuple
    kmax: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "modes", tuple(int(n) for n in self.modes))
        if len(self.lengths) != len(self.modes):
            raise ValueError("lengths and modes must have equal dimension")
        if not all(0 < L < math.inf for L in self.lengths):
            raise ValueError(f"lengths must be finite and > 0, got {self.lengths}")
        if self.kmax is not None and not 0 <= self.kmax < math.inf:
            raise ValueError(f"kmax must be none or a finite number >= 0, got {self.kmax}")
        for n in self.modes:
            if n < 4 or (n & (n - 1)):
                raise ValueError("mode counts must be powers of two, at least 4")

    @property
    def ndim(self):
        return len(self.modes)

    @property
    def npoints(self):
        return int(np.prod(self.modes))

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    def coordinates(self):
        """Centered physical coordinates, one 1-d array per dimension."""
        return [
            -L / 2 + L * np.arange(n) / n for L, n in zip(self.lengths, self.modes)
        ]

    def wavenumbers(self):
        return [
            2 * np.pi * np.fft.fftfreq(n, d=L / n)
            for L, n in zip(self.lengths, self.modes)
        ]

    def wavevector_grids(self):
        """Full-grid wavevector components, one read-only array per dimension."""
        return self._wavevector_grids

    @functools.cached_property
    def _wavevector_grids(self):
        grids = tuple(np.meshgrid(*self.wavenumbers(), indexing="ij"))
        for g in grids:
            g.flags.writeable = False
        return grids

    def mode_mask(self):
        """Retained modes: Nyquist rows dropped, optional spherical cutoff."""
        return self._mode_mask

    @functools.cached_property
    def _mode_mask(self):
        mask = np.ones(self.modes, dtype=bool)
        for d, n in enumerate(self.modes):
            idx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
            keep = np.abs(idx) <= n // 2 - 1
            shape = [1] * self.ndim
            shape[d] = n
            mask &= keep.reshape(shape)
        if self.kmax is not None:
            kk = self.wavevector_grids()
            mask &= sum(k * k for k in kk) <= self.kmax**2 + 1e-12
        mask.flags.writeable = False
        return mask

    def point_list(self):
        """All grid points as an (npoints, ndim) array (C order)."""
        mesh = np.meshgrid(*self.coordinates(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


class SpectralState:
    """Band-limited multi-component field: Fourier coefficients plus a time."""

    __slots__ = ("grid", "coeffs", "time")

    def __init__(self, grid, coeffs, time=0.0):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[1:] != grid.modes:
            raise ValueError("coefficient array does not match the grid")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficients")
        self.grid = grid
        self.coeffs = coeffs * grid.mode_mask()
        self.time = float(time)

    @property
    def ncomp(self):
        return self.coeffs.shape[0]

    def values(self):
        axes = tuple(range(1, self.grid.ndim + 1))
        return np.fft.ifftn(self.coeffs, axes=axes) * self.grid.npoints

    def norm_sq(self):
        """Integral of |u|^2 over the box, computed in mode space."""
        return self.grid.volume * float(np.sum(np.abs(self.coeffs) ** 2))

    def is_real(self):
        return float(np.max(np.abs(self.values().imag))) <= 1e-12 * max(
            1e-300, float(np.max(np.abs(self.values())))
        )


def integrate(grid, values):
    """Spectral quadrature: box volume times the grid mean (the zero mode)."""
    return grid.volume * complex(np.mean(values))


def boundary_fraction(grid, values):
    """Max |values| on the outermost grid layer relative to the global max."""
    mags = np.abs(values)
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    edge = 0.0
    for d in range(grid.ndim):
        sl = [slice(None)] * values.ndim
        sl[d + 1] = 0
        edge = max(edge, float(mags[tuple(sl)].max()))
    return edge / top


class EvolutionSystem:
    """Per-mode first-order reduction ``U' = A(k) U`` of a square operator.

    ``A`` is built, and each propagator built and applied, one block of at
    most ``MODE_BLOCK`` active modes at a time.
    """

    def __init__(self, L, grid, amp_cap=AMP_CAP):
        if L.nvars != grid.ndim + 1:
            raise ValueError("operator dimension does not match the grid")
        self.L = L
        self.grid = grid
        self.amp_cap = float(amp_cap)
        self.m = L.cols
        self.R = L.time_order()
        self.active = np.flatnonzero(grid.mode_mask().reshape(-1))
        kspace = np.stack([k.reshape(-1)[self.active] for k in grid.wavevector_grids()], axis=-1)
        d = self.m * self.R
        self.A = np.empty((len(self.active), d, d), dtype=complex)
        self.lam = np.empty(len(self.active), dtype=complex)
        self.fast = np.empty(len(self.active), dtype=bool)
        eye = np.eye(d)
        for block in self.blocks():
            A = evolution_matrices(L, kspace[block])
            # fast closed-form exponential where A^2 is a multiple of the identity
            A2 = A @ A
            lam = np.einsum("mii->m", A2) / d
            resid = np.abs(A2 - lam[:, None, None] * eye).max(axis=(1, 2))
            scale = np.abs(A).max(axis=(1, 2)) ** 2 + 1e-300
            self.A[block], self.lam[block] = A, lam
            self.fast[block] = resid <= 1e-13 * scale

    def blocks(self):
        """Slices of consecutive active modes, ``MODE_BLOCK`` at most each."""
        n = len(self.active)
        return [slice(i, min(i + MODE_BLOCK, n)) for i in range(0, n, MODE_BLOCK)]

    def propagator(self, dt, modes=slice(None)):
        """Batched ``exp(dt A)`` over the active modes ``modes`` (a slice).

        Raises ``AmplificationError`` if an entry exceeds ``amp_cap`` or is
        not finite (an overflowing cosh/sinh times a zero entry gives NaN).
        """
        A, lam, fast = self.A[modes], self.lam[modes], self.fast[modes]
        d = A.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            if d == 1:
                # scalar modes: direct exponential (the cosh/sinh split would
                # overflow on strongly decaying modes)
                P = np.exp(dt * A)
            else:
                # the closed form for every mode, then expm where it is not exact
                z = np.sqrt(lam.astype(complex))
                zt = z * dt
                c1 = np.cosh(zt)
                small = np.abs(zt) < 1e-8
                c2 = np.empty_like(z)
                nz = ~small
                c2[nz] = np.sinh(zt[nz]) / z[nz]
                c2[small] = dt * (1.0 + zt[small] ** 2 / 6.0)
                P = c1[:, None, None] * np.eye(d) + c2[:, None, None] * A
                for idx in np.flatnonzero(~fast):
                    P[idx] = expm(dt * A[idx])
        amp = float(np.abs(P).max())  # NaN or inf when an entry is not finite
        if not math.isfinite(amp):
            raise AmplificationError(
                f"propagator is non-finite for dt={dt:+.6g}; the evolution is "
                "ill-posed at this resolution; reduce kmax or the time span"
            )
        if not (amp <= self.amp_cap):
            raise AmplificationError(
                f"mode amplification {amp:.3e} exceeds cap {self.amp_cap:.1e} "
                f"for dt={dt:+.6g}; reduce kmax or the reflected time span"
            )
        return P

    def scatter(self, active_values):
        """Expand per-active-mode data (n_active, ...) to full mode arrays."""
        out = np.zeros((self.grid.npoints,) + active_values.shape[1:], dtype=complex)
        out[self.active] = active_values
        return out


class Trajectory:
    """Exactly evolvable solution: companion state at t0 plus the system.

    The one cache holds, per time asked for since ``forget``, the stack
    ``[U, A U, A^2 U, ...]`` of the companion state and the jets read through
    ``jet``; ``state_at`` bypasses it.
    """

    weighted = False

    def __init__(self, system, companion_coeffs, t0=0.0):
        companion_coeffs = np.asarray(companion_coeffs, dtype=complex)
        d = system.m * system.R
        if companion_coeffs.shape != (d,) + system.grid.modes:
            raise ValueError(f"companion state must have {d} components on the grid")
        flat = companion_coeffs.reshape(d, -1)
        self.system = system
        self.t0 = float(t0)
        self.U0 = flat[:, system.active].T.copy()  # (n_active, d)
        self._stacks = {}
        self._jets = {}

    @property
    def grid(self):
        return self.system.grid

    @property
    def ncomp(self):
        return self.system.m

    def forget(self):
        """Empty the cache of stacks and jets."""
        self._stacks.clear()
        self._jets.clear()

    def _companion(self, t):
        dt = float(t) - self.t0
        U = np.empty_like(self.U0)
        for block in self.system.blocks():
            P = self.system.propagator(dt, block)
            U[block] = np.einsum("mij,mj->mi", P, self.U0[block])
        return U

    def _time_derivative(self, t, order):
        key = float(t)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = [self._companion(key)]
        while len(stack) <= order:
            stack.append(np.einsum("mij,mj->mi", self.system.A, stack[-1]))
        return stack[order]

    def _field_coeffs(self, U):
        """Full-grid Fourier coefficients of the first companion block."""
        return self.system.scatter(U[:, : self.system.m]).T.reshape(
            (self.system.m,) + self.grid.modes
        )

    def state_at(self, t):
        """Physical field (first companion block) as a SpectralState."""
        return SpectralState(self.grid, self._field_coeffs(self._companion(t)), time=t)

    def jet_values(self, t, alpha):
        """Grid values of ``d^alpha u`` at time ``t`` (alpha over t, x1..xn)."""
        coeffs = self._field_coeffs(self._time_derivative(t, alpha[0]))
        kk = self.grid.wavevector_grids()
        for d, e in enumerate(alpha[1:]):
            if e:
                coeffs = coeffs * (1j * kk[d]) ** e
        axes = tuple(range(1, self.grid.ndim + 1))
        return np.fft.ifftn(coeffs, axes=axes) * self.grid.npoints

    def jet(self, t, alpha):
        """Field-view interface: ``jet_values``, memoised until ``forget``."""
        key = (float(t), tuple(alpha))
        if key not in self._jets:
            self._jets[key] = self.jet_values(t, alpha)
        return self._jets[key]


# -- field views -------------------------------------------------------------


class _InnerView:
    """A view of the field of the view ``inner``, on its grid, weighted as it is."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid
        self.ncomp = inner.ncomp
        self.weighted = inner.weighted


class MatrixView(_InnerView):
    def __init__(self, inner, matrix):
        super().__init__(inner)
        self.matrix = np.asarray(matrix, dtype=complex)
        self.ncomp = self.matrix.shape[0]

    def jet(self, t, alpha):
        vals = self.inner.jet(t, alpha)
        return np.einsum("ab,b...->a...", self.matrix, vals)


class ConjView(_InnerView):
    def jet(self, t, alpha):
        return np.conj(self.inner.jet(t, alpha))


def _reflect_values(grid, values, spatial_mask):
    out = values
    for d, flip in enumerate(spatial_mask):
        if flip:
            n = grid.modes[d]
            idx = (n - np.arange(n)) % n
            out = np.take(out, idx, axis=d + 1)
    return out


class ReflectView(_InnerView):
    def __init__(self, inner, mask, s=0.0):
        super().__init__(inner)
        self.mask = tuple(bool(b) for b in mask)
        self.s = float(s)

    def jet(self, t, alpha):
        tt = self.s - t if self.mask[0] else t
        vals = self.inner.jet(tt, alpha)
        sign = 1.0
        if self.mask[0] and alpha[0] % 2:
            sign = -sign
        for d, flip in enumerate(self.mask[1:]):
            if flip and alpha[d + 1] % 2:
                sign = -sign
        return sign * _reflect_values(self.grid, vals, self.mask[1:])


class DiffView(_InnerView):
    """Apply ``sum p(x) M d^delta`` to the inner field, degree(p) <= 1."""

    def __init__(self, inner, factor):
        super().__init__(inner)
        self.factor = factor
        self.weighted |= any(slot for poly, _m, _d in factor.terms for slot, _e in poly)
        for _, mat, _ in factor.terms:
            if mat is not None:
                self.ncomp = mat.shape[0]

    def _coordinate(self, slot, t):
        if slot == 0:
            return t
        axis = slot - 1
        coords = self.grid.coordinates()[axis]
        shape = [1] * (self.grid.ndim + 1)
        shape[axis + 1] = self.grid.modes[axis]
        return coords.reshape(shape)

    def jet(self, t, alpha):
        out = None
        for poly, mat, delta in self.factor.terms:
            total = tuple(a + d for a, d in zip(alpha, delta))
            base = self.inner.jet(t, total)
            if poly:
                (slot, _e) = poly[0]
                piece = base * self._coordinate(slot, t)
                if alpha[slot]:
                    lower = tuple(
                        v - (1 if d == slot else 0) for d, v in enumerate(total)
                    )
                    piece = piece + alpha[slot] * self.inner.jet(t, lower)
            else:
                piece = base
            if mat is not None:
                piece = np.einsum("ab,b...->a...", mat, piece)
            out = piece if out is None else out + piece
        if out is None:
            shape = (self.ncomp,) + self.grid.modes
            out = np.zeros(shape, dtype=complex)
        return out


class ShiftView:
    """Fixed closed-form field evaluated on the grid."""

    def __init__(self, field, grid):
        self.field = field
        self.grid = grid
        self.weighted = any(any(pol[1:]) for (_i, pol, _lam, _k) in field.terms)
        self.ncomp = field.ncomp
        self._points = grid.point_list()

    def jet(self, t, alpha):
        vals = self.field.diff_multi(alpha).evaluate(t, self._points)
        return vals.reshape((self.ncomp,) + self.grid.modes)


def symmetry_view(generator, base, s=None):
    """Wrap a trajectory view with a symmetry chain (factors act left-last).

    For an adjoint characteristic's chain the result is the field view of Q.
    """
    view = base
    for factor in reversed(generator.factors):
        if isinstance(factor, KernelShift):
            view = ShiftView(factor.field, base.grid)
        elif isinstance(factor, MatrixFactor):
            view = MatrixView(view, factor.matrix)
        elif isinstance(factor, Conjugation):
            view = ConjView(view)
        elif isinstance(factor, PointReflect):
            view = ReflectView(view, factor.mask, s=factor.resolve_s(s))
        elif isinstance(factor, DiffFactor):
            view = DiffView(view, factor)
        else:
            raise TypeError(f"unknown factor {factor!r}")
    return view


# -- conserved-series evaluation ---------------------------------------------


@dataclass(frozen=True)
class KappaSeries:
    """Sampled conserved functional with its drift.

    ``drift = max_t |kappa(t) - kappa(0)| / (|kappa(0)| + scale)`` where
    ``scale`` is the largest L1 magnitude of the density over the sampled
    times.  The additive scale keeps the metric meaningful for functionals
    whose conserved value happens to be zero (identically cancelling
    densities), without masking genuine drift of order the density size.
    A weighted view's ``boundary_fraction`` is the worst one of ``u(t)``.
    """

    times: tuple
    values: tuple  # complex kappa(t)
    scale: float
    drift: float
    boundary_fraction: float | None = None

    def as_rows(self):
        k0 = self.values[0]
        den = abs(k0) + self.scale + 1e-300
        return [
            (t, v.real, v.imag, abs(v - k0) / den)
            for t, v in zip(self.times, self.values)
        ]


def drift_of(values, scale=0.0):
    """The drift of a kappa series.

    Raises on no samples, non-finite ones, or an identically zero density
    (``kappa(0)`` and ``scale`` both zero), which no drift can judge.
    """
    if len(values) == 0:
        raise ValueError("kappa series has no sample times")
    if not (np.isfinite(values).all() and np.isfinite(scale)):
        raise ValueError("kappa series is non-finite; its drift is undefined")
    k0 = values[0]
    if abs(k0) + scale == 0:
        raise ValueError("the density is identically zero; its drift is undefined")
    return max(abs(v - k0) for v in values) / (abs(k0) + scale + 1e-300)


def kappa_series(flux, qviews, traj, times, support_tol=SUPPORT_TOL):
    """Evaluate ``kappa(t) = integral X0(Q, u) dx`` for each characteristic.

    ``flux`` is the bilinear current of the operator, ``qviews`` the field
    views of the characteristics over the trajectory ``traj``.  At each time
    every view reads the trajectory's jets of that time, which are forgotten
    before the next.  Returns one series with its relative drift per view.
    With a weighted view, a jet of ``traj`` read at a time, ``u(t)`` among them,
    whose boundary fraction is not within ``support_tol`` raises ``SupportError``.
    """
    grid = traj.grid
    weighted = any(qview.weighted for qview in qviews)
    u = (0,) * (grid.ndim + 1)
    worst = 0.0
    values = [[] for _ in qviews]
    scales = [0.0] * len(qviews)
    for t in times:
        for i, qview in enumerate(qviews):
            jet_q = functools.cache(functools.partial(qview.jet, t))
            integrand = evaluate_terms(flux.density_terms, jet_q, functools.partial(traj.jet, t))
            values[i].append(integrate(grid, integrand))
            scales[i] = max(scales[i], abs(integrate(grid, np.abs(integrand))))
        if weighted:
            traj.jet(t, u)
            fractions = {key: boundary_fraction(grid, vals) for key, vals in traj._jets.items()}
            worst = max(worst, fractions[(float(t), u)])
            for (tj, alpha), bf in fractions.items():
                if not (bf <= support_tol):
                    raise SupportError(
                        f"boundary fraction {bf:.2e} exceeds {support_tol:g} at t={tj:g} in d^{alpha} u"
                    )
        traj.forget()
    times = tuple(float(t) for t in times)
    return [
        KappaSeries(times, tuple(v), sc, drift_of(v, sc), worst if qview.weighted else None)
        for v, sc, qview in zip(values, scales, qviews)
    ]


# -- whole-space heat-flow oracle --------------------------------------------


def heat_flow_product_oracle(profile, s, times):
    """Whole-line values of ``E(t) = integral u(x,t) u(x,s-t) dx`` for heat flow.

    ``profile`` is a callable initial condition with numerically compact
    support inside ``[-24, 24]``.  Both Cauchy solutions are produced by
    trapezoid quadrature against the Gaussian heat kernel on 2401 points; a
    refined grid of 4801 points cross-checks the quadrature and the result
    carries the estimated error.  On the uniform grid the kernel depends only
    on the offset ``x_i - y_j = (i - j) h``, so each solve samples it on the
    ``2n - 1`` offsets and convolves it with the weighted data, in O(n) memory.

    ``s`` must be finite and > 0 and ``times`` non-empty, each strictly
    inside ``(0, s)``.  Non-finite profile samples, or data or a solved field
    whose largest end value relative to its maximum exceeds ``SUPPORT_TOL``,
    raise ``ValueError``.

    Returns ``(values, quad_error)``.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"s must be a finite number > 0, got {s!r}")
    if len(times) == 0:
        raise ValueError("times must not be empty")
    for t in times:
        if not 0 < t < s:
            raise ValueError("times must lie strictly inside (0, s)")

    def supported(what, vals):
        edge = max(abs(vals[0]), abs(vals[-1]))
        if not (edge <= SUPPORT_TOL * np.max(np.abs(vals))):
            raise ValueError(
                f"{what} is not supported inside [-24, 24]: its end value exceeds "
                f"{SUPPORT_TOL:g} of its maximum"
            )

    def run(n):
        # the exact step: y[1] - y[0] rounds it by up to ~1e-13 relative,
        # which would scale every offset and weight
        y, h = np.linspace(-24.0, 24.0, n, retstep=True)
        f = profile(y)
        if not np.isfinite(f).all():
            raise ValueError("heat-flow profile samples are non-finite")
        supported("the heat-flow profile", f)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        wf = w * f
        offsets2 = (h * np.arange(-(n - 1), n)) ** 2

        def solve(t):
            kern = np.exp(-offsets2 / (4.0 * t)) / np.sqrt(4 * np.pi * t)
            u = np.convolve(wf, kern, mode="valid")
            supported(f"the heat flow at t={t:g}", u)
            return u

        return np.array([float(np.sum(w * solve(t) * solve(s - t))) for t in times])

    coarse = run(2401)
    fine = run(4801)
    err = float(np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)))
    return fine, err
