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

The module keeps one cache: each ``Trajectory`` stores, per sample time, the
stack of its companion state and the time derivatives computed so far.
Propagators are not kept, and ``kappa_series`` memoises field jets for one
sample time only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .current import evaluate_terms
from .fields import evolution_matrix
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
        return np.meshgrid(*self.wavenumbers(), indexing="ij")

    def mode_mask(self):
        """Retained modes: Nyquist rows dropped, optional spherical cutoff."""
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

    @classmethod
    def from_values(cls, grid, values, time=0.0):
        values = np.asarray(values, dtype=complex)
        axes = tuple(range(1, grid.ndim + 1))
        coeffs = np.fft.fftn(values, axes=axes) / grid.npoints
        return cls(grid, coeffs, time)

    def values(self):
        axes = tuple(range(1, self.grid.ndim + 1))
        return np.fft.ifftn(self.coeffs, axes=axes) * self.grid.npoints

    def norm_sq(self):
        """Integral of |u|^2 over the box, computed in mode space."""
        return self.grid.volume * float(np.sum(np.abs(self.coeffs) ** 2))

    def is_real(self, tol=1e-12):
        return float(np.max(np.abs(self.values().imag))) <= tol * max(
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
    """Per-mode first-order reduction ``U' = A(k) U`` of a square operator."""

    def __init__(self, L, grid, amp_cap=1e6):
        if L.nvars != grid.ndim + 1:
            raise ValueError("operator dimension does not match the grid")
        self.L = L
        self.grid = grid
        self.amp_cap = float(amp_cap)
        self.m = L.cols
        self.R = L.time_order()
        mask = grid.mode_mask()
        self.active = np.flatnonzero(mask.reshape(-1))
        kk = [k.reshape(-1)[self.active] for k in grid.wavevector_grids()]
        d = self.m * self.R
        A = np.empty((len(self.active), d, d), dtype=complex)
        for idx in range(len(self.active)):
            kvec = [k[idx] for k in kk]
            A[idx] = evolution_matrix(L, kvec)
        self.A = A
        # fast closed-form exponential where A^2 is a multiple of the identity
        A2 = A @ A
        eye = np.eye(d)
        lam = np.einsum("mii->m", A2) / d
        resid = np.abs(A2 - lam[:, None, None] * eye).max(axis=(1, 2))
        scale = np.abs(A).max(axis=(1, 2)) ** 2 + 1e-300
        self.fast = resid <= 1e-13 * scale
        self.lam = lam

    def propagator(self, dt):
        """Batched ``exp(dt A)`` over active modes, with an amplification cap.

        Raises ``AmplificationError`` if an entry exceeds ``amp_cap`` or is
        not finite (an overflowing cosh/sinh times a zero entry gives NaN).
        """
        d = self.A.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            if d == 1:
                # scalar modes: direct exponential (the cosh/sinh split would
                # overflow on strongly decaying modes)
                P = np.exp(dt * self.A)
            else:
                P = np.empty_like(self.A)
                fast = self.fast
                if fast.any():
                    z = np.sqrt(self.lam[fast].astype(complex))
                    zt = z * dt
                    c1 = np.cosh(zt)
                    small = np.abs(zt) < 1e-8
                    c2 = np.empty_like(z)
                    nz = ~small
                    c2[nz] = np.sinh(zt[nz]) / z[nz]
                    c2[small] = dt * (1.0 + zt[small] ** 2 / 6.0)
                    eye = np.eye(d)
                    P[fast] = c1[:, None, None] * eye + c2[:, None, None] * self.A[fast]
                for idx in np.flatnonzero(~fast):
                    P[idx] = expm(dt * self.A[idx])
        if not np.isfinite(P).all():
            raise AmplificationError(
                f"propagator is non-finite for dt={dt:+.6g}; the evolution is "
                "ill-posed at this resolution; reduce kmax or the time span"
            )
        amp = float(np.abs(P).max())
        if amp > self.amp_cap:
            raise AmplificationError(
                f"mode amplification {amp:.3e} exceeds cap {self.amp_cap:.1e} "
                f"for dt={dt:+.6g}; reduce kmax or the reflected time span"
            )
        return P

    def scatter(self, active_values, fill=0.0):
        """Expand per-active-mode data (n_active, ...) to full mode arrays."""
        out = np.full((self.grid.npoints,) + active_values.shape[1:], fill, dtype=complex)
        out[self.active] = active_values
        return out


class Trajectory:
    """Exactly evolvable solution: companion state at t0 plus the system.

    The trajectory's one cache maps a sample time to the stack
    ``[U, A U, A^2 U, ...]`` of its companion state and the time derivatives
    asked for so far; ``companion_at(t)`` is entry 0.
    """

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

    @property
    def grid(self):
        return self.system.grid

    @property
    def ncomp(self):
        return self.system.m

    def _time_derivative(self, t, order):
        key = float(t)
        stack = self._stacks.get(key)
        if stack is None:
            P = self.system.propagator(key - self.t0)
            stack = self._stacks[key] = [np.einsum("mij,mj->mi", P, self.U0)]
        while len(stack) <= order:
            stack.append(np.einsum("mij,mj->mi", self.system.A, stack[-1]))
        return stack[order]

    def companion_at(self, t):
        return self._time_derivative(t, 0)

    def state_at(self, t):
        """Physical field (first companion block) as a SpectralState."""
        U = self.companion_at(t)
        coeffs = self.system.scatter(U[:, : self.system.m]).T.reshape(
            (self.system.m,) + self.grid.modes
        )
        return SpectralState(self.grid, coeffs, time=t)

    def jet_values(self, t, alpha):
        """Grid values of ``d^alpha u`` at time ``t`` (alpha over t, x1..xn)."""
        U = self._time_derivative(t, alpha[0])
        coeffs = self.system.scatter(U[:, : self.system.m]).T.reshape(
            (self.system.m,) + self.grid.modes
        )
        kk = self.grid.wavevector_grids()
        for d, e in enumerate(alpha[1:]):
            if e:
                coeffs = coeffs * (1j * kk[d]) ** e
        axes = tuple(range(1, self.grid.ndim + 1))
        return np.fft.ifftn(coeffs, axes=axes) * self.grid.npoints

    def jet(self, t, alpha):
        """Field-view interface: the trajectory is the innermost view."""
        return self.jet_values(t, alpha)


# -- field views -------------------------------------------------------------


class MatrixView:
    def __init__(self, inner, matrix):
        self.inner = inner
        self.grid = inner.grid
        self.matrix = np.asarray(matrix, dtype=complex)
        self.ncomp = self.matrix.shape[0]

    def jet(self, t, alpha):
        vals = self.inner.jet(t, alpha)
        return np.einsum("ab,b...->a...", self.matrix, vals)


class ConjView:
    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid
        self.ncomp = inner.ncomp

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


class ReflectView:
    def __init__(self, inner, mask, s=0.0):
        self.inner = inner
        self.grid = inner.grid
        self.ncomp = inner.ncomp
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


class DiffView:
    """Apply ``sum p(x) M d^delta`` to the inner field, degree(p) <= 1."""

    def __init__(self, inner, factor, support_tol=1e-10):
        self.inner = inner
        self.grid = inner.grid
        self.factor = factor
        self.support_tol = support_tol
        self.ncomp = inner.ncomp
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
                if slot != 0 and boundary_fraction(self.grid, base) > self.support_tol:
                    raise SupportError(
                        "position-weighted factor applied to a field with "
                        f"boundary mass above {self.support_tol:g}"
                    )
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
        self.ncomp = field.ncomp
        self._points = grid.point_list()

    def jet(self, t, alpha):
        vals = self.field.diff_multi(alpha).evaluate(t, self._points)
        return vals.reshape((self.ncomp,) + self.grid.modes)


def symmetry_view(generator, base, s=None, support_tol=1e-10):
    """Wrap a trajectory view with a symmetry chain (factors act left-last)."""
    if isinstance(generator, KernelShift):
        return ShiftView(generator.field, base.grid)
    view = base
    for factor in reversed(generator.factors):
        if isinstance(factor, MatrixFactor):
            view = MatrixView(view, factor.matrix)
        elif isinstance(factor, Conjugation):
            view = ConjView(view)
        elif isinstance(factor, PointReflect):
            view = ReflectView(view, factor.mask, s=factor.resolve_s(s))
        elif isinstance(factor, DiffFactor):
            view = DiffView(view, factor, support_tol)
        else:
            raise TypeError(f"unknown factor {factor!r}")
    return view


def characteristic_view(char, traj, s=0.0, support_tol=1e-10):
    """Field view of Q built from a characteristic over a trajectory."""
    view = symmetry_view(char.generator, traj, s=s, support_tol=support_tol)
    if not char.direct:
        if any(char.parity_mask):
            view = ReflectView(view, char.parity_mask, s=s)
        view = MatrixView(view, char.matrix)
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
    """

    times: tuple
    values: tuple  # complex kappa(t)
    scale: float
    drift: float

    def as_rows(self):
        k0 = self.values[0]
        den = abs(k0) + self.scale + 1e-300
        return [
            (t, v.real, v.imag, abs(v - k0) / den)
            for t, v in zip(self.times, self.values)
        ]


def drift_of(values, scale=0.0):
    """The drift of a kappa series; raises on no samples or non-finite ones."""
    if len(values) == 0:
        raise ValueError("kappa series has no sample times")
    if not (np.isfinite(values).all() and np.isfinite(scale)):
        raise ValueError("kappa series is non-finite; its drift is undefined")
    k0 = values[0]
    return max(abs(v - k0) for v in values) / (abs(k0) + scale + 1e-300)


def _jets_at(view, t):
    """``alpha -> view.jet(t, alpha)``, memoised for this one sample time."""
    memo = {}

    def jet(alpha):
        key = tuple(alpha)
        if key not in memo:
            memo[key] = view.jet(t, alpha)
        return memo[key]

    return jet


def kappa_series(flux, qview, traj, times, conjugate_first=True):
    """Evaluate ``kappa(t) = integral X0(Q, u) dx`` along a trajectory.

    ``flux`` is the bilinear current of the operator, ``qview`` the field view
    of the characteristic, ``traj`` the solution trajectory.  Returns the
    series and its relative drift.
    """
    grid = traj.grid
    values = []
    scale = 0.0
    for t in times:
        integrand = evaluate_terms(
            flux.density_terms,
            _jets_at(qview, t),
            _jets_at(traj, t),
            conjugate_first=conjugate_first,
        )
        values.append(integrate(grid, integrand))
        scale = max(scale, abs(integrate(grid, np.abs(integrand))))
    values = tuple(values)
    return KappaSeries(
        tuple(float(t) for t in times), values, scale, drift_of(values, scale)
    )


# -- whole-space heat-flow oracle --------------------------------------------


def _heat_solve_line(f_vals, y, x, t):
    """Trapezoid convolution of samples against the 1-d Gaussian kernel."""
    if t <= 0:
        raise ValueError("need t > 0")
    h = y[1] - y[0]
    kern = np.exp(-((x[:, None] - y[None, :]) ** 2) / (4.0 * t)) / np.sqrt(4 * np.pi * t)
    w = np.full(len(y), h)
    w[0] = w[-1] = h / 2
    return kern @ (w * f_vals)


def heat_flow_product_oracle(profile, s, times, half_width=24.0, npts=2401):
    """Whole-line values of ``E(t) = integral u(x,t) u(x,s-t) dx`` for heat flow.

    ``profile`` is a callable initial condition with numerically compact
    support inside ``[-half_width, half_width]``.  Both Cauchy solutions are
    produced by Gaussian-kernel quadrature; a refined grid cross-checks the
    quadrature and the result carries the estimated error.

    Returns ``(values, quad_error)``.
    """
    for t in times:
        if not 0 < t < s:
            raise ValueError("times must lie strictly inside (0, s)")

    def run(n):
        y = np.linspace(-half_width, half_width, n)
        x = np.linspace(-half_width, half_width, n)
        f = profile(y)
        hx = x[1] - x[0]
        wx = np.full(len(x), hx)
        wx[0] = wx[-1] = hx / 2
        out = []
        for t in times:
            u_t = _heat_solve_line(f, y, x, t)
            u_s = _heat_solve_line(f, y, x, s - t)
            out.append(float(np.sum(wx * u_t * u_s)))
        return np.array(out)

    coarse = run(npts)
    fine = run(2 * npts - 1)
    err = float(np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)))
    return fine, err
