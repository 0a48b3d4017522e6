"""Exact-in-time spectral lab on a periodic torus.

Evolution systems are reduced per Fourier mode to ``U' = A(k) U`` with the
block-companion matrix of the operator's time polynomial, and propagated by
exact matrix exponentials, so drift of a conserved functional measures the
mathematics rather than an integrator.  The Nyquist row is dropped to keep
the retained mode set symmetric under k -> -k; an optional spherical cutoff
``kmax`` band-limits further (needed whenever a reflected time evolution
would otherwise amplify beyond the configured cap).  A propagator with an
entry above the cap or a non-finite entry raises ``AmplificationError``, and
a non-finite kappa value raises instead of yielding a drift.  A matrix-free
propagator checks its entries one by one only when a per-block bound does
not already clear the cap.

Propagation is matrix-free whenever the leading time coefficient is
constant: ``A(k)`` is a sum of constant matrices times real monomials in
``k``, and when every symmetrised product of those matrices is a multiple of
the identity (Dirac, wave, kdvkdv, heat) ``A(k)^2 = lam(k) I``, so ``exp(dt
A) U = c1 U + c2 A U`` needs no matrix at all.  Such a system holds ``O(d)``
numbers per mode; a trajectory forms ``A U0`` once and each sample time's
state is ``c1 U0 + c2 (A U0)``.  A ``k``-dependent lead or a symbol that is
not fast keeps a stacked ``A(k)`` and takes one batched ``expm`` per block.
``EvolutionSystem.A`` is a read-only view of the stack, which a matrix-free
system assembles on demand for readers; no solver path reads it.  Work over
modes goes one block of at most ``MODE_BLOCK`` active modes at a time, and
blocking leaves every number bit-identical to a one-block run.

A trajectory makes the jets of many sample times in one pass, with the
time as an array axis: each block's propagation factors are evaluated for
every time at once, ``A`` is applied once per time order to the ``(T,
n_active, d)`` stack of states, and each time order is scattered once, into
one ``(T, m, *modes)`` stack of coefficients.  A jet with space derivatives
multiplies its factors into its own stack, once for all its times; the
plain jet is inverse-transformed in place of the scattered coefficients, one
``(t, alpha)`` row at a time.

A field view (a symmetry chain over a trajectory) computes no grid values.
Its ``jet(times, alpha)`` is a linear form over the trajectory at every
sample time of a run at once: a short list of terms ``coef * w(x) * M @ S``,
where ``S`` is a trajectory jet at a (maybe reflected) source time per
sample time, reflected on some spatial axes and maybe conjugated, or a
fixed kernel field, and ``w`` a product of coordinates.  A characteristic's
density terms are compiled once per run into one ``(T, k, m)`` stack ``B``
per group ``(w, S, gamma)``, a ``(k, m)`` matrix per sample time (the rows
differ only when a time slot weights a term), and each group is contracted
as ``w * sum_a conj(S[a]) (B[r] @ d^gamma u)[a]`` at time ``r``: only
``N``-point products and small matrix products run on the grid.

A trajectory keeps no cache; ``kappa_series`` owns the jets.  It compiles
each view once, for every sample time, so it knows every jet the run
needs.  On a small grid, where the jets of every time read fit in
``MODE_BLOCK // 2`` points, one ``Trajectory.jets`` call makes them all in
one pass and each view is contracted once: ``current.evaluate_terms`` takes
a leading time axis, so one call with a row per sample time replaces one
call per time, with the same bits in every row.  The contraction reads the
jets as basic-slice views of their stacks (a reflected time ``s - t`` as a
negative step); only an irregular time order takes one gather.  On a larger
grid a sample time's jets are made with those of the sample times whose
jets it reads (a reflected pair), each time is contracted on its own, the
one-row case of the same call, and the batch's jets are dropped before the
next; this runs the same pass on one or two times.  ``evaluate_terms`` works
``CHUNK`` grid points at a time and gathers reflected sources block by
block, so the only ``(k, N)`` arrays are the jets.  Propagators are not
kept.  ``kappa_series`` is also the one support guard: when a field view is
``weighted`` by a spatial coordinate, it checks the boundary fraction of each
jet once, one component at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .current import evaluate_terms
from .fields import evolution_matrices, evolution_symbol
from .symmetry import (
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
)

__all__ = [
    "TorusGrid",
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

    @functools.cached_property
    def npoints(self):
        return int(np.prod(self.modes))

    @functools.cached_property
    def volume(self):
        return float(np.prod(self.lengths))

    def coordinates(self):
        """Centered physical coordinates, one 1-d array per dimension."""
        return [
            -L / 2 + L * np.arange(n) / n for L, n in zip(self.lengths, self.modes)
        ]

    def wavenumbers(self):
        """Angular wavenumbers in FFT order, one read-only 1-d array per dimension."""
        return self._wavenumbers

    @functools.cached_property
    def _wavenumbers(self):
        ks = tuple(2 * np.pi * np.fft.fftfreq(n, d=L / n) for L, n in zip(self.lengths, self.modes))
        for k in ks:
            k.flags.writeable = False
        return ks

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
            with np.errstate(over="ignore"):  # an overflowing |k|^2 is inf, beyond any kmax
                mask &= sum(k * k for k in kk) <= self.kmax * self.kmax + 1e-12
        mask.flags.writeable = False
        return mask

    def point_list(self):
        """All grid points as an (npoints, ndim) array (C order)."""
        mesh = np.meshgrid(*self.coordinates(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _to_grid(coeffs):
    """Grid values of Fourier coefficients (component axis first), in place.

    The unscaled inverse transform (``norm="forward"``) is ``ifftn(coeffs) *
    npoints`` bit for bit, because every mode count is a power of two.  A
    one-axis grid takes ``ifft``, which gives ``ifftn``'s bits without its
    n-d wrapper.
    """
    if coeffs.ndim == 2:
        return np.fft.ifft(coeffs, norm="forward", out=coeffs)
    return np.fft.ifftn(coeffs, axes=tuple(range(1, coeffs.ndim)), norm="forward", out=coeffs)


def _to_coeffs(values):
    """Fourier coefficients of grid values (component axis first), in place:
    the inverse of :func:`_to_grid`, and ``fftn(values) / npoints`` bit for bit
    (``fft`` on a one-axis grid)."""
    if values.ndim == 2:
        return np.fft.fft(values, norm="forward", out=values)
    return np.fft.fftn(values, axes=tuple(range(1, values.ndim)), norm="forward", out=values)


def boundary_fraction(grid, values):
    """Max |values| on the outermost grid layer relative to the global max.

    ``values`` has the component axis first; ``|.|`` is taken one component at
    a time.  A NaN anywhere gives NaN.
    """
    tops = np.empty(len(values))
    edges = np.empty((len(values), grid.ndim))
    for c, comp in enumerate(values):
        mags = np.abs(comp)
        tops[c] = mags.max()
        for d in range(grid.ndim):
            edges[c, d] = mags[(slice(None),) * d + (0,)].max()
    top = float(tops.max())
    if top == 0.0:
        return 0.0
    return float(edges.max()) / top


class EvolutionSystem:
    """Per-mode first-order reduction ``U' = A(k) U`` of a square operator.

    With a constant leading time coefficient the companion matrix is a
    polynomial ``A(k) = sum_beta k^beta Abar_beta`` (``fields.evolution_symbol``).
    Its fastness is decided once, symbolically: when every symmetrised product
    ``Abar_a Abar_b + Abar_b Abar_a`` is a multiple of ``I``, ``A(k)^2 =
    lam(k) I`` with ``lam`` a polynomial, and the system is matrix-free.  It
    keeps the constant matrices, one real array per non-constant monomial and
    ``lam``, and ``exp(dt A) U = c1 U + c2 A U`` (``exp(dt a) U`` for scalar
    modes).  A ``k``-dependent lead or a symbol that is not fast keeps the
    stacked ``A`` from ``fields.evolution_matrices``, built one block of at
    most ``MODE_BLOCK`` modes at a time, and propagates every mode by
    ``expm``: its ``fast`` is all False and its ``lam`` None.  ``propagator``
    serves both.  A box too small for the operator's wavenumbers, where a
    monomial ``k^beta``, ``lam`` or ``A(k)`` is non-finite at some active
    mode, is refused with ``ValueError`` naming the first such mode.
    """

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite symbol is refused by mode
    def __init__(self, L, grid, amp_cap=AMP_CAP):
        if L.nvars != grid.ndim + 1:
            raise ValueError("operator dimension does not match the grid")
        self.L = L
        self.grid = grid
        self.amp_cap = float(amp_cap)
        self.m = L.cols
        self.R = L.time_order()
        self.active = np.flatnonzero(grid.mode_mask().reshape(-1))
        n, d = len(self.active), self.m * self.R
        kk = [k.reshape(-1)[self.active] for k in grid.wavevector_grids()]
        monos = {alpha[1:]: _monomial(kk, alpha[1:]) for alpha in L.terms}  # k^beta of L's terms
        _refuse_overflow(kk, *[s for s in monos.values() if s is not None])
        symbol = evolution_symbol(L)
        squares = None if symbol is None else _square_coefficients(list(symbol.values()))
        self._stack = None  # the stacked A(k) when the system is not matrix-free
        if squares is not None:
            mats = list(symbol.values())  # Abar_0 first
            sym = [monos[beta] for beta in symbol]  # None for 1
            self._const = mats[0]
            self._terms = list(zip(sym[1:], mats[1:]))
            # lam is a real polynomial in k when every square coefficient is real
            real = all(c.imag == 0 for c in squares.values())
            if real:
                squares = {ab: c.real for ab, c in squares.items()}
            self.lam = np.zeros(n, dtype=float if real else complex)
            for (a, b), c in squares.items():
                term = c
                for s in (sym[a], sym[b]):
                    if s is not None:
                        term = term * s
                self.lam += term
            _refuse_overflow(kk, self.lam)
            self.fast = np.ones(n, dtype=bool)
            # the distinct entries of A(k) as coefficient vectors over (1, k^beta, ...):
            # diagonal ones, and nonzero off-diagonal ones up to sign
            coefs = np.stack(mats)
            self._diag = {tuple(coefs[:, i, i]) for i in range(d)}
            self._off = {
                _up_to_sign(coefs[:, i, j]) for i in range(d) for j in range(d) if i != j and coefs[:, i, j].any()
            }
            # E = max |A_ij(k)| per block bounds every entry of exp(dt A) there
            # by max|c1| + max|c2| E; scalar modes take no bound
            self._entry_bound = {} if d == 1 else {
                (b.start, b.stop): max(float(np.max(np.abs(self._entry(v, b)))) for v in self._diag | self._off)
                for b in self.blocks()
            }
            return
        kspace = np.stack(kk, axis=-1)
        self._stack = np.empty((n, d, d), dtype=complex)
        for block in self.blocks():
            self._stack[block] = evolution_matrices(L, kspace[block])
        _refuse_overflow(kk, self._stack)
        self._stack.flags.writeable = False
        self.lam = None
        self.fast = np.zeros(n, dtype=bool)

    @property
    def A(self):
        """The read-only ``(n_active, d, d)`` stack of ``A(k)``.

        A matrix-free system assembles it on each access; no solver path reads it.
        """
        if self._stack is not None:
            return self._stack
        A = np.empty((len(self.active),) + self._const.shape, dtype=complex)
        A[:] = self._const
        for s, M in self._terms:
            A += s[:, None, None] * M
        A.flags.writeable = False
        return A

    @property
    def matrix_free(self):
        """Whether the system propagates from the symbols, holding no ``A`` stack."""
        return self._stack is None

    def blocks(self):
        """Slices of consecutive active modes, ``MODE_BLOCK`` at most each."""
        n = len(self.active)
        return [slice(i, min(i + MODE_BLOCK, n)) for i in range(0, n, MODE_BLOCK)]

    def _entry(self, coefs, modes):
        """Per-mode values of the entry ``sum_beta coefs[beta] k^beta`` of ``A(k)``."""
        out = coefs[0]
        for c, (s, _M) in zip(coefs[1:], self._terms):
            if c:
                out = out + c * s[modes]
        return out

    def apply(self, U, modes=slice(None), out=None):
        """``A U`` for the states ``U``, shape ``(..., modes, d)``, of the active modes ``modes``, into ``out`` if given."""
        if self._stack is not None:
            return np.einsum("mij,...mj->...mi", self._stack[modes], U, out=out)
        out = np.matmul(U, self._const.T, out=out)
        for s, M in self._terms:
            term = U @ M.T
            term *= s[modes, None]
            out += term
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def factors(self, dts, modes=slice(None)):
        """The factors of ``exp(dt A)`` on the active modes ``modes`` for every ``dt`` of ``dts``, in one pass.

        Returns one ``(amp, a, b)`` per time, which ``propagator`` applies:
        ``a`` is one batched ``expm`` of a stacked system, ``exp(dt a)`` for
        scalar modes (``b`` None in both), and ``(a, b) = (c1, c2)`` of the
        closed form otherwise.  ``amp`` is the largest entry of ``exp(dt
        A)`` on the modes, which ``propagator`` checks against the cap, or
        None where ``max|c1| + max|c2| E``, with ``E`` the largest ``|A_ij(k)|``
        of the block (found once, at build), already clears it.  A
        matrix-free system takes each entry ``c1 delta_ij + c2 A_ij(k)``
        from the symbols, and forms no matrix.  Every number has the bits of
        a one-time evaluation.
        """
        dts = np.asarray(dts, dtype=float)
        if self._stack is not None:
            P = expm(dts[:, None, None, None] * self._stack[modes])
            return [(float(amp), p, None) for amp, p in zip(_row_max(np.abs(P)), P)]
        if len(self._const) == 1:
            # scalar modes: direct exponential (the cosh/sinh split would
            # overflow on strongly decaying modes)
            (a,) = self._diag
            p = np.exp(dts[:, None] * self._entry(a, modes))
            return [(float(amp), row, None) for amp, row in zip(_row_max(np.abs(p)), p)]
        c1, c2 = _closed_form(dts, self.lam[modes])
        amps = [None] * len(dts)
        over = np.flatnonzero(~self._within_cap(c1, c2, modes))
        if len(over):
            c1o, c2o = c1[over], c2[over]
            amp = [_row_max(np.abs(c1o + c2o * self._entry(v, modes))) for v in self._diag]
            amp += [_row_max(np.abs(c2o * self._entry(v, modes))) for v in self._off]
            for i, x in zip(over, np.max(amp, axis=0)):  # np.max keeps a NaN
                amps[i] = float(x)
        return list(zip(amps, c1, c2))

    def propagator(self, dt, U, modes=slice(None), AU=None, factors=None):
        """``exp(dt A) U`` for the states ``U``, shape ``(modes, d)``, of the active modes ``modes``.

        ``factors`` are this time's ``(amp, a, b)`` from ``factors``, which
        a caller with many times evaluates for all of them at once; without
        them the propagator evaluates them for ``dt`` alone.  A stacked
        system applies its modes' ``expm``, scalar modes ``exp(dt a)``, and a
        matrix-free system returns ``c1 U + c2 A U``, taking ``A U`` from
        ``AU`` when the caller has formed it (the other two ignore ``AU``).
        Raises ``AmplificationError`` if an entry of ``exp(dt A)`` exceeds
        ``amp_cap`` or is not finite (an overflowing cosh/sinh times a zero
        entry gives NaN); a matrix-free system checks this only when its
        block bound does not clear the cap (``factors``).
        """
        if factors is None:
            (factors,) = self.factors([dt], modes)
        amp, a, b = factors
        if amp is not None:
            self._check_amplification(dt, amp)
        with np.errstate(over="ignore", invalid="ignore"):
            if self._stack is not None:
                return np.einsum("mij,mj->mi", a, U)
            if b is None:
                return a[:, None] * U
            if AU is None:
                AU = self.apply(U, modes)
            return a[:, None] * U + b[:, None] * AU

    def _within_cap(self, c1, c2, modes):
        """Whether ``max|c1| + max|c2| E`` clears the cap with room for rounding, per time (row).

        ``E`` is the bound of the block ``modes`` (of all blocks for other
        modes).  A NaN or infinite bound does not clear it, so the exact
        per-entry check decides and words any refusal.
        """
        key = (modes.start, modes.stop) if isinstance(modes, slice) else None
        E = self._entry_bound.get(key)
        if E is None:
            E = max(self._entry_bound.values())
        bound = _row_max(np.abs(c1)) + _row_max(np.abs(c2)) * E
        return np.isfinite(bound) & (bound <= self.amp_cap * (1 - 1e-9))

    def _check_amplification(self, dt, amp):
        """Refuse a propagator whose largest entry ``amp`` is non-finite or above the cap."""
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


def _refuse_overflow(kk, *arrays):
    """Refuse the first active mode (wavenumbers ``kk``) at which one of ``arrays`` is non-finite."""
    for a in arrays:
        bad = ~np.isfinite(a.reshape(len(a), -1)).all(axis=1)
        if bad.any():
            k = tuple(float(f"{x[np.argmax(bad)]:.3g}") for x in kk)
            msg = "the box is too small for its wavenumbers: enlarge it or lower kmax"
            raise ValueError(f"the operator's symbol is non-finite at k={k}; {msg}")


def _monomial(kk, beta):
    """The real monomial ``k^beta`` over the active modes, ``kk`` one array per axis.

    Powers are repeated products, as in the complex powers of ``(i k)``.
    """
    s = None
    for k, e in zip(kk, beta):
        for _ in range(e):
            s = k if s is None else s * k
    return s


def _up_to_sign(v):
    """``v`` or ``-v`` as a tuple, whichever has its first nonzero entry positive (real part first)."""
    first = v[np.flatnonzero(v)[0]]
    return tuple(v if (first.real, first.imag) > (0, 0) else -v)


def _square_coefficients(mats):
    """``{(a, b): c}`` with ``M_a M_b + M_b M_a = c I`` (``M_a^2 = c I`` when a == b), c nonzero.

    Returns None when some symmetrised product is not a multiple of ``I``:
    then ``A(k)^2`` need not be a multiple of ``I``.
    """
    d = len(mats[0])
    out = {}
    for a in range(len(mats)):
        for b in range(a, len(mats)):
            S = mats[a] @ mats[b]
            if a != b:
                S = S + mats[b] @ mats[a]
            c = np.trace(S) / d
            if np.abs(S - c * np.eye(d)).max() > 1e-13 * np.abs(mats[a]).max() * np.abs(mats[b]).max():
                return None
            if c != 0:
                out[(a, b)] = c
    return out


def _row_max(a):
    """The largest entry of each row (first axis) of ``a``; a NaN row gives NaN."""
    return a.reshape(len(a), -1).max(axis=1)


def _closed_form(dts, lam):
    """``(c1, c2)``, one row per time of ``dts``, with ``exp(dt A) = c1 I + c2 A`` where ``A^2 = lam I``.

    A real ``lam`` takes real functions of ``z = sqrt(|lam|)``: ``cos(z dt)``
    and ``sin(z dt) / z`` where ``lam <= 0``, ``cosh`` and ``sinh`` where
    ``lam > 0``.  A complex ``lam`` takes ``cosh`` and ``sinh`` of ``sqrt(lam) dt``.
    Each entry has the arithmetic of a one-time evaluation.
    """
    dt = dts[:, None]
    if np.iscomplexobj(lam):
        z = np.sqrt(lam)
        zt = z * dt
        c1, s = np.cosh(zt), np.sinh(zt)
    else:
        z = np.sqrt(np.abs(lam))
        zt = z * dt
        c1, s = np.cos(zt), np.sin(zt)
        grow = lam > 0
        if grow.any():
            c1[:, grow], s[:, grow] = np.cosh(zt[:, grow]), np.sinh(zt[:, grow])
    small = np.abs(zt) < 1e-8
    c2 = np.divide(s, z, out=np.empty_like(zt), where=~small)
    if small.any():
        rows, cols = np.nonzero(small)
        ds, ls = dts[rows], lam[cols]
        c2[rows, cols] = ds * (1.0 + ls * ds * ds / 6.0)
    return c1, c2


def _jet_order(alpha):
    """Sort key of a time's jets: by time order, derivative jets before the plain one."""
    return (alpha[0], not any(alpha[1:]), alpha)


def _take_rows(stack, times, want):
    """The rows of ``stack``, one per time of ``times``, at the times ``want`` (a
    subsequence of ``times``): the stack itself when that is all of them, else a
    gathered copy."""
    if len(want) == len(times):
        return stack
    row = {t: r for r, t in enumerate(times)}
    return stack[[row[t] for t in want]]


class Jets(dict):
    """``{(t, alpha): grid values}`` of one ``Trajectory.jets`` pass.

    Each value is one row of a stack that holds the pass's jets of one
    ``alpha``: ``stacks[alpha]`` is ``(rows, stack)``, ``rows`` mapping each
    time to its row.  Keys are in time order, then in ``_jet_order``.
    """

    def __init__(self, items, stacks):
        super().__init__(items)
        self.stacks = stacks


class Trajectory:
    """Exactly evolvable solution: companion state at t0 plus the system.

    Over a matrix-free system with ``d > 1`` it forms ``A U0`` once, so each
    time's state is ``c1 U0 + c2 (A U0)``; a stacked system propagates ``U0``
    by ``expm``.  A trajectory holds nothing else: ``jets`` makes one pass's
    jets from a fresh propagation of all its times, and ``jet_values``
    transforms one of them.
    """

    weighted = False

    def __init__(self, system, companion_coeffs, t0=0.0):
        companion_coeffs = np.asarray(companion_coeffs, dtype=complex)
        d = system.m * system.R
        if companion_coeffs.shape != (d,) + system.grid.modes:
            raise ValueError(f"companion state must have {d} components on the grid")
        if not np.isfinite(companion_coeffs).all():
            raise ValueError("non-finite companion coefficients")
        flat = companion_coeffs.reshape(d, -1)
        self.system = system
        self.t0 = float(t0)
        self.U0 = flat[:, system.active].T.copy()  # (n_active, d)
        # the closed form reads A U0; scalar modes take exp(dt a) U0 instead
        self._AU0 = self._apply(self.U0) if system.matrix_free and d > 1 else None

    @property
    def grid(self):
        return self.system.grid

    @property
    def ncomp(self):
        return self.system.m

    def _companions(self, times):
        """The companion states at ``times``, a ``(T, n_active, d)`` stack.

        Each block's factors are evaluated for every time at once; the
        propagator then applies them one time and block at a time, times in
        order and blocks in order within a time, so a refusal names the
        first time and block that one-time propagation would.
        """
        dts = [float(t) - self.t0 for t in times]
        blocks = self.system.blocks()
        factors = [self.system.factors(dts, block) for block in blocks]
        U = np.empty((len(dts),) + self.U0.shape, dtype=complex)
        for i, dt in enumerate(dts):
            for block, f in zip(blocks, factors):
                AU = None if self._AU0 is None else self._AU0[block]
                U[i, block] = self.system.propagator(dt, self.U0[block], block, AU, f[i])
        return U

    def _companion(self, t):
        """The companion state at the one time ``t``, ``(n_active, d)``."""
        return self._companions((t,))[0]

    def _apply(self, U):
        """``A U`` over all active modes of the states ``U``, ``(..., n_active, d)``, one block at a time."""
        out = np.empty_like(U)
        for block in self.system.blocks():
            self.system.apply(U[..., block, :], block, out=out[..., block, :])
        return out

    def _field_coeffs(self, U):
        """Full-grid Fourier coefficients of the first companion block of the
        states ``U``, ``(..., n_active, d)``: ``(..., m, *modes)``."""
        m = self.system.m
        lead = U.shape[:-2]
        coeffs = np.zeros(lead + (m, self.grid.npoints), dtype=complex)
        coeffs[..., self.system.active] = np.swapaxes(U[..., :m], -1, -2)
        return coeffs.reshape(lead + (m,) + self.grid.modes)

    def _derivative(self, coeffs, alpha):
        """``coeffs``, ``(T, m, *modes)``, times the space-derivative factors ``(i k)^alpha``, in a new array."""
        vals = coeffs
        for d, (k, e) in enumerate(zip(self.grid.wavenumbers(), alpha[1:])):
            if e:
                factor = ((1j * k) ** e).reshape((len(k),) + (1,) * (self.grid.ndim - 1 - d))
                vals = coeffs * factor if vals is coeffs else np.multiply(vals, factor, out=vals)
        return vals

    def jet_values(self, t, alpha, coeffs):
        """Grid values of ``d^alpha u`` at time ``t`` (alpha over t, x1..xn), in place.

        ``coeffs`` is the jet's row of the stack that ``jets`` made, its
        Fourier coefficients with the space derivatives multiplied in; ``t``
        and ``alpha`` name it.
        """
        return _to_grid(coeffs)

    def jets(self, keys):
        """The jets ``keys``, ``(t, alpha)`` pairs, as a ``Jets`` of ``{(t, alpha): values}``.

        The sample time is an array axis.  Every time is propagated in one
        ``(T, n_active, d)`` stack, ``A`` is applied once per time order to
        the times that read it or a higher one, and only the current order's
        stack is kept.  Each time order is scattered once, into ``(T, m,
        *modes)``; each jet with space derivatives multiplies its factors into
        its own stack, once for all its times, before the plain jet takes the
        scattered coefficients in place.  ``jet_values`` then transforms each
        ``(t, alpha)`` row in place.
        """
        keys = {(float(t), tuple(alpha)) for t, alpha in keys}
        if not keys:
            return Jets((), {})
        times = sorted({t for t, _alpha in keys})
        alphas = sorted({alpha for _t, alpha in keys}, key=_jet_order)
        top = {}
        for t, alpha in keys:
            top[t] = max(top.get(t, 0), alpha[0])
        made, stacks = {}, {}
        U, live = self._companions(times), times  # the states and their times
        for order in range(alphas[-1][0] + 1):
            if order:
                rows = [t for t in live if top[t] >= order]
                U, live = self._apply(_take_rows(U, live, rows)), rows
            now = [alpha for alpha in alphas if alpha[0] == order]
            if not now:
                continue
            scattered = [t for t in live if any((t, alpha) in keys for alpha in now)]
            coeffs = self._field_coeffs(_take_rows(U, live, scattered))
            if order == alphas[-1][0]:
                del U
            for alpha in now:
                ts = [t for t in scattered if (t, alpha) in keys]
                vals = _take_rows(coeffs, scattered, ts)
                if any(alpha[1:]):
                    vals = self._derivative(vals, alpha)
                rows = {t: r for r, t in enumerate(ts)}
                stacks[alpha] = (rows, vals)
                for t, r in rows.items():
                    made[(t, alpha)] = self.jet_values(t, alpha, vals[r])
        return Jets(((key, made[key]) for key in sorted(made, key=lambda k: (k[0], _jet_order(k[1])))), stacks)


# -- field views -------------------------------------------------------------
#
# A view's ``jet(times, alpha)`` is a linear form over the trajectory at every
# time of ``times`` (a tuple of sample times) at once: a list of terms ``(coef,
# w, M, src)`` that stands for ``coef * w(x) * M @ S`` at each time.
# ``src = (field, ts, alpha, flip, conj)`` names ``S``: the jet ``d^alpha`` of
# ``field`` (the trajectory or a ``ShiftView``) at the source time ``ts[r]`` of
# each time ``times[r]``, reflected on the spatial axes where ``flip`` is set
# and conjugated when ``conj`` is.  ``M`` is None for the identity; ``w`` is a
# sorted tuple of coordinate factors ``(axis, flipped)``, ``()`` for 1, where a
# flipped factor is the grid flip of the coordinate array (which differs from
# ``-x`` at index 0).  ``coef`` is a real array of one number per time, ones
# where the form starts; each of its values takes the arithmetic a one-time
# form would.


def _form(view, times, alpha):
    """The linear form of ``view``'s jet at ``times``; a trajectory's is its own jet."""
    if isinstance(view, Trajectory):
        return [(np.ones(len(times)), (), None, (view, times, tuple(alpha), (False,) * view.grid.ndim, False))]
    return view.jet(times, alpha)


class _InnerView:
    """A view of the field of the view ``inner``, on its grid, weighted as it is."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid
        self.weighted = inner.weighted


class MatrixView(_InnerView):
    def __init__(self, inner, matrix):
        super().__init__(inner)
        self.matrix = np.asarray(matrix, dtype=complex)

    def jet(self, times, alpha):
        return [
            (c, w, self.matrix if M is None else self.matrix @ M, src)
            for c, w, M, src in _form(self.inner, times, alpha)
        ]


class ConjView(_InnerView):
    def jet(self, times, alpha):
        return [
            (np.conj(c), w, None if M is None else M.conj(), (f, ts, a, flip, not conj))
            for c, w, M, (f, ts, a, flip, conj) in _form(self.inner, times, alpha)
        ]


def _grid_flip(n):
    """Index map of the reflection ``x -> -x`` on an axis of ``n`` points: ``i -> -i mod n``."""
    return (n - np.arange(n)) % n


def _flip_order(grid, spatial_mask):
    """Flat grid index of each point's reflection on the masked spatial axes."""
    index = np.arange(grid.npoints).reshape(grid.modes)
    for d, flip in enumerate(spatial_mask):
        if flip:
            index = np.take(index, _grid_flip(grid.modes[d]), axis=d)
    return index.reshape(-1)


class ReflectView(_InnerView):
    def __init__(self, inner, mask, s=0.0):
        super().__init__(inner)
        self.mask = tuple(bool(b) for b in mask)
        self.s = float(s)

    def jet(self, times, alpha):
        tt = tuple(self.s - t for t in times) if self.mask[0] else times
        sign = (-1) ** sum(a for a, flip in zip(alpha, self.mask) if flip)
        space = self.mask[1:]
        return [
            (
                sign * c,
                tuple(sorted((axis, f != space[axis]) for axis, f in w)),
                M,
                (field, ts, a, tuple(f != r for f, r in zip(flip, space)), conj),
            )
            for c, w, M, (field, ts, a, flip, conj) in _form(self.inner, tt, alpha)
        ]


class DiffView(_InnerView):
    """Apply ``sum p(x) M d^delta`` to the inner field, degree(p) <= 1."""

    def __init__(self, inner, factor):
        super().__init__(inner)
        self.factor = factor
        self.weighted |= any(slot for poly, _m, _d in factor.terms for slot, _e in poly)

    def jet(self, times, alpha):
        out = []
        for poly, mat, delta in self.factor.terms:
            total = tuple(a + d for a, d in zip(alpha, delta))
            piece = _form(self.inner, times, total)
            if poly:
                (slot, _e) = poly[0]
                if slot == 0:
                    piece = [(c * np.asarray(times), w, M, src) for c, w, M, src in piece]
                else:
                    piece = [(c, tuple(sorted(w + ((slot - 1, False),))), M, src) for c, w, M, src in piece]
                if alpha[slot]:
                    # product rule: d^alpha (x f) = x d^alpha f + alpha_x d^(alpha - e_x) f
                    lower = tuple(v - (d == slot) for d, v in enumerate(total))
                    piece += [
                        (alpha[slot] * c, w, M, src)
                        for c, w, M, src in _form(self.inner, times, lower)
                    ]
            if mat is not None:
                piece = [(c, w, mat if M is None else mat @ M, src) for c, w, M, src in piece]
            out += piece
        return out


class ShiftView:
    """Fixed closed-form field: its jet is a fixed source, its ``values`` the grid values."""

    def __init__(self, field, grid):
        self.field = field
        self.grid = grid
        self.weighted = any(any(pol[1:]) for (_i, pol, _lam, _k) in field.terms)
        self.ncomp = field.ncomp
        self._points = grid.point_list()

    def jet(self, times, alpha):
        return [(np.ones(len(times)), (), None, (self, times, tuple(alpha), (False,) * self.grid.ndim, False))]

    def values(self, times, alpha):
        """Grid values of ``d^alpha`` of the field at each of ``times``, ``(T, ncomp, *modes)``."""
        vals = self.field.diff_multi(alpha).evaluate(np.asarray(times, dtype=float), self._points)
        return np.moveaxis(vals, 1, 0).reshape((len(times), self.ncomp) + self.grid.modes)


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


def _groups(flux, qview, times, m):
    """The density terms of ``qview`` at ``times`` folded into bilinear groups.

    Each group ``(w, src, gamma)``, whose source ``src`` holds one source time
    per time of ``times``, maps to a ``(T, k, m)`` stack ``B``, one ``(k, m)``
    matrix per time, such that the density at ``times[r]`` is ``sum w *
    sum_a conj(S[a]) (B[r] @ d^gamma u)[a]``.  Each term updates every row
    at once, and each entry of ``B[r]`` takes the arithmetic of a one-time
    compile.
    """
    forms = {}
    groups = {}
    for (beta, i, gamma, j), c in flux.density_terms.items():
        if beta not in forms:
            forms[beta] = _form(qview, times, beta)
        for coef, w, M, src in forms[beta]:
            key = (w, src, gamma)
            B = groups.get(key)
            if B is None:
                B = groups[key] = np.zeros((len(times), src[0].ncomp, m), dtype=complex)
            if M is None:
                B[:, i, j] += c * np.conj(coef)
            else:
                B[:, :, j] += (c * np.conj(coef))[:, None] * np.conj(M[i])
    return groups


def _sources(read, rows, src):
    """A source at its times ``rows`` (a slice of the compiled times) as
    ``(x, conj, order)`` (``evaluate_terms``).

    ``x`` is a ``(T, k, npoints)`` array, ``S = conj(x)`` if ``conj``, and
    ``order`` the reflection of the grid points (None when nothing is
    reflected), which the contraction gathers one block at a time.  A
    trajectory's jets come from ``read(alpha, times)``; a fixed field is
    evaluated at every time in one call.
    """
    field, ts, alpha, flip, conj = src
    ts = ts[rows]
    vals = field.values(ts, alpha) if isinstance(field, ShiftView) else read(alpha, ts)
    order = _flip_order(field.grid, flip) if any(flip) else None
    return vals.reshape(vals.shape[:2] + (-1,)), conj, order


def _weight_values(grid, w):
    """Flat grid values of the coordinate product ``w``."""
    out = np.ones(grid.modes)
    for axis, flipped in w:
        x = grid.coordinates()[axis]
        if flipped:
            x = x[_grid_flip(len(x))]
        shape = [1] * grid.ndim
        shape[axis] = len(x)
        out = out * x.reshape(shape)
    return out.reshape(-1)


def _row_index(rows):
    """Row numbers ``rows`` as a basic slice when evenly spaced with a nonzero
    step (a reflected ``s - t`` read takes a negative one), else as they are."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step and all(b - a == step for a, b in zip(rows, rows[1:])):
        stop = rows[-1] + step
        return slice(rows[0], stop if stop >= 0 else None, step)
    return rows


def _reader(jets):
    """``read(alpha, times)``: the jets ``d^alpha`` at ``times`` of a ``Trajectory.jets`` result, ``(T, m, *modes)``.

    Evenly spaced rows are a view of the pass's stack; any other time order takes one gather.
    """

    def read(alpha, times):
        rows, stack = jets.stacks[alpha]
        return stack[_row_index([rows[t] for t in times])]

    return read


def _contract_rows(groups, read, grid, times, rows=slice(None)):
    """Grid values, one flat row per time of ``times[rows]``, of the density
    compiled into ``groups`` over ``times``.

    ``rows`` is a slice of the compiled times: all of them on a small grid,
    one at a time when streaming.  Each ``B`` goes to one ``evaluate_terms``
    call as its rows ``rows``; the sources and P jets are read at the times
    of ``rows`` (``read(alpha, times)`` returns the trajectory jets the
    groups read, ``_jet_keys``, as rows of their stacks).
    """
    groups = {key: B[rows] for key, B in groups.items()}

    def jet_p(gamma):
        p = read(gamma, times[rows])
        return p.reshape(p.shape[:2] + (-1,))

    out = evaluate_terms(
        groups, functools.partial(_sources, read, rows), jet_p, functools.partial(_weight_values, grid)
    )
    if out is None:
        return np.zeros((len(times[rows]), grid.npoints), dtype=complex)
    return out


def _integrals(groups, read, grid, times, rows):
    """``(kappa, L1 scale)`` at each time of ``times[rows]`` of the density
    compiled into ``groups`` over ``times``: one contraction, and ``kappa``
    and its scale each the box volume times one mean over the rows."""
    dens = _contract_rows(groups, read, grid, times, rows)
    # a float's abs never raises; a complex NaN's may (a stale errno)
    return [
        (grid.volume * complex(k), abs((grid.volume * complex(a)).real))
        for k, a in zip(dens.mean(axis=1), np.abs(dens).mean(axis=1))
    ]


def _jet_keys(compiled, traj, times):
    """The ``(t, alpha)`` jets of ``traj`` that the groups ``compiled`` over
    ``times`` read, one list per time."""
    keys = [[] for _ in times]
    for groups in compiled:
        for _w, (field, ts, alpha, _flip, _conj), gamma in groups:
            for t, tk, out in zip(times, ts, keys):
                out.append((t, gamma))
                if field is traj:
                    out.append((tk, alpha))
    return keys


def kappa_series(flux, qviews, traj, times, support_tol=SUPPORT_TOL):
    """Evaluate ``kappa(t) = integral X0(Q, u) dx`` for each characteristic.

    ``flux`` is the bilinear current of the operator, ``qviews`` the field
    views of the characteristics over the trajectory ``traj``.  Each view is
    compiled once, for every sample time (``_groups``); every contraction,
    kept or streamed, reads that one compile.  When the jets of every time
    read fit in ``MODE_BLOCK // 2`` grid points (``npoints`` times the
    distinct times read), one ``traj.jets`` call makes them all, with the
    sample time as an array axis, and each view is contracted once over all
    its sample times, reading the jets as views of their stacks.  Otherwise
    a sample time's jets are made together with those of the sample times
    whose jets it reads (a reflected time ``s - t`` that is sampled too),
    each such batch is contracted one time at a time, and its jets are
    dropped before the next batch.  Returns one series with its relative
    drift per view, its values in sample-time order.
    With a weighted view, a jet of ``traj`` read at a time, ``u(t)`` among them,
    whose boundary fraction is not within ``support_tol`` raises ``SupportError``,
    for the first such time in sample order.  An ``AmplificationError`` of a
    read time surfaces where one batch at a time meets it: after the support
    errors of earlier sample times, naming the same ``dt``.
    """
    grid = traj.grid
    weighted = any(qview.weighted for qview in qviews)
    u = (0,) * (grid.ndim + 1)
    times = tuple(float(t) for t in times)
    compiled = [_groups(flux, qview, times, traj.ncomp) for qview in qviews]
    reads = [set(([(t, u)] if weighted else []) + keys) for t, keys in zip(times, _jet_keys(compiled, traj, times))]
    read_times = [{tk for tk, _alpha in keys} for keys in reads]
    values = [[None] * len(times) for _ in qviews]
    mags = [[None] * len(times) for _ in qviews]  # the L1 magnitude of each density
    fractions_u = [0.0] * len(times)
    failures = {}  # sample index -> the SupportError of its first jet outside the support

    def contract_views(jets, rows):
        for groups, vals, mag in zip(compiled, values, mags):
            for j, (k, a) in zip(range(len(times))[rows], _integrals(groups, _reader(jets), grid, times, rows)):
                vals[j], mag[j] = k, a

    def guard(jets, batch):
        fractions = {key: boundary_fraction(grid, vals) for key, vals in jets.items()}
        for j in batch:
            fractions_u[j] = fractions[(times[j], u)]
            # ``jets`` lists a time's keys in the order ``traj.jets(reads[j])`` would
            bad = [(key, bf) for key, bf in fractions.items() if key in reads[j] and not (bf <= support_tol)]
            if bad:
                (tj, alpha), bf = bad[0]
                failures[j] = f"boundary fraction {bf:.2e} exceeds {support_tol:g} at t={tj:g} in d^{alpha} u"

    kept = None
    if grid.npoints * len(set().union(*read_times)) <= MODE_BLOCK // 2:
        try:
            kept = traj.jets(set().union(*reads))
        except AmplificationError:
            pass  # one batch at a time, below, raises it in sample order
    if kept is not None:
        if weighted:
            guard(kept, range(len(times)))
            if failures:
                raise SupportError(failures[min(failures)])
        contract_views(kept, slice(None))
        del kept
    else:
        done = [False] * len(times)
        for i, t in enumerate(times):
            if not done[i]:
                batch = [
                    j for j in range(i, len(times))
                    if not done[j] and (times[j] in read_times[i] or t in read_times[j])
                ]
                jets = traj.jets(set().union(*(reads[j] for j in batch)))
                for j in batch:
                    done[j] = True
                    contract_views(jets, slice(j, j + 1))
                if weighted:
                    guard(jets, batch)
                del jets
            if i in failures:
                raise SupportError(failures[i])
    worst = functools.reduce(max, fractions_u, 0.0)
    return [
        KappaSeries(times, tuple(v), sc, drift_of(v, sc), worst if qview.weighted else None)
        for v, sc, qview in zip(values, (functools.reduce(max, m, 0.0) for m in mags), qviews)
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
    ``2n - 1`` offsets and convolves it with the weighted data.  The
    convolution runs by FFT on a circular length of at least ``2n - 1``,
    which leaves its valid part free of wrap-around, in O(n log n) time and
    O(n) memory; the weighted data is transformed once per grid, and each
    distinct time (``t`` or ``s - t``) is solved once per grid.

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
        offsets2 = (h * np.arange(-(n - 1), n)) ** 2
        # the valid part [n - 1, 2n - 1) of the full convolution sees no wrap-around
        size = 1 << (2 * n - 2).bit_length()
        wf_hat = np.fft.rfft(w * f, size)

        @functools.cache  # E(t) and E(s - t) share their solves
        def solve(t):
            kern = np.exp(-offsets2 / (4.0 * t)) / np.sqrt(4 * np.pi * t)
            # a copy: the memo would otherwise keep each whole circular buffer
            u = np.fft.irfft(wf_hat * np.fft.rfft(kern, size), size)[n - 1 : 2 * n - 1].copy()
            supported(f"the heat flow at t={t:g}", u)
            return u

        return np.array([float(np.sum(w * solve(t) * solve(s - t))) for t in times])

    coarse = run(2401)
    fine = run(4801)
    err = float(np.max(np.abs(fine - coarse) / np.maximum(np.abs(fine), 1e-300)))
    return fine, err
