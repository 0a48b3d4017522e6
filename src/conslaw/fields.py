"""Exact closed-form fields: sums of polynomial x exponential terms.

Every term is ``c * t^p0 * x1^p1 ... * exp(lam*t) * exp(i k.x)`` attached to
one component.  The family is closed under differentiation and
constant-matrix application, so operators act on it exactly: a kernel
shift's fixed field is checked by applying the operator to it.
:func:`kernel_probes` gives the plane-wave kernel elements of an operator as
stacked ``(mu, k, v)`` rows, the probes of every generator check, and
:func:`plane_wave` makes the field of one row.

Every operation that makes a field has one summation rule, :func:`collect`:
its ``(key, coef)`` pieces are added in order by :func:`sum_pieces` (a zero
piece is skipped, a key keeps the place of its first non-zero piece), and a
total that cancels to zero is dropped.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

__all__ = [
    "AnalyticField",
    "collect",
    "sum_pieces",
    "plane_wave",
    "polynomial_field",
    "evolution_matrices",
    "evolution_matrix",
    "evolution_symbol",
    "kernel_probes",
]

# the largest (terms, times, points) temporary ``AnalyticField.evaluate`` builds, in entries
EVAL_CHUNK = 1 << 17


class AnalyticField:
    """Sum of polynomial-times-exponential terms on R^{n+1}.

    ``terms`` maps ``(i, pol, lam, k)`` to a complex coefficient where ``i``
    is the component, ``pol`` the monomial exponents over (t, x1..xn), ``lam``
    the time rate and ``k`` the spatial wavevector (tuple of floats).
    """

    __slots__ = ("nvars", "ncomp", "terms")

    def __init__(self, nvars, ncomp, terms=None):
        self.nvars = int(nvars)
        self.ncomp = int(ncomp)
        # ``0.0 +`` turns a signed-zero imaginary part into +0.0
        self.terms = {k: 0.0 + complex(c) for k, c in (terms or {}).items() if c != 0}

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if other.nvars != self.nvars or other.ncomp != self.ncomp:
            raise ValueError("field shape mismatch")
        return collect(self.nvars, self.ncomp, chain(self.terms.items(), other.terms.items()))

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return collect(self.nvars, self.ncomp, ((key, scalar * c) for key, c in self.terms.items()))

    __rmul__ = __mul__

    def max_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- calculus --------------------------------------------------------

    def diff(self, slot):
        """Partial derivative along variable ``slot`` (0 = time)."""

        def pieces():
            for (i, pol, lam, k), c in self.terms.items():
                e = pol[slot]
                if e:
                    yield (i, pol[:slot] + (e - 1,) + pol[slot + 1 :], lam, k), e * c
                yield (i, pol, lam, k), (lam if slot == 0 else 1j * k[slot - 1]) * c

        return collect(self.nvars, self.ncomp, pieces())

    def diff_multi(self, alpha):
        out = self
        for slot, e in enumerate(alpha):
            for _ in range(e):
                out = out.diff(slot)
        return out

    def apply_matrix(self, mat):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape[1] != self.ncomp:
            raise ValueError("matrix does not fit field components")
        cols = [[(r, m) for r, m in enumerate(col) if m != 0] for col in mat.T]
        pieces = (((r, pol, lam, k), m * c) for (i, pol, lam, k), c in self.terms.items() for r, m in cols[i])
        return collect(self.nvars, mat.shape[0], pieces)

    def apply_operator(self, L):
        if L.nvars != self.nvars or L.cols != self.ncomp:
            raise ValueError("operator does not fit field")
        # each alpha's field is summed first, then the fields in operator order
        fields = (self.diff_multi(alpha).apply_matrix(mat) for alpha, mat in L.terms.items())
        return collect(self.nvars, L.rows, chain.from_iterable(f.terms.items() for f in fields))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, t, points):
        """Values at time(s) ``t`` on spatial ``points`` of shape (npts, n).

        A scalar ``t`` gives ``(ncomp, npts)``, a 1-d array of times
        ``(ncomp, ntimes, npts)``.  The term table becomes arrays once per
        call; each term adds ``(c t^p0 exp(lam t) * x^p) * exp(i k.x)`` to its
        component, in term order.  Points are taken in chunks, so that no
        ``(terms, times, points)`` temporary exceeds ``EVAL_CHUNK`` entries.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        times = np.asarray(t, dtype=float)
        ts = np.atleast_1d(times)
        npts = points.shape[0]
        out = np.zeros((self.ncomp, len(ts), npts), dtype=complex)
        comp, tpow, lam, coef, kidx, pidx = [], [], [], [], [], []
        ks, pols = {}, {}  # distinct wavevectors and spatial monomials
        for (i, pol, rate, k), c in self.terms.items():
            comp.append(i)
            tpow.append(pol[0])
            lam.append(rate)
            coef.append(c)
            kidx.append(ks.setdefault(k, len(ks)))
            pidx.append(pols.setdefault(pol[1:], len(pols)))
        if comp:
            val = (np.array(coef)[:, None] * ts ** np.array(tpow)[:, None]) * np.exp(np.array(lam)[:, None] * ts)
            kmat = np.array(list(ks), dtype=float)
            step = max(1, EVAL_CHUNK // (len(comp) * len(ts)))
            for lo in range(0, npts, step):
                x = points[lo : lo + step]
                mono = np.ones((len(pols), len(x)), dtype=complex)
                for row, pol in zip(mono, pols):
                    for d, e in enumerate(pol):
                        if e:
                            row *= x[:, d] ** e
                phase = np.exp(1j * (x @ kmat.T)).T
                terms = (val[:, :, None] * mono[pidx][:, None, :]) * phase[kidx][:, None, :]
                np.add.at(out[:, :, lo : lo + step], comp, terms)  # sequential: term order per component
        return out[:, 0] if times.ndim == 0 else out

    def __repr__(self):
        return f"<AnalyticField {self.ncomp} comps, {len(self.terms)} terms>"


def sum_pieces(pieces):
    """The ``(key, coef)`` pieces summed in order, as a dict.

    This is the one summation rule of the field algebra and of the jet
    bilinears: a zero piece is skipped and a key sits where its first non-zero
    piece put it.  A total that cancels to zero is kept.
    """
    terms = {}
    for key, c in pieces:
        if c != 0:
            terms[key] = terms[key] + c if key in terms else c
    return terms


def collect(nvars, ncomp, pieces):
    """The field whose terms are the pieces summed by :func:`sum_pieces`; the
    constructor drops a total that cancels to zero."""
    return AnalyticField(nvars, ncomp, sum_pieces(pieces))


def plane_wave(nvars, vector, lam, kspace):
    """Field ``v * exp(lam t + i k.x)`` for a complex amplitude vector."""
    vector = np.asarray(vector, dtype=complex)
    pol = (0,) * nvars
    k = tuple(float(kj) for kj in kspace)
    return collect(nvars, len(vector), (((i, pol, complex(lam), k), v) for i, v in enumerate(vector)))


def polynomial_field(nvars, ncomp, comp_polys):
    """Static polynomial field; ``comp_polys[i]`` maps exponent tuple -> coeff."""
    k = (0.0,) * (nvars - 1)
    pieces = (((i, tuple(pol), 0j, k), c) for i, poly in enumerate(comp_polys) for pol, c in poly.items())
    return collect(nvars, ncomp, pieces)


def _evolution_order(L):
    """Time order ``R`` of a square operator that has an evolution form."""
    if not L.is_square():
        raise ValueError("evolution form needs a square operator")
    R = L.time_order()
    if R == 0:
        raise ValueError("operator has no time derivative; no evolution form")
    return R


def _lead_varies(L, R):
    """Whether the leading time coefficient ``C_R`` depends on the wavevector."""
    return any(any(alpha[1:]) for alpha in L.terms if alpha[0] == R)


def _lead_inverse(L, lead, kspace):
    """Inverse of the leading coefficient(s) ``lead``; refuses a condition number above 1e12."""
    singular = np.atleast_1d(np.linalg.cond(lead) > 1e12)
    if singular.any():
        k = np.reshape(kspace, (-1, L.nvars - 1))[np.argmax(singular)].tolist()
        raise ValueError(f"leading time coefficient is singular at k={tuple(k)}")
    return np.linalg.inv(lead)


def _companion(last_row, m, R, identity=True):
    """Block companion matrices whose last block row is ``last_row``, shape (..., m, mR)."""
    A = np.zeros(last_row.shape[:-2] + (m * R, m * R), dtype=complex)
    if identity:
        for r in range(R - 1):
            A[..., r * m : (r + 1) * m, (r + 1) * m : (r + 2) * m] = np.eye(m)
    A[..., (R - 1) * m :, :] = last_row
    return A


def evolution_matrices(L, kspace):
    """Companion matrices A(k) of the first-order system, one per spatial mode.

    For ``L = sum_r C_r(Dx) Dt^r`` the per-mode ODE is
    ``sum_r C_r(k) y^(r) = 0``; ``A(k)`` acts on the stacked state
    ``(y, y', ..., y^(R-1))``.  ``kspace`` is an ``(n, nvars - 1)`` array of
    wavevectors and the result an ``(n, mR, mR)`` stack.  Requires the leading
    time coefficient ``C_R(k)`` to be invertible (condition number at most
    1e12); it is checked once when it does not depend on ``k``.
    """
    m, R = L.cols, _evolution_order(L)
    kspace = np.asarray(kspace)
    C = [L.spatial_symbol(kspace, r) for r in range(R)]
    if _lead_varies(L, R):
        lead = L.spatial_symbol(kspace, R)
    else:  # the same matrix on every mode
        lead = L.spatial_symbol(np.zeros(L.nvars - 1), R)
    lead_inv = _lead_inverse(L, lead, kspace)
    return _companion(np.concatenate([-lead_inv @ C[r] for r in range(R)], axis=-1), m, R)


def evolution_symbol(L):
    """The companion matrix as a polynomial in the wavevector, or None.

    When the leading time coefficient is constant, ``A(k) = sum_beta k^beta
    Abar_beta`` over spatial multi-indices ``beta``, with real monomials
    ``k^beta`` and constant matrices ``Abar_beta = i^|beta| * (companion of
    -C_R^{-1} M_(r, beta))``; the identity blocks go into ``Abar_0``.
    Returns ``{beta: Abar_beta}`` (``Abar_0`` first, always present), or None when
    the leading coefficient depends on ``k``.  A singular constant lead is
    singular at every mode, so the error names ``k = 0``, the first retained
    mode of every grid.
    """
    m, R = L.cols, _evolution_order(L)
    if _lead_varies(L, R):
        return None
    zero = np.zeros(L.nvars - 1)
    lead_inv = _lead_inverse(L, L.spatial_symbol(zero, R), zero)
    rows = {(0,) * (L.nvars - 1): np.zeros((m, m * R), dtype=complex)}
    for alpha, mat in L.terms.items():
        r, beta = alpha[0], alpha[1:]
        if r < R:
            row = rows.setdefault(beta, np.zeros((m, m * R), dtype=complex))
            row[:, r * m : (r + 1) * m] = (1, 1j, -1, -1j)[sum(beta) % 4] * (-lead_inv @ mat)
    return {beta: _companion(row, m, R, identity=not any(beta)) for beta, row in rows.items()}


def evolution_matrix(L, kspace):
    """Companion matrix A(k) for one spatial mode (see ``evolution_matrices``)."""
    return evolution_matrices(L, [kspace])[0]


def frobenius_norms(mats):
    """``np.linalg.norm`` of each matrix (or vector) of the stack ``mats``, bit for bit.

    The norm sums the squares of the real and the imaginary parts as two dot
    products of strided views; a ``(1, size) @ (size, 1)`` product of each
    entry's row view reaches the same BLAS dot on the same strides.
    """
    rows = mats.reshape(len(mats), 1, -1)
    return np.sqrt(rows.real @ rows.real.mT + rows.imag @ rows.imag.mT).reshape(-1)


def kernel_probes(L, kspaces):
    """Kernel probes of ``L``: stacked arrays ``(mu, k, v)``, one row per probe.

    Each row is an exact kernel plane wave ``v exp(mu t + i k.x)`` with
    ``|v| = 1``: the accepted eigenpairs of the companion matrices, made and
    eigendecomposed for all wavevectors at once, in wavevector order
    (defective modes contribute only their genuine eigenvectors).  ``v`` is
    the field block of the eigenvector, normalised, and the pair is accepted
    when that block is not negligible and the matrix polynomial at the rate
    annihilates it; each norm has the bits of ``np.linalg.norm``.  Shapes
    are ``(p,)``, ``(p, nvars - 1)`` and ``(p, cols)``.  Raises when a
    wavevector has no kernel element.
    """
    m, R = L.cols, L.time_order()
    ks = np.array(kspaces, dtype=float).reshape(len(kspaces), L.nvars - 1)
    A = evolution_matrices(L, ks)
    symbols = [L.spatial_symbol(ks, r) for r in range(R + 1)]
    lams, vecs = np.linalg.eig(A)
    n, d = lams.shape
    # row e of blocks[i] is the field block of eigenvector e, a contiguous copy as norm makes
    blocks = np.ascontiguousarray(vecs[:, :m, :].mT)
    nv = frobenius_norms(blocks.reshape(n * d, m)).reshape(n, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        vs = blocks / nv[:, :, None]
    # residual of the matrix polynomial at each rate
    acc = np.zeros((n, d, m), dtype=complex)
    for r, C in enumerate(symbols):
        acc = acc + (vs @ C.mT) * (lams**r)[:, :, None]
    res = frobenius_norms(acc.reshape(n * d, m)).reshape(n, d)
    scale = np.maximum(frobenius_norms(A), 1.0)[:, None]
    accept = (nv >= 1e-12) & (res <= 1e-8 * np.maximum(scale, np.abs(lams) ** R))
    empty = ~accept.any(axis=1)
    if empty.any():
        raise ValueError(f"no plane-wave kernel elements at k={tuple(ks[np.argmax(empty)].tolist())}")
    return lams[accept], np.repeat(ks, accept.sum(axis=1), axis=0), vs[accept]
