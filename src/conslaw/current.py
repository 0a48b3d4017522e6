"""Bilinear currents: X with Div X = Q.L[P] - P.Lt[Q], built by peeling.

Terms of jet bilinears are keyed by ``(beta, i, gamma, j)`` meaning
``c * (d^beta Q_i) * (d^gamma P_j)``.  The divergence identity uses the
transpose adjoint ``Lt`` (no complex conjugation), which makes it an exact
polynomial identity in the jets of Q and P over C.  For the Hermitian pairing
the Q side is conjugated at evaluation time, and the adjoint-annihilation
condition ``L*[Q] = 0`` is equivalent to ``Lt[conj(Q)] = 0``.

For evaluation a characteristic's density terms are compiled into groups
keyed by Q-side source instead of ``beta`` (``spectral.kappa_series``), and
``evaluate_terms`` contracts those for a stack of sample times at once,
``CHUNK`` grid points at a time.

The flux is canonical: derivatives are peeled off P lowest variable first
(t before x1 before x2 ...), so X is deterministic; it is only unique up to
curl terms anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import sum_pieces
from .opcore import midx_order
from .symmetry import DiffFactor, KernelShift, MatrixFactor, PointReflect, SymmetryOp

__all__ = [
    "bilinear_concomitant_terms",
    "BilinearFlux",
    "concomitant_flux",
    "adjoint_characteristic",
]


def _collect(pieces):
    """The ``(key, c)`` pieces summed by ``fields.sum_pieces``, zero totals dropped."""
    return {key: c for key, c in sum_pieces(pieces).items() if c != 0}


def _step(alpha, v, by):
    """``alpha`` with ``by`` added to slot ``v``."""
    return tuple(a + by if d == v else a for d, a in enumerate(alpha))


def bilinear_concomitant_terms(L):
    """Jet terms of ``Q.L[P] - P.Lt[Q]`` for square ``L``."""
    if not L.is_square():
        raise ValueError("the bilinear pairing needs a square operator")
    zero = (0,) * L.nvars
    pieces = []
    for alpha, mat in L.terms.items():
        sign = (-1.0) ** midx_order(alpha)
        for i in range(L.rows):
            for j in range(L.cols):
                c = mat[i, j]
                pieces += [((zero, i, alpha, j), c), ((alpha, i, zero, j), -sign * c)]
    return _collect(pieces)


@dataclass(frozen=True)
class BilinearFlux:
    """Current X with one jet-bilinear term dict per variable.

    ``components[v]`` holds the X^v terms; ``components[0]`` is the density
    slot X^0 whose spatial integral is the conserved functional.
    """

    nvars: int
    ncomp: int
    components: tuple  # tuple of dicts (beta, i, gamma, j) -> complex

    def divergence_terms(self):
        """Symbolic expansion of Div X as a jet bilinear."""
        return _collect(
            piece
            for v, comp in enumerate(self.components)
            for (beta, i, gamma, j), c in comp.items()
            for piece in (((_step(beta, v, 1), i, gamma, j), c), ((beta, i, _step(gamma, v, 1), j), c))
        )

    def divergence_defect(self, L):
        """Max |coefficient| of Div X - (Q.L[P] - P.Lt[Q]); zero when exact."""
        target = bilinear_concomitant_terms(L)
        got = self.divergence_terms()
        worst = 0.0
        for key in set(target) | set(got):
            worst = max(worst, abs(got.get(key, 0.0) - target.get(key, 0.0)))
        return worst

    @property
    def density_terms(self):
        return self.components[0]


def concomitant_flux(L):
    """Construct the canonical bilinear current for a square operator.

    Each term ``Q_i M_ij d^alpha P_j`` is integrated by parts one derivative
    at a time (lowest variable first); every peel deposits a flux term and
    flips the residue's sign, and the final order-0 residues cancel against
    the transpose-adjoint part of the pairing.
    """
    if not L.is_square():
        raise ValueError("flux construction needs a square operator")
    nv = L.nvars
    components = tuple({} for _ in range(nv))
    for alpha, mat in L.terms.items():
        for i in range(L.rows):
            for j in range(L.cols):
                c = mat[i, j]
                if c == 0:
                    continue
                beta = (0,) * nv
                gamma = alpha
                coeff = c
                while any(gamma):
                    v = next(d for d in range(nv) if gamma[d])
                    gamma = _step(gamma, v, -1)
                    # the key gives alpha = beta + gamma + e_v, and beta grows at
                    # every peel, so no other deposit in component v has this key
                    components[v][(beta, i, gamma, j)] = coeff
                    beta = _step(beta, v, 1)
                    coeff = -coeff
    return BilinearFlux(nv, L.rows, components)


CHUNK = 2048  # grid points per block of the density contraction, over all rows
_LANES = 8  # each block's window spans a multiple of this many points


def evaluate_terms(groups, jet_q, jet_p, weight):
    """Numerically contract compiled bilinear groups against two jet providers.

    Every array carries a leading axis of ``T`` rows, one per sample time.
    ``groups`` maps ``(w, src, gamma)`` to a ``(T, k, m)`` stack ``B`` of one
    matrix per row: the term ``weight(w) * sum_a conj(S)[a] * (B @ d^gamma
    P)[a]``, row by row, conjugated on the Q side (the Hermitian pairing).
    ``jet_q(src)`` returns ``(x, conj, order)``: ``x`` a ``(T, k, n)`` array
    whose points are taken in the order of the index array ``order`` (in
    their own order when it is None), with ``S = conj(x)`` when ``conj`` is
    set and ``S = x`` otherwise; ``jet_p(gamma)`` the ``(T, m, n)`` jets of P;
    ``weight(w)`` the ``n`` values of a weight other than ``()`` (which is
    1), shared by every row.  The groups of one weight are summed before it
    multiplies them.  Returns the ``(T, n)`` sum, or None for no groups.

    Each source, P jet and weight is read once, and a reordered source is
    gathered one block at a time.  The contraction runs over blocks of
    ``CHUNK // T`` points per row, so no ``(T, k, n)`` temporary exists;
    every point takes the same steps in the same order whatever the block
    size and the rows beside it (matmul, conj, multiply, sum over
    components, conj, the sum per weight in group order, the weight product,
    the sum over weights in first-seen order), which leaves each row
    bit-identical to a one-block call with that row alone.
    BLAS and numpy's vector loops treat a trailing partial group of points
    with other arithmetic, so each block is widened to a window of a
    multiple of ``_LANES`` points inside the grid (the whole grid when it is
    shorter): on a grid whose size is a multiple of ``_LANES`` every point
    then takes the full-width path, as in one whole-grid pass, and every row
    of a block starts on a multiple of ``_LANES``.  Windows of neighbouring
    blocks may overlap; a point in both gets the same bits twice.
    """
    terms = []
    sources = {}
    ps = {}
    for (w, src, gamma), B in groups.items():
        if src not in sources:
            sources[src] = jet_q(src)
        if gamma not in ps:
            ps[gamma] = jet_p(gamma)
        terms.append((w, B, *sources[src], ps[gamma]))
    if not terms:
        return None
    rows, _k, n = terms[0][2].shape
    weights = {w: weight(w) for w, *_ in terms if w}
    chunk = max(CHUNK // rows, 1)
    width = min(-(-chunk // _LANES) * _LANES, n)
    bufs = {B.shape[-2]: np.empty((rows, B.shape[-2], width), dtype=complex) for _w, B, *_ in terms}
    out = np.empty((rows, n), dtype=complex)
    for start in range(0, n, chunk):
        span = min(-(-min(chunk, n - start) // _LANES) * _LANES, n)
        lo = min(start, n - span)
        win = slice(lo, lo + span)
        total = out[:, win]  # the first weight's piece is summed straight into it
        pieces = {}
        for w, B, x, conj, order, p in terms:
            v = np.matmul(B, p[:, :, win], out=bufs[B.shape[-2]][:, :, :span])
            # conj(S) is x when conj is set; otherwise sum_a conj(S[a]) v[a] is
            # conj(sum_a S[a] conj(v[a])), which needs no copy of S
            if not conj:
                np.conj(v, out=v)
            np.multiply(x[:, :, win] if order is None else x[:, :, order[win]], v, out=v)
            piece = v.sum(axis=1, out=None if pieces else total)
            if not conj:
                np.conj(piece, out=piece)
            if w in pieces:
                pieces[w] += piece
            else:
                pieces[w] = piece
        for w, piece in pieces.items():
            if w:
                piece *= weights[w][win]
            if piece is not total:
                total += piece
    return out


# -- characteristics ---------------------------------------------------------


def adjoint_characteristic(L, fact, generator):
    """The chain ``Q = A1 . R[G u]`` for a verified factorization, ``char_map``.

    ``R`` reflects the factorization's parity mask (left out when the mask is
    empty), its time slot as ``t -> s - t`` with ``s`` from the evaluation
    context.  A fixed kernel element becomes the innermost factor, a constant
    map ``u -> w``; a generator already flagged ``char_map`` builds Q itself and
    is returned as it is.  Raises ``ValueError`` when a reflection mask, a
    derivative index or a kernel field spans other than ``L.nvars`` variables,
    or a factor's matrix or a kernel field acts on other than ``L.cols``
    components.
    """
    if fact.operator is not L and fact.operator != L:
        raise ValueError("factorization belongs to a different operator")
    inner = (generator,) if isinstance(generator, KernelShift) else generator.factors
    spans = {len(f.mask) for f in inner if isinstance(f, PointReflect)}
    spans |= {len(a) for f in inner if isinstance(f, DiffFactor) for _p, _m, a in f.terms}
    spans |= {f.field.nvars for f in inner if isinstance(f, KernelShift)}
    wrong = spans - {L.nvars}
    if wrong:
        raise ValueError(
            f"symmetry {generator.name!r} acts on {min(wrong)} variables, "
            f"the operator on {L.nvars}"
        )
    comps = {f.matrix.shape[1] for f in inner if isinstance(f, MatrixFactor)}
    comps |= {m.shape[1] for f in inner if isinstance(f, DiffFactor) for _p, m, _a in f.terms if m is not None}
    comps |= {f.field.ncomp for f in inner if isinstance(f, KernelShift)}
    wrong = comps - {L.cols}
    if wrong:
        raise ValueError(f"symmetry {generator.name!r} acts on {min(wrong)} components, the operator on {L.cols}")
    if getattr(generator, "char_map", False):
        return generator
    outer = (MatrixFactor(fact.A1),)
    if any(fact.parity_mask):
        outer += (PointReflect(fact.parity_mask),)
    return SymmetryOp(outer + inner, name=generator.name, char_map=True)
