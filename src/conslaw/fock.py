"""Finite fermionic Fock space on a symmetric momentum lattice.

Modes are (species, momentum, spin) with species ``a`` (particle) and ``b``
(antiparticle), spins in {1, 2} (arithmetic mod 2), and a lattice closed
under ``p -> -p``.  Ladder operators follow the standard sign-string
construction on a 2^N-dimensional space (Jordan and Wigner): each maps a
basis state to at most one basis state, with a sign.  They, and their
products, are therefore kept as signed partial permutations
(:class:`SignedMap`), composed by index arithmetic, and each operator is
turned into one sparse matrix once; every anticommutation relation is exact
in integer arithmetic.  Lattice normalization replaces the continuum
``(2pi)^3 delta^3`` by a Kronecker delta; the charge identities are
homogeneous in this normalization.

The time-reflected and the CPT pairing are quantized by one expansion of
``integral psi^dagger(t1, P x) M psi(t2, x) dx``, whose x-integral pairs
each bra momentum ``p`` with the ket momentum ``q = P p`` of the space
reflection ``P``.  For spins ``r, s`` it has four channels, each coefficient
divided by ``2 E_p``::

    u_r(p)^dagger M u_s(q)     a'_p a_q       e^{ iE(t1 - t2)}
    u_r(p)^dagger M v_s(-q)    a'_p b'_-q     e^{ iE(t1 + t2)}
    v_r(-p)^dagger M u_s(q)    b_-p a_q       e^{-iE(t1 + t2)}
    v_r(-p)^dagger M v_s(-q)   b_-p b'_-q     e^{-iE(t1 - t2)}

The reflected pairing is ``M = gamma0 gamma4``, ``q = p`` at times
``(-t, t)``; the CPT pairing is ``M = gamma0 gamma2 gamma0 gamma4``,
``q = (p1, -p2, p3)`` at times ``(t, t)``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from . import gamma as gm

__all__ = [
    "FockSystem",
    "SignedMap",
    "build_kappa0",
    "build_kappa45",
    "quantize_reflection_charge",
    "quantize_cpt_charge",
    "max_abs",
]


SPINS = (1, 2)


class SignedMap:
    """A signed partial permutation of the basis states.

    The operator sends state ``x`` to ``phase[x] * |target[x]>``; where it
    vanishes, ``target`` is -1 and ``phase`` is 0.  Both arrays may carry
    leading axes that stack several maps over the same states.
    """

    __slots__ = ("target", "phase")

    def __init__(self, target, phase):
        self.target = target
        self.phase = phase

    def __matmul__(self, other):
        """The map of the product ``self @ other`` (``other`` acts first).

        At most one side may be stacked.  Where ``other`` vanishes its phase
        is 0, so the in-range index standing in for its target is masked.
        """
        idx = np.maximum(other.target, 0)
        phase = self.phase[..., idx] * other.phase
        return SignedMap(np.where(phase != 0, self.target[..., idx], -1), phase)

    @staticmethod
    def stack(maps):
        return SignedMap(np.stack([m.target for m in maps]), np.stack([m.phase for m in maps]))


def _max_entry(*maps):
    """Largest ``|entry|`` of the sum of the maps: phases add where targets agree."""
    return max(
        int(np.max(np.abs(sum(np.where(other.target == m.target, other.phase, 0) for other in maps))))
        for m in maps
    )


def max_abs(op):
    """Max-norm of a sparse or dense operator."""
    if sparse.issparse(op):
        op = op.tocoo()
        return float(np.max(np.abs(op.data))) if op.nnz else 0.0
    return float(np.max(np.abs(op)))


class FockSystem:
    """Ladder algebra for two fermionic species on a momentum lattice.

    The mass must be finite and non-negative, every momentum component
    finite and every mode's energy non-zero: the pairing coefficients divide
    by ``2 E_p``, and the spinors by ``E_p + m``.
    """

    def __init__(self, momenta, mass=1.0):
        self.momenta = [tuple(float(c) for c in p) for p in momenta]
        self.mass = float(mass)
        if not np.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got {mass!r}")
        if self.mass < 0:
            raise ValueError(f"mass must be >= 0, got {mass!r}")
        for p in self.momenta:
            if not np.isfinite(p).all():
                raise ValueError(f"momentum components must be finite, got p={p}")
            if gm.energy(p, self.mass) == 0:
                raise ValueError(f"mode energy is zero at p={p} with mass {self.mass!r}")
        self._index = {p: i for i, p in enumerate(self.momenta)}
        if len(self._index) != len(self.momenta):
            raise ValueError("duplicate momenta")
        for p in self.momenta:
            if self._neg(p) not in self._index:
                raise ValueError(f"lattice not symmetric: missing -p for p={p}")
        self.modes = [
            (species, ip, s)
            for species in ("a", "b")
            for ip in range(len(self.momenta))
            for s in SPINS
        ]
        self.nmodes = len(self.modes)
        if self.nmodes > 16:
            raise ValueError("lattice too large for exact Fock matrices")
        self.dim = 1 << self.nmodes
        self._mode_index = {m: q for q, m in enumerate(self.modes)}
        self._maps = {}  # (mode, dagger) -> SignedMap
        self._ops = {}  # (mode, dagger) -> CSR matrix

    @staticmethod
    def _neg(p):
        return tuple(-c if c != 0 else 0.0 for c in p)

    def momentum_index(self, p):
        p = tuple(float(c) for c in p)
        if p not in self._index:
            raise KeyError(f"momentum {p} not on the lattice")
        return self._index[p]

    def reflected_index(self, ip):
        return self.momentum_index(self._neg(self.momenta[ip]))

    def conjugated_index(self, ip):
        """Index of p' = (p1, -p2, p3); requires the lattice to contain it."""
        p = self.momenta[ip]
        pp = (p[0], -p[1] if p[1] != 0 else 0.0, p[2])
        return self.momentum_index(pp)

    def energy(self, ip):
        return gm.energy(self.momenta[ip], self.mass)

    # -- ladder operators --------------------------------------------------

    def _ladder(self, q, dagger):
        """Signed map of ``c_q`` (or ``c_q'``) with the fermionic sign string."""
        hit = self._maps.get((q, dagger))
        if hit is not None:
            return hit
        states = np.arange(self.dim, dtype=np.int64)
        bit = 1 << q
        acts = (states & bit == 0) if dagger else (states & bit != 0)
        # (-1)^(occupied modes below q), the same before and after the flip
        sign = 1 - 2 * (np.bitwise_count(states & (bit - 1)) & 1).astype(np.int8)
        m = SignedMap(np.where(acts, states ^ bit, -1), np.where(acts, sign, 0).astype(np.int8))
        self._maps[(q, dagger)] = m
        return m

    def _mode(self, species, p, s):
        ip = p if isinstance(p, (int, np.integer)) else self.momentum_index(p)
        return self._mode_index[(species, ip, s)]

    def ladder(self, species, p, s, dagger=False):
        """Signed map of the annihilator (``dagger``: creator) of one mode."""
        return self._ladder(self._mode(species, p, s), dagger)

    def operator(self, terms, dtype=float):
        """One CSR matrix for ``sum coef * map`` over ``terms = [(coef, SignedMap), ...]``.

        The entries of all terms are sorted stably by position, so the COO to
        CSR conversion sums coinciding entries in term order; entries that
        cancel are dropped.
        """
        rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, dtype)]
        for coef, m in terms:
            hit = np.flatnonzero(m.phase)
            rows.append(m.target[hit])
            cols.append(hit)
            vals.append(coef * m.phase[hit])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.lexsort((cols, rows))
        vals = np.concatenate(vals).astype(dtype, copy=False)[order]
        op = sparse.csr_matrix((vals, (rows[order], cols[order])), shape=(self.dim, self.dim))
        op.eliminate_zeros()
        return op

    def _ladder_op(self, species, p, s, dagger):
        q = self._mode(species, p, s)
        op = self._ops.get((q, dagger))
        if op is None:
            op = self._ops[(q, dagger)] = self.operator([(1.0, self._ladder(q, dagger))])
        return op

    def annihilate(self, species, p, s):
        return self._ladder_op(species, p, s, False)

    def create(self, species, p, s):
        return self._ladder_op(species, p, s, True)

    def a(self, p, s):
        return self.annihilate("a", p, s)

    def adag(self, p, s):
        return self.create("a", p, s)

    def b(self, p, s):
        return self.annihilate("b", p, s)

    def bdag(self, p, s):
        return self.create("b", p, s)

    def vacuum(self):
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    def hamiltonian(self):
        """H = sum E_p (a'a + b'b); annihilates the vacuum, Hermitian."""
        L = self.ladder
        terms = []
        for ip in range(len(self.momenta)):
            E = self.energy(ip)
            for s in SPINS:
                terms.append((E, L("a", ip, s, True) @ L("a", ip, s)))
                terms.append((E, L("b", ip, s, True) @ L("b", ip, s)))
        return self.operator(terms)

    def anticommutator_report(self):
        """Exact worst-case deviation of all ladder anticommutators.

        A column of ``{c_q, c_r}`` or ``{c_q, c_r'} - delta_qr I`` holds at
        most three entries, from the composed maps of the two products and
        the identity; they are added where their targets agree, in +-1
        integer arithmetic, for all ``r`` at once.
        """
        n = self.nmodes
        lower = SignedMap.stack([self._ladder(q, False) for q in range(n)])
        upper = SignedMap.stack([self._ladder(q, True) for q in range(n)])
        states = np.arange(self.dim)
        worst = 0
        for q in range(n):
            cq = self._ladder(q, False)
            delta = SignedMap(np.full((n, self.dim), -1), np.zeros((n, self.dim), np.int8))
            delta.target[q], delta.phase[q] = states, -1
            anti = _max_entry(cq @ lower, lower @ cq)
            mixed = _max_entry(cq @ upper, upper @ cq, delta)
            worst = max(worst, anti, mixed)
        return float(worst)


def build_kappa0(sys):
    """Lattice operator sum_{p,s} (a'_{-p,s} b_{p,s} + b'_{-p,s} a_{p,s}).

    Annihilates the vacuum, satisfies ``[kappa0, a'_{p,s}] = b'_{-p,s}`` and
    commutes with the Hamiltonian: it swaps a particle for an antiparticle
    while reversing momentum.
    """
    L = sys.ladder
    terms = []
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for s in SPINS:
            terms.append((1.0, L("a", im, s, True) @ L("b", ip, s)))
            terms.append((1.0, L("b", im, s, True) @ L("a", ip, s)))
    return sys.operator(terms)


def build_kappa45(sys):
    """Lattice operator sum_{p,s} (-1)^s (a'_{p,s} a_{p,s+1} + b'_{p,s+1} b_{p,s})."""
    L = sys.ladder
    terms = []
    for ip in range(len(sys.momenta)):
        for s in SPINS:
            t = gm.spin_flip(s)
            sign = (-1.0) ** s
            terms.append((sign, L("a", ip, s, True) @ L("a", ip, t)))
            terms.append((sign, L("b", ip, t, True) @ L("b", ip, s)))
    return sys.operator(terms)


def _quantize_pairing(sys, M, partner, t1, t2):
    """Ladder expansion of ``integral psi^dagger(t1, P x) M psi(t2, x) dx``.

    ``partner(ip)`` is the index of ``q = P p``, the one ket momentum the
    x-integral leaves for the bra momentum ``p``.  All four channels of the
    module docstring are kept with their phases; a channel's ladder product
    is composed only when its coefficient is non-zero, and a non-finite
    coefficient raises ``ValueError``.
    """
    L = sys.ladder
    terms = []
    for ip in range(len(sys.momenta)):
        iq = partner(ip)
        imp, imq = sys.reflected_index(ip), sys.reflected_index(iq)
        E = sys.energy(ip)
        p, q = np.array(sys.momenta[ip]), np.array(sys.momenta[iq])
        u_bar = {r: gm.u_spinor(p, sys.mass, r).conj() @ M for r in SPINS}
        v_bar = {r: gm.v_spinor(-p, sys.mass, r).conj() @ M for r in SPINS}
        u = {s: gm.u_spinor(q, sys.mass, s) for s in SPINS}
        v = {s: gm.v_spinor(-q, sys.mass, s) for s in SPINS}
        # (bra spinors, ket spinors, phase time, ladder product) per channel
        channels = (
            (u_bar, u, t1 - t2, lambda r, s: L("a", ip, r, True) @ L("a", iq, s)),
            (u_bar, v, t1 + t2, lambda r, s: L("a", ip, r, True) @ L("b", imq, s, True)),
            (v_bar, u, -(t1 + t2), lambda r, s: L("b", imp, r) @ L("a", iq, s)),
            (v_bar, v, t2 - t1, lambda r, s: L("b", imp, r) @ L("b", imq, s, True)),
        )
        for r in SPINS:
            for s in SPINS:
                for bra, ket, dt, ladder in channels:
                    c = (bra[r] @ ket[s]) / (2 * E) * np.exp(1j * E * dt)
                    if not np.isfinite(c):
                        raise ValueError(
                            f"non-finite pairing coefficient {c} at p={sys.momenta[ip]}, spins ({r}, {s})"
                        )
                    if c != 0:
                        terms.append((c, ladder(r, s)))
    return sys.operator(terms, dtype=complex)


def quantize_reflection_charge(sys, t=0.0):
    """The time-reflected pairing ``integral psibar(-t, x) gamma4 psi(t, x) dx``.

    Its diagonal channels vanish, which makes it time-independent.
    """
    rep = gm.dirac_representation()
    return _quantize_pairing(sys, rep.gamma0 @ rep.gamma4, lambda ip: ip, -t, t)


def quantize_cpt_charge(sys, t=0.0):
    """The CPT pairing ``integral psibar(t, x, -y, z) gamma2 gamma0 gamma4 psi(t, x) dx``.

    Needs a lattice closed under ``p -> (p1, -p2, p3)``; the result is
    :func:`build_kappa45` times a unit constant.
    """
    rep = gm.dirac_representation()
    M = rep.gamma0 @ rep.gamma(2) @ rep.gamma0 @ rep.gamma4
    return _quantize_pairing(sys, M, sys.conjugated_index, t, t)
