"""Finite fermionic Fock space on a symmetric momentum lattice.

Modes are (species, momentum, spin) with species ``a`` (particle) and ``b``
(antiparticle), spins in {1, 2} (arithmetic mod 2), and a lattice closed
under ``p -> -p``.  Ladder operators are built by the standard sign-string
construction on a 2^N-dimensional space, so every anticommutation relation
is exact in integer arithmetic.  Lattice normalization replaces the continuum
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

__all__ = ["FockSystem", "build_kappa0", "build_kappa45", "quantize_reflection_charge", "quantize_cpt_charge", "max_abs"]


SPINS = (1, 2)


def max_abs(op):
    """Max-norm of a sparse or dense operator."""
    if sparse.issparse(op):
        op = op.tocoo()
        return float(np.max(np.abs(op.data))) if op.nnz else 0.0
    return float(np.max(np.abs(op)))


class FockSystem:
    """Ladder algebra for two fermionic species on a momentum lattice."""

    def __init__(self, momenta, mass=1.0):
        self.momenta = [tuple(float(c) for c in p) for p in momenta]
        self.mass = float(mass)
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
        self._lower = {}

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

    def _lowering(self, q):
        """Annihilator of mode q with the fermionic sign string (exact)."""
        hit = self._lower.get(q)
        if hit is not None:
            return hit
        states = np.arange(self.dim, dtype=np.int64)
        occupied = (states >> q) & 1 == 1
        src = states[occupied]
        dst = src & ~(1 << q)
        below = src & ((1 << q) - 1)
        phase = 1.0 - 2.0 * (
            np.array([int(x).bit_count() for x in below], dtype=np.int64) % 2
        )
        op = sparse.csr_matrix(
            (phase.astype(float), (dst, src)), shape=(self.dim, self.dim)
        )
        self._lower[q] = op
        return op

    def annihilate(self, species, p, s):
        ip = p if isinstance(p, (int, np.integer)) else self.momentum_index(p)
        return self._lowering(self._mode_index[(species, ip, s)])

    def create(self, species, p, s):
        return self.annihilate(species, p, s).conj().T.tocsr()

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
        H = sparse.csr_matrix((self.dim, self.dim))
        for ip in range(len(self.momenta)):
            E = self.energy(ip)
            for s in SPINS:
                H = H + E * (self.adag(ip, s) @ self.a(ip, s))
                H = H + E * (self.bdag(ip, s) @ self.b(ip, s))
        return H

    def anticommutator_report(self):
        """Exact worst-case deviation of all ladder anticommutators."""
        eye = sparse.identity(self.dim, format="csr")
        worst = 0.0
        ops = [(q, self._lowering(q)) for q in range(self.nmodes)]
        for q, cq in ops:
            for r, cr in ops:
                worst = max(worst, max_abs(cq @ cr + cr @ cq))
                want = eye if q == r else None
                anti = cq @ cr.conj().T + cr.conj().T @ cq
                if want is not None:
                    anti = anti - want
                worst = max(worst, max_abs(anti))
        return worst


def build_kappa0(sys):
    """Lattice operator sum_{p,s} (a'_{-p,s} b_{p,s} + b'_{-p,s} a_{p,s}).

    Annihilates the vacuum, satisfies ``[kappa0, a'_{p,s}] = b'_{-p,s}`` and
    commutes with the Hamiltonian: it swaps a particle for an antiparticle
    while reversing momentum.
    """
    K = sparse.csr_matrix((sys.dim, sys.dim))
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for s in SPINS:
            K = K + sys.adag(im, s) @ sys.b(ip, s)
            K = K + sys.bdag(im, s) @ sys.a(ip, s)
    return K


def build_kappa45(sys):
    """Lattice operator sum_{p,s} (-1)^s (a'_{p,s} a_{p,s+1} + b'_{p,s+1} b_{p,s})."""
    K = sparse.csr_matrix((sys.dim, sys.dim))
    for ip in range(len(sys.momenta)):
        for s in SPINS:
            t = gm.spin_flip(s)
            sign = (-1.0) ** s
            K = K + sign * (sys.adag(ip, s) @ sys.a(ip, t))
            K = K + sign * (sys.bdag(ip, t) @ sys.b(ip, s))
    return K


def _quantize_pairing(sys, M, partner, t1, t2):
    """Ladder expansion of ``integral psi^dagger(t1, P x) M psi(t2, x) dx``.

    ``partner(ip)`` is the index of ``q = P p``, the one ket momentum the
    x-integral leaves for the bra momentum ``p``.  All four channels of the
    module docstring are kept with their phases; a channel's ladder product
    is built only when its coefficient is non-zero.
    """
    K = sparse.csr_matrix((sys.dim, sys.dim), dtype=complex)
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
            (u_bar, u, t1 - t2, lambda r, s: sys.adag(ip, r) @ sys.a(iq, s)),
            (u_bar, v, t1 + t2, lambda r, s: sys.adag(ip, r) @ sys.bdag(imq, s)),
            (v_bar, u, -(t1 + t2), lambda r, s: sys.b(imp, r) @ sys.a(iq, s)),
            (v_bar, v, t2 - t1, lambda r, s: sys.b(imp, r) @ sys.bdag(imq, s)),
        )
        for r in SPINS:
            for s in SPINS:
                for bra, ket, dt, ladder in channels:
                    c = (bra[r] @ ket[s]) / (2 * E) * np.exp(1j * E * dt)
                    if abs(c) > 0:
                        K = K + c * ladder(r, s)
    return K


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
