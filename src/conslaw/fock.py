"""Finite fermionic Fock space on a symmetric momentum lattice.

Modes are (species, momentum, spin) with species ``a`` (particle) and ``b``
(antiparticle), spins in {1, 2} (arithmetic mod 2), and a lattice closed
under ``p -> -p``.  Ladder operators follow the standard sign-string
construction on a 2^N-dimensional space (Jordan and Wigner): each maps a
basis state to at most one basis state, with a sign.  They are therefore
kept as signed partial permutations (:class:`SignedMap`), all 2N of them in
one stack, and composed by index arithmetic.  An operator's ladder products
are two stacked maps composed pairwise in one gather, and the
anticommutators of the mode pairs are composed in blocks and checked
exactly, in integer arithmetic.  :meth:`FockSystem.operator` turns the terms
into sparse matrices: it sorts the entries of all terms once, and
coefficients that carry a time axis give one matrix per time from that one
structure.  The checks on those matrices do no sparse arithmetic: a
difference, a commutator with a diagonal ``H``, a trace pairing or a
commutator with a stack of ladder maps is read from the stored CSR entries
and the signed maps, with the bits of the sparse expression it replaces.
Lattice normalization replaces the continuum ``(2pi)^3 delta^3`` by a
Kronecker delta; the charge identities are homogeneous in this
normalization.

The time-reflected and the CPT pairing are quantized by one expansion of
``integral psi^dagger(t1, P x) M psi(t2, x) dx``, whose x-integral pairs
each bra momentum ``p`` with the ket momentum ``q = P p`` of the space
reflection ``P``.  For spins ``r, s`` it has four channels, each coefficient
divided by ``2 E_p``::

    u_r(p)^dagger M u_s(q)     a'_p a_q       e^{ iE(t1 - t2)}
    u_r(p)^dagger M v_s(-q)    a'_p b'_-q     e^{ iE(t1 + t2)}
    v_r(-p)^dagger M u_s(q)    b_-p a_q       e^{-iE(t1 + t2)}
    v_r(-p)^dagger M v_s(-q)   b_-p b'_-q     e^{-iE(t1 - t2)}

Only the phase depends on the times, so the expansion takes them as an
array axis: the spinor contractions, the ladder products and the entries'
sort order are built once for all times.  The reflected pairing is
``M = gamma0 gamma4``, ``q = p`` at times ``(-t, t)``; the CPT pairing is
``M = gamma0 gamma2 gamma0 gamma4``, ``q = (p1, -p2, p3)`` at times
``(t, t)``.
"""

from __future__ import annotations

import itertools

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
    "max_abs_commutator",
    "adjoint_sum",
    "commutator_defect",
    "vacuum_defect",
]


SPINS = (1, 2)
_PAIR_ENTRIES = 1 << 16  # entries per stack in one block of anticommutator_report


class SignedMap:
    """A signed partial permutation of the basis states.

    The operator sends state ``x`` to ``phase[x] * |target[x]>``; where it
    vanishes, ``target`` is -1 and ``phase`` is 0.  Both arrays may carry
    leading axes that stack several maps over the same states; indexing a
    map indexes those axes.
    """

    __slots__ = ("target", "phase")

    def __init__(self, target, phase):
        self.target = target
        self.phase = phase

    def __getitem__(self, key):
        return SignedMap(self.target[key], self.phase[key])

    def __matmul__(self, other):
        """The maps of the products ``self @ other`` (``other`` acts first), in one gather.

        Leading axes broadcast: two stacks compose pairwise, and a single map
        composes with every map of a stack.  The gather reads both arrays of
        ``self`` flat, at each state's row offset plus the index of its
        target under ``other``.  Where ``other`` vanishes its phase is 0, so
        the in-range index standing in for its target is masked.
        """
        lead, dim = self.target.shape[:-1], self.target.shape[-1]
        row = np.arange(0, dim * int(np.prod(lead)), dim).reshape(lead + (1,))
        at = row + np.maximum(other.target, 0)
        phase = self.phase.reshape(-1)[at] * other.phase
        return SignedMap(np.where(phase != 0, self.target.reshape(-1)[at], -1), phase)

    @staticmethod
    def stack(maps):
        return SignedMap(np.stack([m.target for m in maps]), np.stack([m.phase for m in maps]))


def _max_entry(*maps):
    """Largest ``|entry|`` of the sum of the maps: phases add where targets agree."""
    sums = [m.phase for m in maps]
    for i, j in itertools.combinations(range(len(maps)), 2):
        same = maps[i].target == maps[j].target
        sums[i] = sums[i] + np.where(same, maps[j].phase, 0)
        sums[j] = sums[j] + np.where(same, maps[i].phase, 0)
    return max(int(np.max(np.abs(s))) for s in sums)


def _cmul(x, y):
    """Complex ``x * y`` with each real product rounded on its own.

    That is how numpy rounds a product of two complex scalars; its array
    loop may fuse a multiply with the add, which changes the last bit.
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def max_abs(op):
    """Max-norm of a sparse or dense operator; a CSR, CSC or COO matrix is read in place."""
    if sparse.issparse(op):
        data = op.data if op.format in ("csr", "csc", "coo") else op.tocoo().data
        return float(np.max(np.abs(data))) if data.size else 0.0
    return float(np.max(np.abs(op)))


# -- exact checks on stored entries ------------------------------------------
#
# Each helper below reads the CSR arrays of its operands (and the signed maps)
# and returns the number its docstring's sparse expression gives, bit for bit:
# scipy computes every entry of a sum, difference or product of these
# operators from at most one product per term, and these helpers form the
# same products and differences of the same entries.


def _mul(x, y):
    """``x * y`` with scipy's sparse arithmetic: a complex product rounds each real product."""
    return _cmul(x, y) if np.iscomplexobj(x) and np.iscomplexobj(y) else x * y


def _entries(A):
    """Rows, columns and values of a matrix's stored entries, in sorted CSR order."""
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    return rows, A.indices.astype(np.int64), A.data


def _lookup(keys, want):
    """Index in the sorted ``keys`` of each of ``want``, and where it is found."""
    at = np.searchsorted(keys, want)
    found = at < len(keys)
    found[found] = keys[at[found]] == want[found]
    return at, found


def _max_of(*parts):
    return max((float(np.max(np.abs(p))) for p in parts if p.size), default=0.0)


def max_abs_commutator(H, Q):
    """``max_abs(H @ Q - Q @ H)`` for a diagonal ``H``, from the stored entries of ``Q``.

    Each entry is ``h_i q_ij - q_ij h_j``, the two one-term products of
    scipy's sparse product.  A stored entry of ``H`` off its diagonal raises
    ``ValueError``.
    """
    if H.shape != Q.shape or H.shape[0] != H.shape[1]:
        raise ValueError(f"need square matrices of one shape, got {H.shape} and {Q.shape}")
    rows, cols, h = _entries(H)
    if np.any(rows != cols):
        raise ValueError("H is not diagonal")
    diag = np.zeros(H.shape[0], dtype=H.dtype)
    diag[rows] = h
    rows, cols, q = _entries(Q)
    return _max_of(_mul(diag[rows], q) - _mul(q, diag[cols]))


def adjoint_sum(A, B):
    """``A.multiply(B.conj().T).sum()``: the sum of the products ``A_ij conj(B_ji)``.

    Each entry of ``A`` finds its partner in ``B`` with ``searchsorted``;
    the non-zero products are summed with ``np.sum`` in the CSR order of
    ``A``, as the sparse elementwise product stores them.
    """
    if A.shape != B.shape[::-1]:
        raise ValueError(f"shapes do not transpose: {A.shape} and {B.shape}")
    ra, ca, a = _entries(A)
    rb, cb, b = _entries(B)
    at, both = _lookup(rb * B.shape[1] + cb, ca * B.shape[1] + ra)
    prod = _mul(a[both], b[at[both]].conj())
    prod = prod[prod != 0]
    return np.sum(prod) if prod.size else prod.dtype.type(0)


# Entries of products with a stack of signed maps ``M_j``, as flat positions
# ``(j * dim + row) * dim + col`` and values.  ``M_j`` sends ``x`` to
# ``phase * |y>``, so one stored entry of ``K`` gives at most one entry of
# each product.


def _left_entries(K, maps):
    """Entries of ``K @ M_j``: ``K[r, y] * phase`` at ``(r, x)``, for the ``x`` sent to ``y``."""
    n, dim = maps.target.shape
    j, x = np.nonzero(maps.phase)
    source = np.full((n, dim), -1, dtype=np.int64)
    source[j, maps.target[j, x]] = x
    rows, cols, k = _entries(K)
    j, e = np.nonzero(source[:, cols] >= 0)
    x = source[j, cols[e]]
    return (j * dim + rows[e]) * dim + x, k[e] * maps.phase[j, x]


def _right_entries(maps, K):
    """Entries of ``M_j @ K``: ``phase * K[y, x]`` at ``(target[y], x)``."""
    dim = maps.target.shape[1]
    rows, cols, k = _entries(K)
    j, e = np.nonzero(maps.phase[:, rows])
    return (j * dim + maps.target[j, rows[e]]) * dim + cols[e], maps.phase[j, rows[e]] * k[e]


def _map_entries(maps):
    """Entries of the maps ``M_j`` themselves."""
    dim = maps.target.shape[1]
    j, x = np.nonzero(maps.phase)
    return (j * dim + maps.target[j, x]) * dim + x, maps.phase[j, x]


def _max_of_difference(first, *rest):
    """Largest ``|entry|`` of ``first - rest[0] - rest[1] - ...``, each a ``(positions, values)`` part.

    A part holds at most one entry per position, and a missing entry counts
    as zero, so every entry is the difference that scipy's sparse
    subtraction forms.  The positions of all parts are merged in one sort.
    """
    parts = (first,) + rest
    keys, where = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    where = np.split(where, np.cumsum([len(k) for k, _ in parts])[:-1])
    total = np.zeros(len(keys), dtype=np.result_type(*(v for _, v in parts), float))
    total[where[0]] = first[1]
    for at, (_, v) in zip(where[1:], rest):
        term = np.zeros_like(total)
        term[at] = v
        total = total - term
    return _max_of(total)


def commutator_defect(K, maps, want):
    """``max_j max_abs(K @ M_j - M_j @ K - W_j)`` over stacks of signed maps ``M`` and ``W``.

    Both products are ``K``'s stored entries moved by the maps, and all
    ``j`` are checked in one merge.
    """
    return _max_of_difference(_left_entries(K, maps), _right_entries(maps, K), _map_entries(want))


def vacuum_defect(K, maps, want):
    """``max_j max|K @ M_j |0> - W_j |0>|`` over stacks of signed maps ``M`` and ``W``."""
    dim = maps.target.shape[1]

    def column(part):
        keys, values = part
        keep = keys % dim == 0
        return keys[keep], values[keep]

    return _max_of_difference(column(_left_entries(K, maps)), column(_map_entries(want)))


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
        self._ladders = self._ladder_table()
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

    def _ladder_table(self):
        """Read-only signed maps of every ``c_q`` and ``c_q'``, stacked as ``[dagger, q]``."""
        states = np.arange(self.dim, dtype=np.int32)
        bit = (1 << np.arange(self.nmodes, dtype=np.int32))[:, None]
        occupied = states & bit != 0
        # (-1)^(occupied modes below q), the same before and after the flip
        sign = 1 - 2 * (np.bitwise_count(states & (bit - 1)) & 1).astype(np.int8)
        acts = np.stack([occupied, ~occupied])
        table = SignedMap(np.where(acts, states ^ bit, -1), np.where(acts, sign, 0).astype(np.int8))
        table.target.flags.writeable = table.phase.flags.writeable = False
        return table

    def _mode(self, species, p, s):
        ip = p if isinstance(p, (int, np.integer)) else self.momentum_index(p)
        return self._mode_index[(species, ip, s)]

    def ladder(self, species, p, s, dagger=False):
        """Signed map of the annihilator (``dagger``: creator) of one mode."""
        return self._ladders[int(dagger), self._mode(species, p, s)]

    def ladders(self, keys):
        """Stacked signed maps of the ladder operators with ``(species, p, s, dagger)`` keys."""
        idx = np.array([(dagger, self._mode(sp, p, s)) for sp, p, s, dagger in keys], dtype=int)
        return self._ladders[tuple(idx.reshape(-1, 2).T)]

    def products(self, left, right):
        """Stacked maps of the ladder products ``left[j] @ right[j]``.

        Each factor is a key of :meth:`ladders`; both sides are gathered
        from the ladder stack and composed pairwise in one gather.
        """
        return self.ladders(left) @ self.ladders(right)

    def bilinear(self, terms, dtype=float):
        """One CSR matrix for ``sum coef * L @ R`` over ``terms = [(coef, L, R), ...]``.

        ``L`` and ``R`` are ladder keys as in :meth:`products`; the terms keep
        their order, and with it the summation order of every entry.
        """
        coefs, left, right = zip(*terms)
        return self.operator((np.array(coefs), self.products(left, right)), dtype)

    def operator(self, terms, dtype=float):
        """CSR matrices of ``sum coef * map``, built from one sort of all entries.

        ``terms`` is ``(coefs, maps)``: ``n`` stacked signed maps and their
        coefficients, of shape ``(n,)`` for one matrix or ``(n, T)`` for a
        list of ``T`` matrices over the same maps.  A list ``[(coef, map),
        ...]`` is stacked into that form.  The entries of all terms are
        sorted stably by position once; coinciding entries are summed in
        term order, as the COO to CSR conversion sums them, and entries that
        cancel are dropped from each matrix.
        """
        if isinstance(terms, list):
            terms = (np.array([c for c, _ in terms]), SignedMap.stack([m for _, m in terms]))
        coefs, maps = terms
        term, cols = np.nonzero(maps.phase)
        pos = maps.target[term, cols] * np.int64(self.dim) + cols
        order = np.argsort(pos, kind="stable")
        term, cols, pos = term[order], cols[order], pos[order]
        vals = coefs[term] * maps.phase[term, cols].reshape((-1,) + (1,) * (coefs.ndim - 1))
        # coinciding entries: run k of a position holds its k-th term; adding
        # the runs in turn sums in term order, and -0.0 pads leave values as they are
        first = np.ones(len(pos), dtype=bool)
        first[1:] = pos[1:] != pos[:-1]
        run = np.cumsum(first) - 1
        start = np.flatnonzero(first)
        rank = np.arange(len(pos)) - start[run]
        runs = -np.zeros((rank.max(initial=0) + 1, len(start)) + vals.shape[1:], dtype=dtype)
        runs[rank, run] = vals
        total = runs[0]
        for k in range(1, len(runs)):
            total = total + runs[k]
        rows, cols = pos[start] // self.dim, cols[start]

        def csr(values):
            keep = values != 0
            indptr = np.zeros(self.dim + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[keep], minlength=self.dim), out=indptr[1:])
            return sparse.csr_matrix((values[keep], cols[keep], indptr), shape=(self.dim, self.dim))

        return csr(total) if total.ndim == 1 else [csr(v) for v in total.T]

    def _ladder_op(self, species, p, s, dagger):
        q = self._mode(species, p, s)
        op = self._ops.get((q, dagger))
        if op is None:
            op = self._ops[(q, dagger)] = self.operator([(1.0, self._ladders[int(dagger), q])])
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
        terms = []
        for ip in range(len(self.momenta)):
            E = self.energy(ip)
            for s in SPINS:
                terms.append((E, ("a", ip, s, True), ("a", ip, s, False)))
                terms.append((E, ("b", ip, s, True), ("b", ip, s, False)))
        return self.bilinear(terms)

    def anticommutator_report(self):
        """Exact worst-case deviation of all ladder anticommutators.

        A column of ``{c_q, c_r}`` or ``{c_q, c_r'} - delta_qr I`` holds at
        most three entries, from the composed maps of the two products and
        the identity; they are added where their targets agree, in +-1
        integer arithmetic.  The products are composed for a block of ``q``
        at once, as stacks broadcast over the block's ``(q, r)`` grid.  A
        block holds at most ``_PAIR_ENTRIES`` entries per stack, or one
        ``q``; the 8-mode lattice is one block.
        """
        n, lower = self.nmodes, self._ladders[0]
        cr, cr_dag = lower[None], self._ladders[1][None]
        block = max(1, _PAIR_ENTRIES // (n * self.dim))
        worst = 0
        for start in range(0, n, block):
            q = np.arange(start, min(start + block, n))
            cq = lower[q][:, None]
            eye = (q[:, None] == np.arange(n))[..., None]
            delta = SignedMap(np.where(eye, np.arange(self.dim), -1), -eye.astype(np.int8))
            worst = max(worst, _max_entry(cq @ cr, cr @ cq), _max_entry(cq @ cr_dag, cr_dag @ cq, delta))
        return float(worst)


def build_kappa0(sys):
    """Lattice operator sum_{p,s} (a'_{-p,s} b_{p,s} + b'_{-p,s} a_{p,s}).

    Annihilates the vacuum, satisfies ``[kappa0, a'_{p,s}] = b'_{-p,s}`` and
    commutes with the Hamiltonian: it swaps a particle for an antiparticle
    while reversing momentum.
    """
    terms = []
    for ip in range(len(sys.momenta)):
        im = sys.reflected_index(ip)
        for s in SPINS:
            terms.append((1.0, ("a", im, s, True), ("b", ip, s, False)))
            terms.append((1.0, ("b", im, s, True), ("a", ip, s, False)))
    return sys.bilinear(terms)


def build_kappa45(sys):
    """Lattice operator sum_{p,s} (-1)^s (a'_{p,s} a_{p,s+1} + b'_{p,s+1} b_{p,s})."""
    terms = []
    for ip in range(len(sys.momenta)):
        for s in SPINS:
            t = gm.spin_flip(s)
            sign = (-1.0) ** s
            terms.append((sign, ("a", ip, s, True), ("a", ip, t, False)))
            terms.append((sign, ("b", ip, t, True), ("b", ip, s, False)))
    return sys.bilinear(terms)


def _quantize_pairing(sys, M, partner, t1, t2):
    """Ladder expansion of ``integral psi^dagger(t1, P x) M psi(t2, x) dx``.

    ``partner(ip)`` is the index of ``q = P p``, the one ket momentum the
    x-integral leaves for the bra momentum ``p``.  ``t1`` and ``t2`` are two
    times, or two sequences of times, one matrix each.  The spinor
    contractions and the ladder products are formed once; each term's
    coefficient ``(bra @ ket) / (2 E)`` then takes the channel's phase at
    every time, and one :meth:`FockSystem.operator` call builds all the
    matrices.  A term is composed only when its coefficient is non-zero at
    some time.  A non-finite coefficient raises ``ValueError``, for the first
    such term in the order of momentum, spins and channel.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    base, energy, channel, left, right, where = [], [], [], [], [], []
    for ip in range(len(sys.momenta)):
        iq = partner(ip)
        imp, imq = sys.reflected_index(ip), sys.reflected_index(iq)
        E = sys.energy(ip)
        p, q = np.array(sys.momenta[ip]), np.array(sys.momenta[iq])
        u_bar = {r: gm.u_spinor(p, sys.mass, r).conj() @ M for r in SPINS}
        v_bar = {r: gm.v_spinor(-p, sys.mass, r).conj() @ M for r in SPINS}
        u = {s: gm.u_spinor(q, sys.mass, s) for s in SPINS}
        v = {s: gm.v_spinor(-q, sys.mass, s) for s in SPINS}
        # (bra spinors, ket spinors, ladder factors) per channel
        channels = (
            (u_bar, u, lambda r, s: (("a", ip, r, True), ("a", iq, s, False))),
            (u_bar, v, lambda r, s: (("a", ip, r, True), ("b", imq, s, True))),
            (v_bar, u, lambda r, s: (("b", imp, r, False), ("a", iq, s, False))),
            (v_bar, v, lambda r, s: (("b", imp, r, False), ("b", imq, s, True))),
        )
        for r in SPINS:
            for s in SPINS:
                for k, (bra, ket, factors) in enumerate(channels):
                    base.append((bra[r] @ ket[s]) / (2 * E))
                    energy.append(E)
                    channel.append(k)
                    L, R = factors(r, s)
                    left.append(L)
                    right.append(R)
                    where.append((sys.momenta[ip], r, s))
    # a non-finite time or contraction is reported below, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        # each channel's phase time, in the order of the module docstring
        dts = np.stack(np.broadcast_arrays(t1 - t2, t1 + t2, -(t1 + t2), t2 - t1)).reshape(4, -1)
        phase = np.exp(1j * np.array(energy)[:, None] * dts[channel])
        coefs = _cmul(np.array(base)[:, None], phase)
    bad = np.argwhere(~np.isfinite(coefs))
    if len(bad):
        k, j = bad[0]
        p, r, s = where[k]
        raise ValueError(f"non-finite pairing coefficient {coefs[k, j]} at p={p}, spins ({r}, {s})")
    keep = np.flatnonzero((coefs != 0).any(axis=1))
    maps = sys.products([left[k] for k in keep], [right[k] for k in keep])
    ops = sys.operator((coefs[keep], maps), dtype=complex)
    return ops if t1.ndim else ops[0]


def quantize_reflection_charge(sys, t=0.0):
    """The time-reflected pairing ``integral psibar(-t, x) gamma4 psi(t, x) dx``.

    Its diagonal channels vanish, which makes it time-independent.  A
    sequence of times gives a list with one matrix per time.
    """
    rep = gm.dirac_representation()
    t = np.asarray(t, dtype=float)
    return _quantize_pairing(sys, rep.gamma0 @ rep.gamma4, lambda ip: ip, -t, t)


def quantize_cpt_charge(sys, t=0.0):
    """The CPT pairing ``integral psibar(t, x, -y, z) gamma2 gamma0 gamma4 psi(t, x) dx``.

    Needs a lattice closed under ``p -> (p1, -p2, p3)``; the result is
    :func:`build_kappa45` times a unit constant.  A sequence of times gives
    a list with one matrix per time.
    """
    rep = gm.dirac_representation()
    M = rep.gamma0 @ rep.gamma(2) @ rep.gamma0 @ rep.gamma4
    return _quantize_pairing(sys, M, sys.conjugated_index, t, t)
