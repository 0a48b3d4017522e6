"""Constant-coefficient matrix differential operators and their Fourier symbols.

An operator is a finite sum ``sum_a M_a * D^a`` where ``a`` ranges over
multi-indices in ``n + 1`` variables (slot 0 is always time) and every ``M_a``
is a complex ``l x m`` matrix.  Multi-indices are plain tuples of ints in
``0..MAX_POWER`` (a slot given as an integral float such as ``1.0`` reads as
an int; a fractional one is refused).  All operations are pure; operators
are immutable after construction.

Coefficient arithmetic is done in complex128.  When entries are exact (small
integers, Gaussian integers scaled to floats) sums and products stay exact, so
``==`` is exact dict comparison; ``allclose`` is available for inexact data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_POWER",
    "midx_order",
    "midx_add",
    "ConstCoeffOperator",
    "op_add",
    "op_compose",
    "op_commutator",
    "op_lower",
    "identity_operator",
    "zero_operator",
]

MAX_POWER = 64  # largest derivative order in one slot; the flux peels one per step


def midx_order(alpha):
    """Total order |alpha| of a multi-index."""
    return sum(alpha)


def midx_add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


class ConstCoeffOperator:
    """A constant-coefficient matrix differential operator.

    Parameters
    ----------
    nvars : int
        Number of independent variables (time + space), so ``nvars = n + 1``.
    shape : (int, int)
        Matrix shape ``(rows, cols)`` of the coefficients.
    terms : dict or iterable
        Map multi-index -> array_like of shape ``shape``, or an iterable of
        ``(multi-index, matrix)`` pieces.  This is the one summation rule of
        the operator algebra: pieces are added in order, a multi-index keeps
        the place of its first piece, and zero totals are dropped at the end.
        A non-finite total raises ``ValueError``.
    """

    __slots__ = ("nvars", "shape", "terms")

    def __init__(self, nvars, shape, terms):
        shape = (int(shape[0]), int(shape[1]))
        sums = {}
        # lazy pieces compute their matrices here too, so overflow shows as a non-finite total
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha, mat in terms.items() if isinstance(terms, dict) else terms:
                given = tuple(alpha)
                try:
                    alpha = tuple(int(a) for a in given)
                except (OverflowError, ValueError):  # inf or nan
                    alpha = None
                if alpha != given:
                    raise ValueError(f"multi-index {given} has a slot that is not an integer")
                if len(alpha) != nvars:
                    raise ValueError(f"multi-index {alpha} has {len(alpha)} slots, expected {nvars}")
                if not all(0 <= a <= MAX_POWER for a in alpha):
                    raise ValueError(f"multi-index {alpha} has a slot outside 0..{MAX_POWER}")
                mat = np.array(mat, dtype=complex)
                if mat.shape != shape:
                    raise ValueError(f"term {alpha} has shape {mat.shape}, expected {shape}")
                sums[alpha] = sums[alpha] + mat if alpha in sums else mat
        canon = {}
        for alpha, mat in sums.items():
            if not np.isfinite(mat).all():
                raise ValueError(f"term {alpha} has a non-finite coefficient")
            if mat.any():
                mat.flags.writeable = False
                canon[alpha] = mat
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError("ConstCoeffOperator is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def is_zero(self):
        return not self.terms

    def is_square(self):
        return self.shape[0] == self.shape[1]

    def time_order(self):
        """Highest power of D_t appearing."""
        return max((a[0] for a in self.terms), default=0)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        return op_add(self, other)

    def __sub__(self, other):
        return op_add(self, -other)

    def __neg__(self):
        return ConstCoeffOperator(
            self.nvars, self.shape, {a: -m for a, m in self.terms.items()}
        )

    def __mul__(self, scalar):
        scalar = complex(scalar)
        # lazy pieces: the product overflows inside the constructor's errstate
        return ConstCoeffOperator(self.nvars, self.shape, ((a, scalar * m) for a, m in self.terms.items()))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return op_compose(self, other)

    def __eq__(self, other):
        if not isinstance(other, ConstCoeffOperator):
            return NotImplemented
        if self.nvars != other.nvars or self.shape != other.shape:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(np.array_equal(self.terms[a], other.terms[a]) for a in self.terms)

    def __hash__(self):
        return hash(
            (self.nvars, self.shape, frozenset((a, m.tobytes()) for a, m in self.terms.items()))
        )

    def allclose(self, other, rtol=1e-12):
        """Tolerant equality for operators with inexact coefficients."""
        if self.nvars != other.nvars or self.shape != other.shape:
            return False
        scale = max(self.max_norm(), other.max_norm(), 1e-300)
        for alpha in set(self.terms) | set(other.terms):
            a = self.terms.get(alpha)
            b = other.terms.get(alpha)
            if a is None:
                a = np.zeros(self.shape)
            if b is None:
                b = np.zeros(self.shape)
            if np.max(np.abs(a - b)) > rtol * scale:
                return False
        return True

    def max_norm(self):
        return max((np.max(np.abs(m)) for m in self.terms.values()), default=0.0)

    # -- Fourier symbol ---------------------------------------------------

    def symbol(self, k):
        """Evaluate the symbol ``sum_a M_a (ik)^a`` at wavevector ``k``.

        ``k`` may be real or complex with ``nvars`` entries (slot 0 is the
        dual of time), or an ``(n, nvars)`` stack of them, which gives a stack
        of ``n`` matrices.  The symbol of a composition is the matrix product
        of the symbols.
        """
        k = np.asarray(k, dtype=complex)
        if k.ndim not in (1, 2) or k.shape[-1] != self.nvars:
            raise ValueError(f"wavevector must have {self.nvars} entries")
        return _symbol_sum(1j * k, self.shape, self.terms.items())

    def spatial_symbol(self, kspace, time_power):
        """Matrix coefficient of ``(d/dt)^time_power`` at spatial wavevectors.

        Collects all terms with ``alpha[0] == time_power`` and evaluates the
        spatial part at ``kspace``: one wavevector (length ``nvars - 1``)
        gives one matrix, an ``(n, nvars - 1)`` array a stack of ``n``.
        """
        kspace = np.asarray(kspace, dtype=complex)
        terms = ((alpha[1:], mat) for alpha, mat in self.terms.items() if alpha[0] == time_power)
        return _symbol_sum(1j * kspace, self.shape, terms)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        from .dsl import format_operator

        return f"<ConstCoeffOperator {self.shape[0]}x{self.shape[1]}: {format_operator(self)}>"


def _symbol_sum(ik, shape, terms):
    """``sum M (ik)^alpha`` over ``(alpha, M)`` terms, ``ik`` one row or a stack."""
    batch = ik.shape[:-1]
    out = np.zeros(batch + shape, dtype=complex)
    axes = np.moveaxis(ik, -1, 0)  # one view per variable, shared by every term
    for alpha, mat in terms:
        factor = np.ones(batch, dtype=complex)
        for e, z in zip(alpha, axes):
            if e:
                factor *= z**e
        out += factor[..., None, None] * mat
    return out


def zero_operator(nvars, shape):
    return ConstCoeffOperator(nvars, shape, {})


def identity_operator(nvars, m):
    return ConstCoeffOperator(nvars, (m, m), {(0,) * nvars: np.eye(m)})


def op_add(L1, L2):
    """Termwise sum of two operators of equal shape."""
    if L1.nvars != L2.nvars:
        raise ValueError("operators act on different variable counts")
    if L1.shape != L2.shape:
        raise ValueError(f"shape mismatch: {L1.shape} vs {L2.shape}")
    return ConstCoeffOperator(L1.nvars, L1.shape, [*L1.terms.items(), *L2.terms.items()])


def op_compose(L1, L2):
    """Composition ``L1 after L2``: multi-indices add, matrices multiply."""
    if L1.nvars != L2.nvars:
        raise ValueError("operators act on different variable counts")
    if L1.cols != L2.rows:
        raise ValueError(f"shape mismatch for composition: {L1.shape} o {L2.shape}")
    pieces = ((midx_add(a1, a2), m1 @ m2) for a1, m1 in L1.terms.items() for a2, m2 in L2.terms.items())
    return ConstCoeffOperator(L1.nvars, (L1.rows, L2.cols), pieces)


def op_lower(L, slot):
    """``sum_a a_j M_a D^(a - e_j)`` for ``j = slot``: its symbol is the
    derivative of ``L``'s symbol in the ``slot`` entry of ``ik``."""
    pieces = (
        (alpha[:slot] + (alpha[slot] - 1,) + alpha[slot + 1 :], alpha[slot] * mat)
        for alpha, mat in L.terms.items()
        if alpha[slot]
    )
    return ConstCoeffOperator(L.nvars, L.shape, pieces)


def op_commutator(L, G):
    """Commutator ``L o G - G o L`` of two square operators of equal shape."""
    if not (L.is_square() and G.is_square() and L.shape == G.shape):
        raise ValueError("commutator needs two square operators of equal shape")
    return op_compose(L, G) - op_compose(G, L)
