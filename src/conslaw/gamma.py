"""Gamma-matrix algebra in the Dirac representation, and plane-wave spinors.

Conventions: metric ``eta = diag(+,-,-,-)``, gamma0 Hermitian, spatial gammas
anti-Hermitian, ``gamma4 = i gamma0 gamma1 gamma2 gamma3`` (the chirality
matrix, often written gamma5 elsewhere).  Lowered indices: ``gamma_0 =
gamma0``, ``gamma_i = -gammai``.

The spinors ``u_s(p)``, ``v_s(p)`` use spin labels s in {1, 2} with arithmetic
mod 2 (2 + 1 -> 1), chi_1 = (1,0), chi_2 = (0,1), and normalization
``u_r(p)^dagger u_s(p) = 2 E_p delta_rs``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "GammaRep",
    "dirac_representation",
    "spin_flip",
    "chi",
    "energy",
    "u_spinor",
    "v_spinor",
    "spinor_identity_report",
]

_I2 = np.eye(2, dtype=complex)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _frozen(a, dtype):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GammaRep:
    """A concrete 4x4 realization of the spacetime Clifford relations.

    The matrices are read-only copies of the arguments, so ``gamma4``,
    computed once from them, cannot go stale.
    """

    gammas: tuple  # (gamma0, gamma1, gamma2, gamma3), raised indices
    eta: np.ndarray
    gamma4: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = tuple(_frozen(g, complex) for g in self.gammas)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "eta", _frozen(self.eta, None))
        # i*gamma0*gamma1*gamma2*gamma3; anticommutes with all four
        object.__setattr__(self, "gamma4", _frozen(1j * g[0] @ g[1] @ g[2] @ g[3], complex))

    @property
    def gamma0(self):
        return self.gammas[0]

    def gamma(self, mu):
        """Raised-index gamma^mu."""
        return self.gammas[mu]

    def gamma_lower(self, mu):
        """Lowered-index gamma_mu = eta_{mu nu} gamma^nu."""
        return self.eta[mu, mu] * self.gammas[mu]

    def sigma_spin(self, i):
        """Spin matrix diag(sigma_i, sigma_i)."""
        z = np.zeros((2, 2))
        s = PAULI[i - 1]
        return np.block([[s, z], [z, s]])

    def check_relations(self, tol=0.0):
        """Verify the anticommutation relations and Hermiticity structure.

        With ``tol=0`` the checks are exact (integer / half-integer entries).
        """
        eye = np.eye(4)
        for mu in range(4):
            for nu in range(4):
                anti = self.gammas[mu] @ self.gammas[nu] + self.gammas[nu] @ self.gammas[mu]
                want = 2 * self.eta[mu, nu] * eye
                if np.max(np.abs(anti - want)) > tol:
                    raise ValueError(f"Clifford relation fails at ({mu}, {nu})")
        if np.max(np.abs(self.gamma0.conj().T - self.gamma0)) > tol:
            raise ValueError("gamma0 is not Hermitian")
        for i in range(1, 4):
            if np.max(np.abs(self.gammas[i].conj().T + self.gammas[i])) > tol:
                raise ValueError(f"gamma{i} is not anti-Hermitian")
        g4 = self.gamma4
        for mu in range(4):
            if np.max(np.abs(g4 @ self.gammas[mu] + self.gammas[mu] @ g4)) > tol:
                raise ValueError(f"gamma4 does not anticommute with gamma{mu}")
        return True


@functools.cache
def dirac_representation():
    """The standard Dirac representation, built once; its arrays are read-only."""
    z = np.zeros((2, 2))
    gamma0 = np.block([[_I2, z], [z, -_I2]])
    spatial = tuple(np.block([[z, s], [-s, z]]) for s in PAULI)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    return GammaRep((gamma0,) + spatial, eta)


def spin_flip(s):
    """s + 1 in {1, 2} with arithmetic mod 2 (2 + 1 -> 1)."""
    return 1 if s == 2 else 2


def chi(s):
    out = np.zeros(2, dtype=complex)
    out[s - 1] = 1.0
    return out


def energy(p, m):
    p = np.asarray(p, dtype=float)
    return float(np.sqrt(p @ p + m * m))


def u_spinor(p, m, s):
    """Positive-branch spinor u_s(p) with u^dagger u = 2 E_p."""
    p = np.asarray(p, dtype=float)
    E = energy(p, m)
    sp = sum(p[i] * PAULI[i] for i in range(3))
    c = chi(s)
    return np.sqrt(E + m) * np.concatenate([c, (sp @ c) / (E + m)])


def v_spinor(p, m, s):
    """Negative-branch spinor v_s(p) with v^dagger v = 2 E_p."""
    p = np.asarray(p, dtype=float)
    E = energy(p, m)
    sp = sum(p[i] * PAULI[i] for i in range(3))
    c = chi(s)
    return np.sqrt(E + m) * np.concatenate([(sp @ c) / (E + m), c])


def _bar(spinor, rep):
    return spinor.conj() @ rep.gamma0


def spinor_identity_report(p, m):
    """Check the gamma2 spin-flip identities and the four pair contractions.

    With ``p' = (p1, -p2, p3)``:

    * ``gamma2 u_s(p')  =  i (-1)^s     v_{s+1}(p)``
    * ``gamma2 v_s(-p') =  i (-1)^{s+1} u_{s+1}(-p)``

    and, sandwiching ``gamma0 gamma4`` between barred and plain spinors,

    * ``ubar_r(p)  . u_{s+1}(-p) = 0``          (pair-creation channel)
    * ``vbar_r(-p) . v_{s+1}(p)  = 0``          (pair-annihilation channel)
    * ``ubar_r(p)  . v_{s+1}(p)  = 2 E_p delta^{r,s+1}``
    * ``vbar_r(-p) . u_{s+1}(-p) = 2 E_p delta^{r,s+1}``

    in the Dirac representation.  Returns a dict of named max-residuals and
    ``passed`` (every residual at most 1e-12); raises nothing.
    """
    rep = dirac_representation()
    p = np.asarray(p, dtype=float)
    pp = np.array([p[0], -p[1], p[2]])
    E = energy(p, m)
    g2 = rep.gamma(2)
    g04 = rep.gamma0 @ rep.gamma4

    report = {}
    flip_u = flip_v = 0.0
    for s in (1, 2):
        sign = (-1.0) ** s
        lhs_u = g2 @ u_spinor(pp, m, s)
        rhs_u = 1j * sign * v_spinor(p, m, spin_flip(s))
        flip_u = max(flip_u, float(np.max(np.abs(lhs_u - rhs_u))))
        lhs_v = g2 @ v_spinor(-pp, m, s)
        rhs_v = -1j * sign * u_spinor(-p, m, spin_flip(s))
        flip_v = max(flip_v, float(np.max(np.abs(lhs_v - rhs_v))))
    scale = np.sqrt(2 * E)
    report["gamma2_u_flip"] = flip_u / scale
    report["gamma2_v_flip"] = flip_v / scale

    uu = uv = vu = vv = 0.0
    for r in (1, 2):
        ubar = _bar(u_spinor(p, m, r), rep)
        vbar = _bar(v_spinor(-p, m, r), rep)
        for s in (1, 2):
            t = spin_flip(s)
            delta = 1.0 if r == t else 0.0
            uu = max(uu, abs(ubar @ g04 @ u_spinor(-p, m, t)))
            vv = max(vv, abs(vbar @ g04 @ v_spinor(p, m, t)))
            uv = max(uv, abs(ubar @ g04 @ v_spinor(p, m, t) - 2 * E * delta))
            vu = max(vu, abs(vbar @ g04 @ u_spinor(-p, m, t) - 2 * E * delta))
    report["uu_zero"] = uu / (2 * E)
    report["vv_zero"] = vv / (2 * E)
    report["uv_2E"] = uv / (2 * E)
    report["vu_2E"] = vu / (2 * E)
    report["passed"] = all(v <= 1e-12 for k, v in report.items() if k != "passed")
    return report
