"""Named operators, symmetry generators and initial-data profiles.

Catalog entries are addressable from scenario files and the CLI as
``name(key=value, ...)``, e.g. ``heat(dim=1)``, ``kdvkdv.Gamma_s(s=2.0)``,
``packet(seed=3, width=2.0)``.
"""

from __future__ import annotations

import inspect
from functools import partial

import numpy as np

from . import gamma as gm
from .fields import polynomial_field
from .opcore import ConstCoeffOperator
from .symmetry import (
    Conjugation,
    DiffFactor,
    KernelShift,
    MatrixFactor,
    PointReflect,
    SymmetryOp,
)

__all__ = [
    "named_operators",
    "named_symmetries",
    "named_profiles",
    "build_operator",
    "build_symmetry",
    "build_profile",
    "parse_entry",
    "heat_operator",
    "wave_operator",
    "kdvkdv_operator",
    "navier_stokes_operator",
    "dirac_operator",
    "jordan_block_operator",
]


# -- operators ---------------------------------------------------------------


def heat_operator(dim=1, nu=1.0):
    """Scalar heat flow: D_t - nu * Laplace."""
    nv = dim + 1
    terms = {(1,) + (0,) * dim: [[1.0]]}
    for d in range(dim):
        alpha = tuple(2 if j == d + 1 else 0 for j in range(nv))
        terms[alpha] = [[-nu]]
    return ConstCoeffOperator(nv, (1, 1), terms)


def wave_operator(dim=1):
    """Scalar d'Alembert operator: D_t^2 - Laplace."""
    nv = dim + 1
    terms = {(2,) + (0,) * dim: [[1.0]]}
    for d in range(dim):
        alpha = tuple(2 if j == d + 1 else 0 for j in range(nv))
        terms[alpha] = [[-1.0]]
    return ConstCoeffOperator(nv, (1, 1), terms)


def kdvkdv_operator():
    """Coupled linear KdV pair: u_t + v_xxx + v_x = 0, v_t + u_xxx + u_x = 0."""
    eye = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return ConstCoeffOperator(
        2, (2, 2), {(1, 0): eye, (0, 3): swap, (0, 1): swap}
    )


def navier_stokes_operator(nu=1.0):
    """Linearised incompressible Navier-Stokes on (u1, u2, u3, p)."""
    nv = 4
    terms = {}
    vel = np.diag([1.0, 1.0, 1.0, 0.0])
    terms[(1, 0, 0, 0)] = vel
    for d in range(3):
        alpha = tuple(2 if j == d + 1 else 0 for j in range(nv))
        terms[alpha] = -nu * vel
    for d in range(3):
        grad = np.zeros((4, 4))
        grad[d, 3] = 1.0  # pressure gradient
        grad[3, d] = 1.0  # divergence constraint
        alpha = tuple(1 if j == d + 1 else 0 for j in range(nv))
        terms[alpha] = terms.get(alpha, np.zeros((4, 4))) + grad
    return ConstCoeffOperator(nv, (4, 4), terms)


def dirac_operator(m=1.0, rep=None):
    """The free Dirac operator i(gamma0 D_t - gamma^i D_i) - m."""
    rep = rep or gm.dirac_representation()
    terms = {(1, 0, 0, 0): 1j * rep.gamma0, (0, 0, 0, 0): -m * np.eye(4)}
    for i in range(1, 4):
        alpha = tuple(1 if j == i else 0 for j in range(4))
        terms[alpha] = -1j * rep.gamma(i)
    return ConstCoeffOperator(4, (4, 4), terms)


def jordan_block_operator():
    """2x2 upper-triangular example with commuting non-normal coefficients."""
    eye = np.eye(2)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    return ConstCoeffOperator(2, (2, 2), {(1, 0): eye, (0, 3): eye, (1, 1): nil})


def named_operators():
    return {
        "heat": heat_operator,
        "wave": wave_operator,
        "kdvkdv": kdvkdv_operator,
        "ns": navier_stokes_operator,
        "dirac": dirac_operator,
        "jordan2x2": jordan_block_operator,
    }


# -- symmetry generators -----------------------------------------------------


def _identity():
    return SymmetryOp((), name="identity")


def _heat_space_reflection(dim=1):
    mask = (False,) + (True,) * dim
    return SymmetryOp((PointReflect(mask),), name="heat.space_reflection")


def _heat_s_reflection(s=None, dim=1):
    """Direct adjoint-characteristic map u -> u(x, s - t)."""
    mask = (True,) + (False,) * dim
    return SymmetryOp((PointReflect(mask, s=s),), name="heat.s_reflection", char_map=True)


def _heat_time_reversal(dim=1):
    """Bare time reversal; NOT a heat symmetry (negative control)."""
    mask = (True,) + (False,) * dim
    return SymmetryOp((PointReflect(mask, s=0.0),), name="heat.time_reversal")


def _partial(slot, nvars, name):
    alpha = tuple(1 if j == slot else 0 for j in range(nvars))
    return SymmetryOp((DiffFactor((((), None, alpha),)),), name=name)


def _wave_time_translation(dim=1):
    return _partial(0, dim + 1, "wave.time_translation")


def _wave_space_translation(dim=1, axis=1):
    return _partial(int(axis), dim + 1, "wave.space_translation")


def _kdv_swap():
    return SymmetryOp((MatrixFactor([[0.0, 1.0], [1.0, 0.0]]),), name="kdvkdv.swap")


def _kdv_gamma_s(s=None):
    return SymmetryOp(
        (MatrixFactor(np.diag([-1.0, 1.0])), PointReflect((True, False), s=s)),
        name="kdvkdv.Gamma_s",
    )


def _kdv_shift(component):
    poly = [{}, {}]
    poly[component][(0, 0)] = 1.0
    w = polynomial_field(2, 2, poly)
    return KernelShift(w, name=f"kdvkdv.shift_{'uv'[component]}")


def _kdv_shift_linear(variant):
    # two transposed pairings of the affine kernel elements; both give
    # conserved position/time-weighted functionals
    if variant == "a":
        polys = [{(0, 1): -1.0}, {(1, 0): 1.0}]  # w = (-x, t)
    else:
        polys = [{(1, 0): 1.0}, {(0, 1): -1.0}]  # w = (t, -x)
    return KernelShift(polynomial_field(2, 2, polys), name=f"kdvkdv.shift_linear_{variant}")


def _dirac_gamma_mu(mu, s=None):
    """gamma4 gamma_mu with the reflection of slot mu; ``s`` only for mu = 0."""
    rep = gm.dirac_representation()
    mask = tuple(j == mu for j in range(4))
    mat = rep.gamma4 @ rep.gamma_lower(mu)
    return SymmetryOp(
        (MatrixFactor(mat), PointReflect(mask, s=s)),
        name=f"dirac.Gamma{mu}",
    )


def _dirac_gamma4(s=None):
    rep = gm.dirac_representation()
    return SymmetryOp(
        (MatrixFactor(1j * rep.gamma4), PointReflect((True,) * 4, s=s)),
        name="dirac.Gamma4",
    )


def _dirac_gamma5():
    rep = gm.dirac_representation()
    return SymmetryOp(
        (MatrixFactor(1j * rep.gamma_lower(2)), Conjugation()), name="dirac.Gamma5"
    )


def _dirac_gamma6():
    rep = gm.dirac_representation()
    return SymmetryOp(
        (MatrixFactor(-rep.gamma_lower(2)), Conjugation()), name="dirac.Gamma6"
    )


def _dirac_cpt(s=None):
    g = _dirac_gamma4(s=s) @ _dirac_gamma5()
    return SymmetryOp(g.factors, name="dirac.cpt")


def _dirac_bad_time_reflection(s=None):
    """Gamma0 with the chirality factor omitted; NOT a symmetry."""
    rep = gm.dirac_representation()
    return SymmetryOp(
        (MatrixFactor(rep.gamma_lower(0)), PointReflect((True, False, False, False), s=s)),
        name="dirac.bad_time_reflection",
    )


_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def _dirac_rotation(axis):
    rep = gm.dirac_representation()
    j, k = _CYCLIC[axis]
    eye = np.eye(4)
    ej = tuple(1 if d == j else 0 for d in range(4))
    ek = tuple(1 if d == k else 0 for d in range(4))
    terms = (
        (((j, 1),), -1j * eye, ek),  # x_j p_k
        (((k, 1),), 1j * eye, ej),  # -x_k p_j
        ((), 0.5 * rep.sigma_spin(axis), (0, 0, 0, 0)),
    )
    return SymmetryOp((DiffFactor(terms),), name=f"dirac.rotation_{'xyz'[axis - 1]}")


def _dirac_translation(mu):
    alpha = tuple(1 if d == mu else 0 for d in range(4))
    return SymmetryOp(
        (DiffFactor((((), -1j * np.eye(4), alpha),)),), name=f"dirac.translation_{mu}"
    )


def named_symmetries():
    return {
        "identity": _identity,
        "heat.space_reflection": _heat_space_reflection,
        "heat.s_reflection": _heat_s_reflection,
        "heat.time_reversal": _heat_time_reversal,
        "wave.time_translation": _wave_time_translation,
        "wave.space_translation": _wave_space_translation,
        "kdvkdv.identity": _identity,
        "kdvkdv.swap": _kdv_swap,
        "kdvkdv.Gamma_s": _kdv_gamma_s,
        "kdvkdv.shift_u": partial(_kdv_shift, 0),
        "kdvkdv.shift_v": partial(_kdv_shift, 1),
        "kdvkdv.shift_linear_a": partial(_kdv_shift_linear, "a"),
        "kdvkdv.shift_linear_b": partial(_kdv_shift_linear, "b"),
        "dirac.Gamma0": partial(_dirac_gamma_mu, 0),
        "dirac.Gamma1": partial(_dirac_gamma_mu, 1, None),
        "dirac.Gamma2": partial(_dirac_gamma_mu, 2, None),
        "dirac.Gamma3": partial(_dirac_gamma_mu, 3, None),
        "dirac.Gamma4": _dirac_gamma4,
        "dirac.Gamma5": _dirac_gamma5,
        "dirac.Gamma6": _dirac_gamma6,
        "dirac.cpt": _dirac_cpt,
        "dirac.bad_time_reflection": _dirac_bad_time_reflection,
        "dirac.rotation_x": partial(_dirac_rotation, 1),
        "dirac.rotation_y": partial(_dirac_rotation, 2),
        "dirac.rotation_z": partial(_dirac_rotation, 3),
        "dirac.translation_t": partial(_dirac_translation, 0),
        "dirac.translation_x": partial(_dirac_translation, 1),
    }


# -- initial-data profiles ---------------------------------------------------


def _profile_random(grid, ncomp, seed=0, kmax=8, real=True, scale=1.0):
    """Random band-limited data: coefficients on |k index| <= kmax per axis."""
    rng = np.random.default_rng(int(seed))
    shape = (int(ncomp),) + grid.modes
    coeffs = np.zeros(shape, dtype=complex)
    idx_ok = np.ones(grid.modes, dtype=bool)
    for d, n in enumerate(grid.modes):
        idx = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(int)) <= int(kmax)
        sh = [1] * grid.ndim
        sh[d] = n
        idx_ok &= idx.reshape(sh)
    idx_ok &= grid.mode_mask()
    nsel = int(idx_ok.sum())
    for c in range(int(ncomp)):
        vals = rng.standard_normal(nsel) + 1j * rng.standard_normal(nsel)
        coeffs[c][idx_ok] = scale * vals / np.sqrt(nsel)
    if real:
        axes = tuple(range(1, grid.ndim + 1))
        vals = np.fft.ifftn(coeffs, axes=axes).real
        coeffs = np.fft.fftn(vals, axes=axes)
    return coeffs * grid.mode_mask()


def _profile_gaussian(grid, ncomp, width=1.0, amp=1.0, comp=0, center=0.0):
    """Gaussian bump exp(-|x - c|^2 / (2 width^2)) in one component."""
    mesh = np.meshgrid(*grid.coordinates(), indexing="ij")
    centers = [float(center)] * grid.ndim if np.isscalar(center) else list(center)
    r2 = sum((x - c) ** 2 for x, c in zip(mesh, centers))
    vals = np.zeros((int(ncomp),) + grid.modes, dtype=complex)
    vals[int(comp)] = amp * np.exp(-r2 / (2.0 * float(width) ** 2))
    axes = tuple(range(1, grid.ndim + 1))
    return np.fft.fftn(vals, axes=axes) / grid.npoints * grid.mode_mask()


def _profile_packet(grid, ncomp, seed=0, width=1.0, kmax=4, real=True):
    """Gaussian envelope times random band-limited modulation; compact support."""
    mod = _profile_random(grid, ncomp, seed=seed, kmax=kmax, real=real)
    axes = tuple(range(1, grid.ndim + 1))
    mod_vals = np.fft.ifftn(mod, axes=axes) * grid.npoints
    mesh = np.meshgrid(*grid.coordinates(), indexing="ij")
    r2 = sum(x * x for x in mesh)
    env = np.exp(-r2 / (2.0 * float(width) ** 2))
    vals = mod_vals * env
    coeffs = np.fft.fftn(vals, axes=axes) / grid.npoints
    return coeffs * grid.mode_mask()


def named_profiles():
    return {
        "random": _profile_random,
        "gaussian": _profile_gaussian,
        "packet": _profile_packet,
    }


# -- entry parsing -----------------------------------------------------------


def parse_entry(text):
    """Parse ``name(key=value, ...)`` into (name, kwargs).

    Values are ints, floats, or bare strings; ``name`` alone is allowed.
    """
    text = text.strip()
    if "(" not in text:
        return text, {}
    if not text.endswith(")"):
        raise ValueError(f"malformed catalog entry {text!r}")
    name, inner = text[:-1].split("(", 1)
    kwargs = {}
    inner = inner.strip()
    if inner:
        for part in inner.split(","):
            if "=" not in part:
                raise ValueError(f"catalog arguments must be key=value: {part!r}")
            key, val = part.split("=", 1)
            key = key.strip()
            val = val.strip()
            try:
                parsed = int(val)
            except ValueError:
                try:
                    parsed = float(val)
                except ValueError:
                    if val in ("True", "true"):
                        parsed = True
                    elif val in ("False", "false"):
                        parsed = False
                    else:
                        parsed = val
            kwargs[key] = parsed
    return name.strip(), kwargs


def _call_entry(kind, name, factory, kwargs, *args):
    """``factory(*args, **kwargs)`` once every keyword is in its signature."""
    params = list(inspect.signature(factory).parameters)[len(args) :]
    for key in kwargs:
        if key not in params:
            takes = ", ".join(params) if params else "none"
            raise ValueError(
                f"{kind} {name!r} has no keyword {key!r} (keywords: {takes})"
            )
    return factory(*args, **kwargs)


def build_operator(spec):
    """Operator from a catalog entry or an inline DSL string."""
    from .dsl import parse_operator

    name, kwargs = parse_entry(spec)
    ops = named_operators()
    if name in ops:
        return _call_entry("operator", name, ops[name], kwargs)
    return parse_operator(spec)


def build_symmetry(spec):
    name, kwargs = parse_entry(spec)
    syms = named_symmetries()
    if name not in syms:
        raise KeyError(f"unknown symmetry {name!r}; see `conslaw list`")
    return _call_entry("symmetry", name, syms[name], kwargs)


def build_profile(spec, grid, ncomp):
    """Initial companion coefficients; ``+``-separated entries are summed."""
    profs = named_profiles()
    total = None
    for piece in spec.split(" + "):
        name, kwargs = parse_entry(piece)
        if name not in profs:
            raise KeyError(f"unknown profile {name!r}; see `conslaw list`")
        coeffs = _call_entry("profile", name, profs[name], kwargs, grid, ncomp)
        total = coeffs if total is None else total + coeffs
    return total
