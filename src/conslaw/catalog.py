"""Named operators, symmetry generators and initial-data profiles.

Catalog entries are addressable from scenario files and the CLI as
``name(key=value, ...)``, e.g. ``heat(dim=1)``, ``kdvkdv.Gamma_s(s=2.0)``,
``packet(seed=3, width=2.0)``.
"""

from __future__ import annotations

import inspect
from functools import cache, partial
from types import MappingProxyType

import numpy as np

from . import gamma as gm
from .fields import polynomial_field
from .opcore import ConstCoeffOperator
from .spectral import _to_coeffs, _to_grid
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


def _check_dim(kind, name, dim):
    """Refuse a space dimension outside 1..3 (the DSL names x, y and z; a
    larger ``dim`` builds an operator or mask too large to check)."""
    if not 1 <= dim <= 3:
        raise ValueError(f"{kind} {name!r} keyword 'dim' must be 1, 2 or 3, got {dim!r}")


def _dt_minus_laplace(name, dim, time_power, c):
    """Scalar D_t^time_power - c * Laplace in ``dim`` space variables, 1..3."""
    _check_dim("operator", name, dim)
    nv = dim + 1
    terms = {(time_power,) + (0,) * dim: [[1.0]]}
    for d in range(dim):
        alpha = tuple(2 if j == d + 1 else 0 for j in range(nv))
        terms[alpha] = [[-c]]
    return ConstCoeffOperator(nv, (1, 1), terms)


def heat_operator(dim=1, nu=1.0):
    """Scalar heat flow: D_t - nu * Laplace."""
    return _dt_minus_laplace("heat", dim, 1, nu)


def wave_operator(dim=1):
    """Scalar d'Alembert operator: D_t^2 - Laplace."""
    return _dt_minus_laplace("wave", dim, 2, 1.0)


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
    vel = np.diag([1.0, 1.0, 1.0, 0.0])
    pieces = [((1, 0, 0, 0), vel)]
    for d in range(3):
        alpha = tuple(2 if j == d + 1 else 0 for j in range(nv))
        pieces.append((alpha, -nu * vel))
    for d in range(3):
        grad = np.zeros((4, 4))
        grad[d, 3] = 1.0  # pressure gradient
        grad[3, d] = 1.0  # divergence constraint
        pieces.append((tuple(1 if j == d + 1 else 0 for j in range(nv)), grad))
    return ConstCoeffOperator(nv, (4, 4), pieces)


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


def _identity(name):
    return SymmetryOp((), name=name)


def _heat_space_reflection(dim=1):
    _check_dim("symmetry", "heat.space_reflection", dim)
    mask = (False,) + (True,) * dim
    return SymmetryOp((PointReflect(mask),), name="heat.space_reflection")


def _heat_s_reflection(s=None, dim=1):
    """Direct adjoint-characteristic map u -> u(x, s - t)."""
    _check_dim("symmetry", "heat.s_reflection", dim)
    mask = (True,) + (False,) * dim
    return SymmetryOp((PointReflect(mask, s=s),), name="heat.s_reflection", char_map=True)


def _heat_time_reversal(dim=1):
    """Bare time reversal; NOT a heat symmetry (negative control)."""
    _check_dim("symmetry", "heat.time_reversal", dim)
    mask = (True,) + (False,) * dim
    return SymmetryOp((PointReflect(mask, s=0.0),), name="heat.time_reversal")


def _partial(slot, nvars, name):
    alpha = tuple(1 if j == slot else 0 for j in range(nvars))
    return SymmetryOp((DiffFactor((((), None, alpha),)),), name=name)


def _wave_time_translation(dim=1):
    _check_dim("symmetry", "wave.time_translation", dim)
    return _partial(0, dim + 1, "wave.time_translation")


def _wave_space_translation(dim=1, axis=1):
    _check_dim("symmetry", "wave.space_translation", dim)
    if not 1 <= axis <= dim:
        raise ValueError(f"wave.space_translation axis {axis} is outside 1..{dim}")
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
        (DiffFactor((((), -1j * np.eye(4), alpha),)),), name=f"dirac.translation_{'tx'[mu]}"
    )


def named_symmetries():
    return {
        "identity": partial(_identity, "identity"),
        "heat.space_reflection": _heat_space_reflection,
        "heat.s_reflection": _heat_s_reflection,
        "heat.time_reversal": _heat_time_reversal,
        "wave.time_translation": _wave_time_translation,
        "wave.space_translation": _wave_space_translation,
        "kdvkdv.identity": partial(_identity, "kdvkdv.identity"),
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
    _check_seed("random", seed)
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
        # the projection onto real grid values, in place: a transform casts a
        # real input to complex with a zero imaginary part, which is what
        # zeroing it leaves
        _to_grid(coeffs)
        coeffs.imag = 0.0
        _to_coeffs(coeffs)
    coeffs *= grid.mode_mask()
    return coeffs


def _check_seed(profile, seed):
    if seed < 0:
        raise ValueError(f"{profile} profile seed must be an integer >= 0, got {seed!r}")


def _check_width(profile, width):
    if not 0 < width < np.inf:
        raise ValueError(f"{profile} profile width must be a finite number > 0, got {width!r}")


def _profile_gaussian(grid, ncomp, width=1.0, amp=1.0, comp=0, center=0.0):
    """Gaussian bump exp(-|x - c|^2 / (2 width^2)) in one component."""
    _check_width("gaussian", width)
    if not 0 <= comp < ncomp:
        raise ValueError(f"profile component {comp} is outside 0..{ncomp - 1}")
    mesh = np.meshgrid(*grid.coordinates(), indexing="ij")
    centers = [float(center)] * grid.ndim if np.isscalar(center) else list(center)
    r2 = sum((x - c) ** 2 for x, c in zip(mesh, centers))
    vals = np.zeros((int(ncomp),) + grid.modes, dtype=complex)
    vals[int(comp)] = amp * np.exp(-r2 / (2.0 * float(width) ** 2))
    _to_coeffs(vals)
    vals *= grid.mode_mask()
    return vals


def _profile_packet(grid, ncomp, seed=0, width=1.0, kmax=4, real=True):
    """Gaussian envelope times random band-limited modulation; compact support."""
    _check_seed("packet", seed)
    _check_width("packet", width)
    coeffs = _to_grid(_profile_random(grid, ncomp, seed=seed, kmax=kmax, real=real))
    mesh = np.meshgrid(*grid.coordinates(), indexing="ij", sparse=True)
    env = sum(x * x for x in mesh)
    np.negative(env, out=env)
    env /= 2.0 * float(width) ** 2
    np.exp(env, out=env)
    coeffs *= env
    _to_coeffs(coeffs)
    coeffs *= grid.mode_mask()
    return coeffs


def named_profiles():
    return {
        "random": _profile_random,
        "gaussian": _profile_gaussian,
        "packet": _profile_packet,
    }


# -- entry parsing -----------------------------------------------------------


def parse_entry(text):
    """Split ``name(key=value, ...)`` into the name and a dict of keyword
    texts; ``name`` alone is allowed. :func:`_call_entry` reads the texts."""
    text = text.strip()
    if "(" not in text:
        return text, {}
    if not text.endswith(")"):
        raise ValueError(f"malformed catalog entry {text!r}")
    name, inner = text[:-1].split("(", 1)
    texts = {}
    inner = inner.strip()
    if inner:
        for part in inner.split(","):
            if "=" not in part:
                raise ValueError(f"catalog arguments must be key=value: {part!r}")
            key, val = part.split("=", 1)
            key = key.strip()
            if key in texts:
                raise ValueError(f"catalog entry {text!r} repeats keyword {key!r}")
            texts[key] = val.strip()
    return name.strip(), texts


_BOOLS = {"True": True, "true": True, "False": False, "false": False}


@cache
def _keyword_defaults(func, args, keywords, skip):
    """``{name: default}``, read-only, of the parameters after the first
    ``skip`` of ``partial(func, *args, **dict(keywords))``.

    Keyed on the function and its bound arguments, not on the factory:
    ``named_symmetries()`` builds fresh ``partial`` objects on every call.
    """
    params = list(inspect.signature(partial(func, *args, **dict(keywords))).parameters.values())[skip:]
    return MappingProxyType({p.name: p.default for p in params})


def _call_entry(kind, table, spec, *args):
    """``factory(*args, **kwargs)`` for the factory that the entry ``spec``
    names in ``table``, each keyword text read once, by the type of the
    keyword's default in the factory's signature.

    A bool default takes ``True``, ``true``, ``False`` or ``false``; an int
    default ``int(text)``; a float default, or an ``s`` whose ``None`` default
    defers a reflection time, ``float(text)``, which must be finite (``nan``,
    ``1e400`` or a long integer reads as a non-finite float). Any other
    keyword, such as ``dirac``'s representation object, is for library
    callers only.
    """
    name, texts = parse_entry(spec)
    if name not in table:
        raise KeyError(f"unknown {kind} {name!r}; see `conslaw list`")
    factory = table[name]
    if isinstance(factory, partial):
        defaults = _keyword_defaults(factory.func, factory.args, tuple(factory.keywords.items()), len(args))
    else:
        defaults = _keyword_defaults(factory, (), (), len(args))
    kwargs = {}
    for key, text in texts.items():
        if key not in defaults:
            takes = ", ".join(defaults) if defaults else "none"
            raise ValueError(
                f"{kind} {name!r} has no keyword {key!r} (keywords: {takes})"
            )
        default = defaults[key]
        if isinstance(default, bool):
            want, read = "bool", _BOOLS.__getitem__
        elif isinstance(default, int):
            want, read = "int", int
        elif isinstance(default, float) or (default is None and key == "s"):
            want, read = "int or float", float
        else:
            raise ValueError(f"{kind} {name!r} keyword {key!r} cannot be set from text")
        try:
            value = read(text)
        except (KeyError, ValueError):
            raise ValueError(f"{kind} {name!r} keyword {key!r} takes {want}, got {text!r}") from None
        if read is float and not np.isfinite(value):
            raise ValueError(f"{kind} {name!r} keyword {key!r} must be finite, got {value!r}")
        kwargs[key] = value
    return factory(*args, **kwargs)


def build_operator(spec):
    """Operator from a catalog entry or an inline DSL string."""
    from .dsl import parse_operator

    # only a catalog name makes ``spec`` an entry: DSL text such as ``(1+2i)*Dt``
    # has parentheses too
    ops = named_operators()
    if spec.split("(", 1)[0].strip() in ops:
        return _call_entry("operator", ops, spec)
    return parse_operator(spec)


def build_symmetry(spec):
    return _call_entry("symmetry", named_symmetries(), spec)


def build_profile(spec, grid, ncomp):
    """Initial companion coefficients; ``+``-separated entries are summed.

    Raises ``ValueError`` when the sum is not finite (a width so small or an
    amplitude so large that the samples overflow).
    """
    profs = named_profiles()
    total = None
    with np.errstate(all="ignore"):
        for piece in spec.split(" + "):
            coeffs = _call_entry("profile", profs, piece, grid, ncomp)
            total = coeffs if total is None else total + coeffs
    if not np.isfinite(total).all():
        raise ValueError(f"profile {spec!r} has non-finite coefficients")
    return total
