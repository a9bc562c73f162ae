"""Preset registry: ready-made model constructions from the literature.

Every preset resolves to a plain :class:`~erwlab.model.ModelSpec`; closed-form
quantities that bypass numerics (fixed point, top Jacobian eigenvalue,
derivative values at the fixed point) ride along in ``meta["exact"]`` so the
analysis layer can use exact arithmetic where it is available.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import funcdsl
from .funcdsl import FuncExpr, parse
from .model import Domain, InitialLaw, ModelError, ModelSpec, StepLaw


class UnknownPresetError(ModelError):
    pass


class ParameterError(ModelError):
    pass


def _prob(name, value):
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ParameterError(f"parameter-out-of-range: {name}={value} must lie in (0,1)")
    return value


def _unit_map(f_text, message="f must map [0,1] into [0,1]"):
    """Parse a memory map of x and check it sends 201 points of [0, 1] into [0, 1] (tolerance 1e-9)."""
    f = parse(f_text, 1)
    with np.errstate(all="ignore"):  # a non-finite value fails the range test below
        vals = f(np.linspace(0.0, 1.0, 201))
    if not (np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)):
        raise ParameterError(f"parameter-out-of-range: {message}")
    return f


def _walk_1d(prob_map, A, b, first, meta):
    """The s = 1, r = 2 walk on [0, 1] with unit auxiliary steps, step-up probability
    ``prob_map`` and observation A x + b; the first step goes up with probability ``first``."""
    return ModelSpec(
        s=1,
        d=1,
        r=2,
        partition=((1,), ()),
        step_law=StepLaw.point_mass([1.0]),
        prob_maps=(prob_map,),
        A=[[A]],
        b=[b],
        initial=InitialLaw([[1.0], [0.0]], [first, 1.0 - first]),
        domain=Domain([0.0], [1.0]),
        meta=meta,
    )


def _erw_like_spec(f_text, p, q, meta):
    """1-d walk with +/-1 observed steps: A=2, b=-1; the step-up probability
    is h = (2p-1) f + (1-p)."""
    h = funcdsl.affine(parse(f_text, 1), 2.0 * p - 1.0, 1.0 - p)
    return _walk_1d(h, 2.0, -1.0, q, {**meta, "f": f_text, "p": p, "q": q, "family": "erw-like"})


def _subst_component(f_text, component, arity):
    """Parse an arity-1 expression and re-read it in variable x<component>."""
    expr = parse(f_text, 1)
    out = funcdsl.substitute(expr, funcdsl.Var(component - 1, f"x{component}"))
    return FuncExpr(out.ast, arity)


# ---------------------------------------------------------------------------
# Builders


def _build_erw(p=0.5, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    tau = 2.0 * p - 1.0
    meta = {
        "preset": "erw",
        "exact": {
            "x0": [0.5],
            "tau": tau,
            "h_derivs": [tau],  # all higher derivatives vanish
            "max_smooth_order": None,
        },
    }
    return _erw_like_spec("x", p, q, meta)


def _build_gerw_1d(f="x", p=0.5, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    return _erw_like_spec(f, p, q, {"preset": "gerw-1d", "exact": {}})


def _build_linear(a=0.0, b=0.5, p=0.5, q=0.5):
    a, b_ = float(a), float(b)
    p, q = _prob("p", p), _prob("q", q)
    if not (0.0 <= b_ <= 1.0 and 0.0 <= a + b_ <= 1.0):
        raise ParameterError("parameter-out-of-range: need 0 <= b and a+b <= 1 for f(x)=a*x+b")
    tau = (2.0 * p - 1.0) * a
    if abs(1.0 - tau) < 1e-14:
        raise ParameterError("parameter-out-of-range: (2p-1)a = 1 leaves no fixed point")
    x0 = ((1.0 - p) + (2.0 * p - 1.0) * b_) / (1.0 - tau)
    meta = {
        "preset": "linear",
        "a": a,
        "b_coef": b_,
        "exact": {"x0": [x0], "tau": tau, "h_derivs": [tau], "max_smooth_order": None},
    }
    f_text = f"{a!r} * x + {b_!r}"
    return _erw_like_spec(f_text, p, q, meta)


def _build_quadratic_sym(p=0.5, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    f_text = "piecewise(x < 0.5 : x^2 + 0.25 ; x >= 0.5 : 0.75 - (1 - x)^2)"
    tau = 2.0 * p - 1.0  # f'(1/2) = 1 from both sides
    meta = {
        "preset": "quadratic-sym",
        "exact": {"x0": [0.5], "tau": tau, "h_derivs": [tau], "max_smooth_order": 1},
    }
    return _erw_like_spec(f_text, p, q, meta)


def _build_market(p=0.5, q=0.5, U=0.5, L=-0.5):
    p, q = _prob("p", p), _prob("q", q)
    U, L = float(U), float(L)
    if not (L < 0.0 < U):
        raise ParameterError("parameter-out-of-range: thresholds must satisfy L < 0 < U")
    # price rule pi(x) = x^3/2 for both brands; the price gap
    # pi(x) - pi(1-x) stays inside (L, U) on (0,1) for the default
    # thresholds, so the randomized middle branch covers the whole domain.
    gap = "(x^3 / 2 - (1 - x)^3 / 2)"
    f_text = f"({U!r} - {gap}) / {U - L!r}"
    _unit_map(f_text, "price rule leaves [0,1] on the unit interval")
    # f'(1/2) = -(3/8 + 3/8)/(U-L)
    fprime = -0.75 / (U - L)
    tau = (2.0 * p - 1.0) * fprime
    meta = {
        "preset": "market",
        "U": U,
        "L": L,
        "exact": {"x0": [0.5], "tau": tau, "max_smooth_order": None},
    }
    return _erw_like_spec(f_text, p, q, meta)


def _build_poly_g(coeffs=(0.5,), p=0.5, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    coeffs = [float(c) for c in coeffs]
    if not coeffs or sum(i * abs(c) for i, c in enumerate(coeffs, start=1)) >= 1.0:
        raise ParameterError("parameter-out-of-range: polynomial g needs sum_i i*|a_i| < 1")
    terms = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0.0:
            continue
        terms.append(f"{c!r} * x^{i}" if i > 1 else f"{c!r} * x")
    g_text = " + ".join(terms) if terms else "0.0 * x"
    # f(x) = (g(2x-1) + 1)/2
    f_text = f"(({g_text.replace('x', '(2*x - 1)')}) + 1) / 2"
    tau = (2.0 * p - 1.0) * coeffs[0]
    h_derivs = [(2.0 * p - 1.0) * 2.0 ** (i - 1) * math.factorial(i) * c for i, c in enumerate(coeffs, start=1)]
    meta = {
        "preset": "poly-g",
        "g_coeffs": coeffs,
        "exact": {"x0": [0.5], "tau": tau, "h_derivs": h_derivs, "max_smooth_order": None},
    }
    return _erw_like_spec(f_text, p, q, meta)


def _build_phi_power(phi="tanh", k=1, p=0.5, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    k = int(k)
    if phi not in ("sin", "tanh") or k < 1:
        raise ParameterError("parameter-out-of-range: phi in {sin, tanh} and k >= 1")
    g_text = f"{phi}(x)^{k}" if k > 1 else f"{phi}(x)"
    f_text = f"(({phi}((2*x - 1))" + (f"^{k}" if k > 1 else "") + ") + 1) / 2"
    tau = (2.0 * p - 1.0) if k == 1 else 0.0  # phi'(0) = 1 for sin and tanh
    meta = {
        "preset": "phi-power",
        "phi": phi,
        "k": k,
        "g": g_text,
        "exact": {"x0": [0.5], "tau": tau, "max_smooth_order": None},
    }
    return _erw_like_spec(f_text, p, q, meta)


def _build_cubic_supercritical(p=0.6, q=0.5):
    p, q = _prob("p", p), _prob("q", q)
    if not (11.0 / 30.0 < p < 19.0 / 30.0):
        raise ParameterError("parameter-out-of-range: cubic preset requires 11/30 < p < 19/30")
    f_text = "0.5 + 3*(x - 0.5) + (x - 0.5)^2 + sgn(x - 0.5) * (x - 0.5)^3"
    c = 2.0 * p - 1.0
    meta = {
        "preset": "cubic-supercritical",
        "exact": {
            "x0": [0.5],
            "tau": 3.0 * c,
            "h_derivs": [3.0 * c, 2.0 * c],  # third derivative jumps at 1/2
            "max_smooth_order": 2,
            "eta1": 2.0 * c,
        },
    }
    return _erw_like_spec(f_text, p, q, meta)


def _build_minimal(f="x", p=0.5, q=0.5, init=0.5):
    p, q, init = _prob("p", p), _prob("q", q), _prob("init", init)
    p1 = funcdsl.affine(_unit_map(f), p - q, q)
    exact = {}
    if f.replace(" ", "") in ("x^2", "x*x"):
        d = p - q
        if d > 0:
            disc = 1.0 - 4.0 * q * d
            if disc <= 0:
                raise ParameterError("parameter-out-of-range: x^2 map needs 4q(p-q) < 1")
            x0 = (1.0 - math.sqrt(disc)) / (2.0 * d)
            exact = {
                "x0": [x0],
                "tau": 2.0 * d * x0,
                "h_derivs": [2.0 * d * x0, 2.0 * d],
                "max_smooth_order": None,
            }
        elif d == 0:
            exact = {"x0": [q], "tau": 0.0, "h_derivs": [0.0, 0.0], "max_smooth_order": None}
    elif f.replace(" ", "") == "x":
        d = p - q
        if abs(1.0 - d) > 1e-14:
            x0 = q / (1.0 - d)
            exact = {"x0": [x0], "tau": d, "h_derivs": [d], "max_smooth_order": None}
    meta = {"preset": "minimal", "f": f, "p": p, "q": q, "init": init, "family": "minimal", "exact": exact}
    return _walk_1d(p1, 1.0, 0.0, init, meta)


def _build_random_step(f="x", p=0.5, q=0.5, z_values=(1.0, 2.0), z_probs=(0.5, 0.5)):
    p, q = _prob("p", p), _prob("q", q)
    z_values = [float(z) for z in z_values]
    z_probs = [float(w) for w in z_probs]
    if len(z_values) != len(z_probs) or any(z <= 0 for z in z_values):
        raise ParameterError("parameter-out-of-range: step magnitudes must be positive with matching probabilities")
    _unit_map(f)
    # P_1 depends on the first coordinate only: (2p-1) f(x1) + (1-p)
    inner = _subst_component(f, 1, 3)
    p1 = FuncExpr(funcdsl.affine(inner, 2.0 * p - 1.0, 1.0 - p).ast, 3)
    atoms = [[1.0, z, z] for z in z_values]
    zmax = max(z_values)
    ez = sum(z * w for z, w in zip(z_values, z_probs))
    init_atoms = [[1.0, z, 0.0] for z in z_values] + [[0.0, 0.0, z] for z in z_values]
    init_probs = [q * w for w in z_probs] + [(1.0 - q) * w for w in z_probs]
    exact = {}
    if f.replace(" ", "") == "x":
        # direction fraction decouples: x0_1 = 1/2, tau = max(2p-1, 0)
        exact = {
            "x0": [0.5, 0.5 * ez, 0.5 * ez],
            "tau": max(2.0 * p - 1.0, 0.0),
            "max_smooth_order": None,
        }
    meta = {"preset": "random-step", "f": f, "p": p, "q": q, "z_values": z_values, "z_probs": z_probs,
            "family": "random-step", "exact": exact}
    return ModelSpec(
        s=3,
        d=1,
        r=2,
        partition=((1, 2), (3,)),
        step_law=StepLaw.finite(atoms, z_probs),
        prob_maps=(p1,),
        A=[[0.0, 1.0, -1.0]],
        b=[0.0],
        initial=InitialLaw(init_atoms, init_probs),
        domain=Domain([0.0, 0.0, 0.0], [1.0, zmax, zmax]),
        meta=meta,
    )


def _build_kdim(k=2, f="x", p=0.5):
    k = int(k)
    p = _prob("p", p)
    if k < 1:
        raise ParameterError("parameter-out-of-range: k must be a positive integer")
    s = 2 * k - 1
    r = 2 * k
    _unit_map(f)
    off = (1.0 - p) / (2.0 * k - 1.0)
    prob_maps = []
    for j in range(1, s + 1):
        inner = _subst_component(f, j, s)
        # p f(x_j) + (1-p)/(2k-1) (1 - f(x_j)) = (p - off) f(x_j) + off
        prob_maps.append(FuncExpr(funcdsl.affine(inner, p - off, off).ast, s))
    A = np.zeros((k, s))
    for row in range(k - 1):
        A[row, 2 * row] = 1.0
        A[row, 2 * row + 1] = -1.0
    A[k - 1, :] = 1.0
    A[k - 1, s - 1] = 2.0
    b = np.zeros(k)
    b[k - 1] = -1.0
    init_atoms = [np.eye(s)[j].tolist() for j in range(s)] + [[0.0] * s]
    init_probs = [1.0 / r] * r
    exact = {}
    if f.replace(" ", "") == "x":
        # symmetric fixed point x0 = 1/(2k) per direction, diagonal Jacobian
        exact = {
            "x0": [1.0 / (2.0 * k)] * s,
            "tau": p - off,
            "max_smooth_order": None,
        }
    meta = {"preset": "kdim", "k": k, "f": f, "p": p, "family": "kdim", "exact": exact,
            "simplex_cap": 1.0}
    return ModelSpec(
        s=s,
        d=k,
        r=r,
        partition=tuple((j,) for j in range(1, s + 1)) + ((),),
        step_law=StepLaw.point_mass([1.0] * s),
        prob_maps=tuple(prob_maps),
        A=A,
        b=b,
        initial=InitialLaw(init_atoms, init_probs),
        domain=Domain([0.0] * s, [1.0] * s),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Registry

# name -> (builder, source note). A builder's signature lists the preset's parameters and its
# defaults type the CLI's flags, which the CLI registers in the order they first appear here.
_REGISTRY = {
    "erw": (_build_erw, "uniform-memory +/-1 walk (Schuetz & Trimper, 2004)"),
    "linear": (_build_linear, "affine memory map f(x) = a*x + b"),
    "kdim": (_build_kdim, "k-dimensional walk over 2k directions (Bercu & Laulin, 2019)"),
    "minimal": (_build_minimal, "unidirectional walk, map (p-q) f + q (Harbola et al., 2014)"),
    "phi-power": (_build_phi_power, "location map g = phi^k, phi in {sin, tanh}"),
    "market": (_build_market, "two-brand price-feedback market share model"),
    "poly-g": (_build_poly_g, "odd-form polynomial location map g"),
    "random-step": (_build_random_step, "random step magnitudes (Kumar et al., 2010 lineage)"),
    "gerw-1d": (_build_gerw_1d, "one-dimensional walk with a general memory map f"),
    "quadratic-sym": (_build_quadratic_sym, "symmetric piecewise-quadratic memory map"),
    "cubic-supercritical": (_build_cubic_supercritical, "steep cubic memory map, 11/30 < p < 19/30"),
}


def build_preset(name: str, **params) -> ModelSpec:
    """Build a fully populated spec for a registered preset."""
    if name not in _REGISTRY:
        raise UnknownPresetError(f"unknown-preset: {name!r} (known: {', '.join(sorted(_REGISTRY))})")
    builder, _ = _REGISTRY[name]
    takes = inspect.signature(builder).parameters
    unknown = [key for key in params if key not in takes]
    if unknown:
        raise ParameterError(f"unknown-parameter: preset {name!r} takes {', '.join(takes)}; got {', '.join(unknown)}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParameterError(f"parameter-out-of-range: {exc}") from exc


def list_presets() -> list:
    """Stable table of (name, parameters, source note)."""
    return [(name, ", ".join(inspect.signature(builder).parameters), note)
            for name, (builder, note) in sorted(_REGISTRY.items())]


def parameter_defaults() -> dict:
    """Each preset parameter with its default in the first builder that takes it, in registry order."""
    out = {}
    for builder, _ in _REGISTRY.values():
        for name, param in inspect.signature(builder).parameters.items():
            out.setdefault(name, param.default)
    return out
