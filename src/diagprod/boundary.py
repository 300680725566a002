"""Closed-form mathematics of the diagonal-product boundary curve.

The boundary of the diagonal-product image of SU(n) is the closed curve

    gamma(alpha) = e^{i alpha} (1 - (1 - e^{-i alpha}) / n)^n,   alpha in [-pi, pi].

For n > 2 the curve admits a polar parametrization r(theta) through the
strictly increasing angle map theta(alpha); this module evaluates the curve,
its derivative, the angle map and its numerical inverse, the polar radius,
and the two-parameter interior map Gamma(alpha, y) with its Jacobian.

All evaluators accept scalars or numpy arrays of angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "wrap_angle",
    "gamma",
    "gamma_derivative",
    "theta_of_alpha",
    "theta_derivative",
    "alpha_of_theta",
    "radius_of_theta",
    "big_gamma",
    "jacobian_big_gamma",
    "PolarPoint",
]

_TWO_PI = 2.0 * np.pi


def _check_n(n: int, minimum: int) -> int:
    n = int(n)
    if n < minimum:
        raise ValueError(f"matrix size n must be at least {minimum}, got {n}")
    return n


def _check_finite(name: str, x):
    """Return ``x`` unchanged; raise ValueError naming the first non-finite
    entry of it."""
    bad = np.asarray(x)[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad.flat[0].item()!r}")
    return x


def wrap_angle(x):
    """Reduce angles to (-pi, pi]; values already in [-pi, pi] are unchanged."""
    a = np.asarray(x, np.float64)
    out = np.where(np.abs(a) <= np.pi, a, a - _TWO_PI * np.round(a / _TWO_PI))
    out = np.where((out == -np.pi) & (np.abs(a) > np.pi), np.pi, out)
    return float(out) if out.ndim == 0 else out


def _ipow(base, k: int):
    """base**k for integer k >= 0 by repeated squaring (no log-branch issues)."""
    k = int(k)
    result = np.ones_like(base)
    b = base
    while k:
        if k & 1:
            result = result * b
        k >>= 1
        if k:
            b = b * b
    return result


def gamma(n: int, alpha):
    """Boundary curve value; returns exactly 1 for n = 1."""
    n = _check_n(n, 1)
    a = np.asarray(wrap_angle(alpha), np.float64)
    if n == 1:
        out = np.ones(a.shape, np.complex128)
        return complex(out[()]) if a.ndim == 0 else out
    inner = 1.0 - (1.0 - np.exp(-1j * a)) / n
    out = np.exp(1j * a) * _ipow(inner, n)
    return complex(out[()]) if a.ndim == 0 else out


def gamma_derivative(n: int, alpha):
    """d gamma / d alpha; vanishes only at alpha = 0."""
    n = _check_n(n, 2)
    a = np.asarray(wrap_angle(alpha), np.float64)
    shrink = 1.0 - np.exp(-1j * a)
    inner = 1.0 - shrink / n
    out = 1j * (1.0 - 1.0 / n) * shrink * np.exp(1j * a) * _ipow(inner, n - 1)
    return complex(out[()]) if a.ndim == 0 else out


def _theta(n: int, a: np.ndarray) -> np.ndarray:
    """theta_of_alpha on angles already in [-pi, pi]."""
    return a - n * np.arctan(np.sin(a) / (n - 1.0 + np.cos(a)))


def _theta_slope(n: int, a: np.ndarray) -> np.ndarray:
    """theta_derivative on angles already in [-pi, pi]."""
    s2 = np.sin(0.5 * a) ** 2
    c2 = np.cos(0.5 * a) ** 2
    return 2.0 * (n - 1.0) * (n - 2.0) * s2 / ((n - 2.0) ** 2 + 4.0 * (n - 1.0) * c2)


def theta_of_alpha(n: int, alpha):
    """Polar angle of gamma(alpha): alpha - n*arctan(sin a / (n-1+cos a)).

    Strictly increasing odd bijection of [-pi, pi] onto itself for n >= 3.
    """
    n = _check_n(n, 3)
    a = np.asarray(wrap_angle(alpha), np.float64)
    out = _theta(n, a)
    return float(out[()]) if a.ndim == 0 else out


def theta_derivative(n: int, alpha):
    """d theta / d alpha; nonnegative, zero only at alpha = 0."""
    n = _check_n(n, 3)
    a = np.asarray(wrap_angle(alpha), np.float64)
    out = _theta_slope(n, a)
    return float(out[()]) if a.ndim == 0 else out


def _invert_theta(n: int, targets: np.ndarray) -> np.ndarray:
    """Solve theta_of_alpha(n, x) = target elementwise on [-pi, pi].

    Bisection narrows the bracket, guarded Newton polishes where the slope is
    healthy, and a final bisection sweep narrows the bracket to one ulp of
    max(|alpha|, 1), where the residual reaches the evaluation noise floor.
    Near alpha = 0 the slope vanishes quadratically, so Newton steps there
    are rejected and bisection continues.  The sweep freezes each entry once
    its own bracket is that narrow, so an entry of a batch equals the same
    target inverted alone, bit for bit.
    """
    n = int(n)
    t = np.asarray(targets, np.float64)
    lo = np.full(t.shape, -np.pi)
    hi = np.full(t.shape, np.pi)
    x = np.zeros(t.shape)
    for _ in range(22):
        f = _theta(n, x) - t
        pos = f > 0.0
        hi = np.where(pos, x, hi)
        lo = np.where(pos, lo, x)
        x = 0.5 * (lo + hi)
    for _ in range(8):
        f = _theta(n, x) - t
        pos = f > 0.0
        hi = np.where(pos, x, hi)
        lo = np.where(pos, lo, x)
        d = _theta_slope(n, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - f / d
        ok = (d > 1e-12) & np.isfinite(cand) & (cand > lo) & (cand < hi)
        x = np.where(ok, cand, 0.5 * (lo + hi))
    for _ in range(64):
        active = hi - lo > np.spacing(np.maximum(np.abs(x), 1.0))
        if not active.any():
            break
        f = _theta(n, x) - t
        pos = f > 0.0
        hi = np.where(pos, x, hi)
        lo = np.where(pos, lo, x)
        # a frozen entry keeps x; its bracket only narrows, so it stays frozen
        x = np.where(active, 0.5 * (lo + hi), x)
    return np.where(t == 0.0, 0.0, x)


def alpha_of_theta(n: int, theta):
    """Inverse of the angle map: the alpha in [-pi, pi] with theta(alpha) = theta.

    ``theta`` is a finite scalar or array; it is wrapped into [-pi, pi] first.
    The solver always iterates to the floating-point noise floor of the angle
    map, so there is no tolerance to choose.
    """
    n = _check_n(n, 3)
    t = np.asarray(wrap_angle(_check_finite("theta", theta)), np.float64)
    out = _invert_theta(n, t if t.ndim else t[None])
    return float(out[0]) if t.ndim == 0 else out


@dataclass(frozen=True)
class PolarPoint:
    """A point in polar coordinates: angle in [-pi, pi], nonnegative radius."""

    theta: float
    r: float


def _radius_from_alpha(n: int, alpha):
    base = 1.0 - (4.0 * (n - 1.0) / n**2) * np.sin(0.5 * np.asarray(alpha, np.float64)) ** 2
    return np.maximum(base, 0.0) ** (n / 2.0)


def radius_of_theta(n: int, theta) -> PolarPoint:
    """Polar radius of the boundary at angle ``theta`` (n >= 3)."""
    n = _check_n(n, 3)
    a = alpha_of_theta(n, theta)
    return PolarPoint(theta=float(wrap_angle(theta)), r=float(_radius_from_alpha(n, a)))


def _radius_many(n: int, thetas: np.ndarray) -> np.ndarray:
    alphas = _invert_theta(n, np.asarray(thetas, np.float64))
    return _radius_from_alpha(n, alphas)


def _big_gamma_raw(n: int, alpha, y):
    a = np.asarray(alpha, np.float64)
    yy = np.asarray(y, np.float64)
    inner = 1.0 - (1.0 - np.exp(-1j * a)) * yy / n
    return np.exp(1j * yy * a) * _ipow(inner, n)


def big_gamma(n: int, alpha, y):
    """Two-parameter interior map: e^{i y a} (1 - (1 - e^{-i a}) y / n)^n.

    Reduces to the boundary curve at y = 1; y must lie in [1, n-1].
    """
    n = _check_n(n, 3)
    yy = np.asarray(y, np.float64)
    if np.any(yy < 1.0 - 1e-9) or np.any(yy > n - 1.0 + 1e-9):
        raise ValueError(f"second parameter must lie in [1, {n - 1}]")
    a = np.asarray(wrap_angle(alpha), np.float64)
    out = _big_gamma_raw(n, a, yy)
    return complex(out[()]) if out.ndim == 0 else out


def jacobian_big_gamma(n: int, alpha, y):
    """Closed-form Jacobian of (alpha, y) -> (Re Gamma, Im Gamma):

        |w|^{2n-2} * y * (1 - y/n) * (2 - 2 cos a - a sin a),

    where w = 1 - (1 - e^{-i a}) y / n is the n-th-root base of Gamma (both
    partial derivatives share the factor e^{i y a} w^{n-1}, whose squared
    modulus is |w|^{2n-2}; finite differences confirm this power).  Positive
    on the open rectangle (0, pi) x (1, n-1) away from (pi, n/2).
    """
    n = _check_n(n, 3)
    a = np.asarray(wrap_angle(alpha), np.float64)
    yy = np.asarray(y, np.float64)
    w = 1.0 - (1.0 - np.exp(-1j * a)) * yy / n
    mod2 = w.real**2 + w.imag**2
    angular = 4.0 * np.sin(0.5 * a) ** 2 - a * np.sin(a)
    out = _ipow(mod2, n - 1) * yy * (1.0 - yy / n) * angular
    return float(out[()]) if out.ndim == 0 else out
