"""Closed-form mathematics of the diagonal-product boundary curve.

The boundary of the diagonal-product image of SU(n) is the closed curve

    gamma(alpha) = e^{i alpha} (1 - (1 - e^{-i alpha}) / n)^n,   alpha in [-pi, pi].

For n > 2 the curve admits a polar parametrization r(theta) through the
strictly increasing angle map theta(alpha); this module evaluates the curve,
its derivative, the angle map with its slope (one pass from tan(alpha/2), free
of cancellation at the cusp), its inverse (four Newton steps on cbrt(theta),
one such pass each), the radius, and Gamma(alpha, y) with its Jacobian.

All evaluators accept scalars or numpy arrays of angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import _check_finite, _check_n

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


def wrap_angle(x):
    """Reduce angles to [-pi, pi] by an exact multiple of the float 2 pi, so every
    finite angle lands in range: values already in [-pi, pi] are unchanged
    (-pi too, and -0.0 becomes 0.0), and any other angle lands in (-pi, pi].
    Raises ValueError naming the first NaN or infinite angle."""
    return _scalar(_angles("angle", x))


def _wrap_angle(x) -> np.ndarray:
    """The core of :func:`wrap_angle`, for angles already checked finite: a
    float64 array, 0-d for a scalar."""
    a = np.asarray(x, np.float64)
    out = np.fmod(a, _TWO_PI)  # exact, so no rounding error grows with |a|
    out -= _TWO_PI * np.round(out / _TWO_PI)  # exact; |out / 2pi| <= 1/2 rounds to 0
    return np.where((out == -np.pi) & (a != -np.pi), np.pi, out)


def _angles(name: str, x) -> np.ndarray:
    """The one entry of an angle argument: ``x`` checked finite (ValueError
    naming ``name`` and the first bad entry) and wrapped into [-pi, pi], as a
    float64 array, 0-d for a scalar."""
    return _wrap_angle(_check_finite(name, x))


def _scalar(out):
    """The one return of an evaluator: a Python scalar for a 0-d result (a
    scalar argument), else the array itself."""
    return out.item() if out.ndim == 0 else out


def _ipow(base, k: int):
    """base**k for integer k >= 0 by repeated squaring (no log-branch issues)."""
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
    a = _angles("alpha", alpha)
    inner = 1.0 - (1.0 - np.exp(-1j * a)) / n
    out = np.exp(1j * a) * _ipow(inner, n) if n > 1 else np.ones(a.shape, np.complex128)
    return _scalar(out)


def gamma_derivative(n: int, alpha):
    """d gamma / d alpha; vanishes only at alpha = 0."""
    n = _check_n(n, 2)
    a = _angles("alpha", alpha)
    shrink = 1.0 - np.exp(-1j * a)
    inner = 1.0 - shrink / n
    out = 1j * (1.0 - 1.0 / n) * shrink * np.exp(1j * a) * _ipow(inner, n - 1)
    return _scalar(out)


# S(x^2) = (arctan(x) - x) / x^3 for x >= 0, by its series x^16 .. x^0 for x < 0.1, where it cancels
_ATAN_SERIES = tuple((-1.0) ** k / (2 * k + 1) for k in range(9, 0, -1))


def _atan_s(x: np.ndarray) -> np.ndarray:
    x2 = np.minimum(x * x, 0.01)
    series = np.full(x.shape, _ATAN_SERIES[0])
    for coef in _ATAN_SERIES[1:]:
        series *= x2
        series += coef
    big = np.maximum(x, 0.1)
    return np.where(x < 0.1, series, (np.arctan(big) - big) / (big * big * big))


def _theta_and_slope(n: int, b: np.ndarray):
    """theta(b) and theta'(b) on magnitudes b in [0, pi], from one t = tan(b/2)."""
    t = np.tan(0.5 * b)
    c = (n - 2.0) / n
    t2 = t * t
    ct2 = 1.0 + c * t2
    y = 2.0 / n * t / ct2  # = sin b / (n - 1 + cos b)
    s = _atan_s(np.stack([t, y]))
    near = t2 * t * (2.0 * c / ct2 + 2.0 * s[0] - 8.0 / (n * n) * s[1] / (ct2 * ct2 * ct2))
    far = b - n * (y + y * y * y * s[1])
    slope = 2.0 * (n - 1.0) * (n - 2.0) * t2 / ((n - 2.0) ** 2 * (1.0 + t2) + 4.0 * (n - 1.0))
    return np.where(b > 3.0, far, near), slope


def theta_of_alpha(n: int, alpha):
    """Polar angle of gamma(alpha): alpha - n*arctan(sin a / (n-1+cos a)).

    Strictly increasing odd bijection of [-pi, pi] onto itself for n >= 3.
    With t = tan(|alpha|/2), c = (n-2)/n, y = 2t/(n (1 + c t^2)) (the arctan
    argument) and g(x) = arctan(x) - x = x^3 S(x^2), it is |alpha| - n (y +
    g(y)) beyond 3, and 2c t^3/(1 + c t^2) - n g(y) + 2 g(t) up to 3, free of
    the cancellation at the cusp (theta ~ alpha^3), with t^3 factored out so
    that no smaller cube underflows.  The sign of alpha is copied: the map is
    exactly odd.  Relative error against mpmath: below 5e-14 for n = 3 .. 10^6
    and |alpha| <= pi wherever theta is a normal float.
    """
    n = _check_n(n, 3)
    a = _angles("alpha", alpha)
    out = np.copysign(_theta_and_slope(n, np.abs(a))[0], a)
    return _scalar(out)


def theta_derivative(n: int, alpha):
    """d theta / d alpha = 2(n-1)(n-2) t^2 / ((n-2)^2 (1 + t^2) + 4(n-1)),
    t = tan(alpha/2); nonnegative, zero only at alpha = 0."""
    n = _check_n(n, 3)
    a = _angles("alpha", alpha)
    return _scalar(_theta_and_slope(n, np.abs(a))[1])


_NEWTON_STEPS = 4
_SEED_EXACT = 1e-30  # below this |theta| the cube seed is alpha to rounding


def _invert_theta(n: int, targets: np.ndarray) -> np.ndarray:
    """Solve theta_of_alpha(n, x) = target elementwise on [-pi, pi].

    Four Newton steps on cbrt(theta(x)) = cbrt(|target|), nearly linear in x
    near the cusp, from the upper bound min(cbrt(|target| / k), the tangent
    at pi, pi), k = (n-1)(n-2)/(6n^2).  The iterates stay in [0, pi] without
    a bracket (checked on 2.7M targets over n = 3 .. 10^6, from |target| =
    1e-300 to pi).  No step depends on other entries, so an entry of a batch
    equals the same target inverted alone, bit for bit.
    """
    t = np.asarray(targets, np.float64)
    at = np.abs(t)
    root = np.cbrt(at)
    seed = root / np.cbrt((n - 1.0) * (n - 2.0) / (6.0 * n * n))
    x = np.minimum(np.minimum(seed, np.pi - (np.pi - at) * (n - 2.0) / (2.0 * (n - 1.0))), np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            theta, slope = _theta_and_slope(n, x)
            h = np.cbrt(theta)
            x = np.where(h == root, x, x - 3.0 * h * h * (h - root) / slope)
    return np.copysign(np.where(at < _SEED_EXACT, seed, x), t)


def alpha_of_theta(n: int, theta):
    """Inverse of the angle map: the alpha in [-pi, pi] with theta(alpha) = theta.

    ``theta`` is a finite scalar or array; it is wrapped into [-pi, pi] first.
    Four Newton steps on the cube root of the angle map, one kernel pass each
    for theta and its slope, reach its rounding floor, so there is no tolerance
    to choose: the relative error against mpmath is below 2e-14 for
    n = 3 .. 10^6, from subnormal |theta| up to pi, and the map is exactly odd.
    """
    n = _check_n(n, 3)
    return _scalar(_invert_theta(n, _angles("theta", theta)))


@dataclass(frozen=True)
class PolarPoint:
    """A point in polar coordinates: angle in [-pi, pi], nonnegative radius."""

    theta: float
    r: float


def radius_of_theta(n: int, theta) -> PolarPoint:
    """Polar radius of the boundary at angle ``theta`` (n >= 3)."""
    n = _check_n(n, 3)
    t = _angles("theta", theta)
    return PolarPoint(theta=float(t), r=float(_radius_many(n, np.reshape(t, 1))[1][0]))


def _radius_many(n: int, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, r) per polar angle theta: the curve parameter with
    theta_of_alpha(n, alpha) = theta, and the boundary radius |gamma(alpha)|.
    The one polar-radius core: the polar oracle, :func:`radius_of_theta`,
    the constrained maximum's target and the preimage solver's outside
    verdict and boundary seed all read it.  The radius is
    (1 - 4 (n-1)/n^2 sin^2(alpha/2))^(n/2), its base clipped at 0."""
    alphas = _invert_theta(n, np.asarray(thetas, np.float64))
    base = 1.0 - (4.0 * (n - 1.0) / n**2) * np.sin(0.5 * alphas) ** 2
    return alphas, np.maximum(base, 0.0) ** (n / 2.0)


def _interior_args(n: int, alpha, y):
    """n, alpha wrapped into [-pi, pi], and y, checked to lie in [1, n-1]."""
    n = _check_n(n, 3)
    yy = np.asarray(_check_finite("y", y), np.float64)
    if np.any(yy < 1.0 - 1e-9) or np.any(yy > n - 1.0 + 1e-9):
        raise ValueError(f"second parameter must lie in [1, {n - 1}]")
    return n, _angles("alpha", alpha), yy


def big_gamma(n: int, alpha, y):
    """Two-parameter interior map: e^{i y a} (1 - (1 - e^{-i a}) y / n)^n.

    Reduces to the boundary curve at y = 1; y must lie in [1, n-1].
    """
    n, a, yy = _interior_args(n, alpha, y)
    out = np.exp(1j * yy * a) * _ipow(1.0 - (1.0 - np.exp(-1j * a)) * yy / n, n)
    return _scalar(out)


def jacobian_big_gamma(n: int, alpha, y):
    """Closed-form Jacobian of (alpha, y) -> (Re Gamma, Im Gamma):
    |w|^{2n-2} y (1 - y/n) (2 - 2 cos a - a sin a), w = 1 - (1 - e^{-i a}) y / n,
    as both partial derivatives share the factor e^{i y a} w^{n-1}; y must lie
    in [1, n-1].  Positive on (0, pi) x (1, n-1) away from (pi, n/2).
    """
    n, a, yy = _interior_args(n, alpha, y)
    w = 1.0 - (1.0 - np.exp(-1j * a)) * yy / n
    mod2 = w.real**2 + w.imag**2
    angular = 4.0 * np.sin(0.5 * a) ** 2 - a * np.sin(a)
    out = _ipow(mod2, n - 1) * yy * (1.0 - yy / n) * angular
    return _scalar(out)
