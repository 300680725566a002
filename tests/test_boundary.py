"""Boundary-curve tests: the closed curve, its derivative, the polar angle
map and inverse, the radius profile, and the two-parameter interior map."""

import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diagprod import boundary
from diagprod import (
    alpha_of_theta,
    big_gamma,
    gamma,
    gamma_derivative,
    jacobian_big_gamma,
    radius_of_theta,
    theta_derivative,
    theta_of_alpha,
    wrap_angle,
)

GRID = np.linspace(-np.pi, np.pi, 2001)

# n from 3 to 10^6, small n drawn as often as large
SIZES = st.one_of(st.integers(3, 12), st.integers(13, 10**6))
SIGNS = st.sampled_from([-1.0, 1.0])


def theta_mp(n, alpha):
    """theta(alpha) in mpmath, with digits to spare for the cancellation of
    about 2 log10(1/|alpha|) digits at the cusp."""
    a = mpmath.mpf(alpha)
    with mpmath.workdps(40 + (int(-2 * mpmath.log10(abs(a))) if 0 < abs(a) < 1 else 0)):
        return +(a - n * mpmath.atan(mpmath.sin(a) / (n - 1 + mpmath.cos(a))))


def alpha_mp(n, theta):
    """The root of theta(alpha) = theta in mpmath, by the secant method from
    the cube seed; theta increases on the whole real line, so it is unique."""
    t = mpmath.mpf(theta)
    if t == 0:
        return t
    with mpmath.workdps(40 + (int(-mpmath.log10(abs(t))) if abs(t) < 1 else 0)):
        k = mpmath.mpf((n - 1) * (n - 2)) / (6 * n * n)
        x0 = mpmath.sign(t) * min(mpmath.cbrt(abs(t) / k), mpmath.pi)
        f = lambda a: a - n * mpmath.atan(mpmath.sin(a) / (n - 1 + mpmath.cos(a))) - t
        return +mpmath.findroot(f, (x0, x0 * (1 - mpmath.mpf(10) ** -3)))


def slope_mp(n, alpha):
    """theta'(alpha) = 2(n-1)(n-2) sin^2(a/2) / ((n-2)^2 + 4(n-1) cos^2(a/2)) in mpmath."""
    with mpmath.workdps(40):
        h = mpmath.mpf(alpha) / 2
        return +(2 * (n - 1) * (n - 2) * mpmath.sin(h) ** 2
                 / ((n - 2) ** 2 + 4 * (n - 1) * mpmath.cos(h) ** 2))


def rel_error(got, want):
    return float(abs(mpmath.mpf(got) - want) / abs(want))


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestGamma:
    def test_value_one_at_origin(self):
        for n in range(1, 13):
            assert gamma(n, 0.0) == 1

    def test_n1_constant(self):
        for a in (-3.0, -0.5, 0.7, np.pi):
            assert gamma(1, a) == 1

    def test_n2_closed_form(self):
        vals = gamma(2, GRID)
        assert np.abs(vals - np.cos(GRID / 2.0) ** 2).max() <= 1e-14

    def test_endpoints(self):
        for n in range(3, 13):
            want = -((1.0 - 2.0 / n) ** n)
            assert abs(gamma(n, np.pi) - want) <= 1e-12
            assert abs(gamma(n, -np.pi) - want) <= 1e-12

    def test_n3_half_turn_value(self):
        assert gamma(3, np.pi) == pytest.approx(-1.0 / 27.0, abs=1e-15)

    def test_angle_wrapping(self):
        assert gamma(4, 1.0 + 2.0 * np.pi) == pytest.approx(gamma(4, 1.0), abs=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gamma(0, 1.0)


class TestGammaDerivative:
    def test_vanishes_only_at_origin(self):
        assert gamma_derivative(5, 0.0) == 0
        grid = GRID[np.abs(GRID) > 1e-2]
        assert np.abs(gamma_derivative(5, grid)).min() > 0

    def test_finite_difference_spot(self):
        got = gamma_derivative(3, 0.7)
        want = central_diff(lambda a: gamma(3, a), 0.7)
        assert abs(got - want) <= 1e-8

    def test_n2_modulus_matches_half_sine(self):
        # d/da cos^2(a/2) has modulus sin(a)/2
        want = central_diff(lambda a: gamma(2, a), np.pi / 2)
        got = gamma_derivative(2, np.pi / 2)
        assert abs(got - want) <= 1e-8
        assert abs(abs(got) - 0.5 * np.sin(np.pi / 2)) <= 1e-12

    def test_finite_difference_grid(self):
        inner = np.linspace(-np.pi + 1e-3, np.pi - 1e-3, 400)
        for n in (2, 3, 6, 9):
            got = gamma_derivative(n, inner)
            want = (gamma(n, inner + 1e-6) - gamma(n, inner - 1e-6)) / 2e-6
            assert np.abs(got - want).max() <= 1e-7


class TestThetaMap:
    def test_fixed_points(self):
        for n in (3, 4, 7):
            assert theta_of_alpha(n, 0.0) == 0
            assert abs(theta_of_alpha(n, np.pi) - np.pi) <= 1e-12
            assert abs(theta_of_alpha(n, -np.pi) + np.pi) <= 1e-12

    def test_quadrature_oracle(self):
        # integrate the closed-form slope from 0 to 1 and compare
        want, err = quad(lambda a: theta_derivative(3, a), 0.0, 1.0, epsabs=1e-12)
        assert err < 1e-10
        assert abs(theta_of_alpha(3, 1.0) - want) <= 1e-8

    def test_strictly_increasing(self):
        grid = np.linspace(-np.pi, np.pi, 10001)
        for n in range(3, 13):
            assert np.all(np.diff(theta_of_alpha(n, grid)) > 0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            theta_of_alpha(2, 0.5)
        with pytest.raises(ValueError):
            alpha_of_theta(2, 0.5)

    def test_slope_matches_finite_difference(self):
        inner = np.linspace(-3.0, 3.0, 101)
        got = theta_derivative(4, inner)
        want = (theta_of_alpha(4, inner + 1e-6) - theta_of_alpha(4, inner - 1e-6)) / 2e-6
        assert np.abs(got - want).max() <= 1e-7


class TestAlphaOfTheta:
    def test_fixes_origin_and_half_turn(self):
        for n in (3, 5, 9):
            assert alpha_of_theta(n, 0.0) == 0.0
            assert abs(alpha_of_theta(n, np.pi) - np.pi) <= 1e-10
            assert abs(alpha_of_theta(n, -np.pi) + np.pi) <= 1e-10

    def test_round_trip_spot(self):
        a = alpha_of_theta(4, 0.5)
        assert abs(theta_of_alpha(4, a) - 0.5) <= 1e-10

    def test_odd(self):
        # exact: both maps work on the magnitude and copy the sign
        for n in (3, 6, 40):
            for t in (1e-300, 1e-12, 0.3, 1.1, 2.9, np.pi):
                assert alpha_of_theta(n, -t) == -alpha_of_theta(n, t)
                assert theta_of_alpha(n, -t) == -theta_of_alpha(n, t)

    @given(st.integers(3, 12), st.floats(-np.pi, np.pi))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, n, theta):
        a = alpha_of_theta(n, theta)
        assert abs(theta_of_alpha(n, a) - theta) <= 1e-10

    def test_inverse_round_trip_down_to_the_cusp(self):
        mags = np.concatenate([np.logspace(-10, 0, 41), GRID[GRID >= 1.0][::50]])
        alphas = np.concatenate([-mags, mags])
        for n in (3, 6, 12, 1000):
            back = np.array([alpha_of_theta(n, t) for t in theta_of_alpha(n, alphas)])
            assert np.max(np.abs(back - alphas) / np.abs(alphas)) <= 1e-13

    def test_array_matches_scalar(self):
        thetas = np.linspace(-np.pi, np.pi, 101)
        for n in (3, 5, 9):
            scalar = np.array([alpha_of_theta(n, t) for t in thetas])
            assert np.array_equal(alpha_of_theta(n, thetas), scalar)

    @given(
        st.integers(3, 12),
        st.floats(-np.pi, np.pi),
        st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=40),
        st.integers(0, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_entry_matches_scalar_property(self, n, theta, others, slot):
        # regression: the final bisection sweep ran until the whole batch had
        # converged, so an entry's last bits depended on its neighbours
        slot = min(slot, len(others))
        batch = np.array(others[:slot] + [theta] + others[slot:])
        assert alpha_of_theta(n, batch)[slot] == alpha_of_theta(n, theta)

    def test_unbracketed_steps_stay_in_range(self, monkeypatch):
        # the Newton steps run without a bracket: every iterate must stay in
        # [0, pi], where the kernel is defined, from subnormal |theta| to pi
        mags = np.concatenate([
            np.linspace(0.0, np.pi, 4001),
            np.logspace(-300, np.log10(np.pi), 2000),
            np.pi - np.logspace(-16, -1, 500),
        ])
        kernel, seen = boundary._theta_and_slope, []
        monkeypatch.setattr(
            boundary, "_theta_and_slope", lambda n, b: seen.append(b) or kernel(n, b)
        )
        for n in (3, 4, 5, 12, 100, 10**6):
            got = alpha_of_theta(n, np.concatenate([mags, -mags]))
            assert np.abs(got).max() <= np.pi
        assert all((0.0 <= b).all() and (b <= np.pi).all() for b in seen)

    def test_inversion_loops_skip_wrap_angle(self, monkeypatch):
        # regression: each iteration re-wrapped angles that the Newton steps keep
        # inside [-pi, pi], which made wrap_angle the bulk of an inversion
        calls = []
        unwrapped = boundary._wrap_angle
        monkeypatch.setattr(boundary, "_wrap_angle", lambda x: calls.append(x) or unwrapped(x))
        for n in (3, 5, 12):
            boundary._invert_theta(n, np.linspace(-np.pi, np.pi, 9))
            boundary._invert_theta(n, np.array([0.7]))
        assert len(calls) == 0

    def test_tiny_and_subnormal_targets(self):
        # regression: cbrt(theta) of an iterate whose theta underflows is
        # noise, and at theta = 0 the Newton quotient is 0/0 (a RuntimeWarning)
        tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-40, 1e-30, 2e-30])
        for n in (3, 5, 10**6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = alpha_of_theta(n, np.append(tiny, 0.0))
            assert got[-1] == 0.0
            assert max(rel_error(g, alpha_mp(n, t)) for g, t in zip(got, tiny)) <= 1e-13

    def test_half_turn_seed_does_not_stall(self):
        # regression: a cube seed lies beyond pi here (n = 5, theta = -2.5), and
        # Newton from it stalled at -pi
        for n, t in ((5, -2.5), (5, 2.5), (3, -3.0), (4, np.pi - 1e-12)):
            assert rel_error(alpha_of_theta(n, t), alpha_mp(n, t)) <= 1e-13

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            for call in (
                lambda: alpha_of_theta(3, bad),
                lambda: alpha_of_theta(4, np.array([0.5, bad])),
                lambda: radius_of_theta(3, bad),
            ):
                with pytest.raises(ValueError, match=f"theta must be finite, got {bad!r}"):
                    call()


def smallest_normal_alpha(n):
    """The |alpha| below which theta(alpha) ~ k alpha^3, k = (n-1)(n-2)/(6n^2),
    is no longer a normal float."""
    return float(np.cbrt(np.finfo(float).tiny * 6 * n * n / ((n - 1) * (n - 2)))) * (1 + 1e-9)


class TestAgainstMpmath:
    """theta(alpha) to a relative error of 5e-14 against mpmath over
    n = 3 .. 10^6, from the smallest |alpha| whose theta is a normal float up
    to the half-turn; alpha(theta) to 1e-13 from |theta| = 1e-20; theta'(alpha)
    to 2e-15 from |alpha| = 1e-8."""

    def test_theta_near_cusp_spot(self):
        # regression: alpha - n arctan(...) cancelled to a relative error of
        # 3.5e5 here
        assert rel_error(theta_of_alpha(3, 1e-8), theta_mp(3, 1e-8)) <= 1e-13

    @given(SIZES, SIGNS, st.one_of(
        st.floats(-7.0, np.log10(np.pi)).map(lambda e: 10.0**e),
        st.floats(-103.0, -7.0).map(lambda e: 10.0**e),
        st.floats(-15.0, 0.0).map(lambda e: np.pi - 10.0**e),
    ))
    @example(10**6, 1.0, 1e-7)
    @example(3, -1.0, np.pi)
    # regression: y^3 in n g(y) underflowed, 2.0e-12 and 1.9e-14 off
    @example(10**6, 1.0, 8.4e-103)
    @example(1000, -1.0, 8.4e-103)
    @example(10**6, 1.0, 0.0)
    @example(3, 1.0, 0.0)
    @settings(max_examples=150, deadline=None)
    def test_theta_of_alpha_property(self, n, sign, mag):
        alpha = sign * max(mag, smallest_normal_alpha(n))
        got = theta_of_alpha(n, alpha)
        assert abs(got) >= np.finfo(float).tiny
        assert rel_error(got, theta_mp(n, alpha)) <= 5e-14

    @given(SIZES, SIGNS, st.one_of(
        st.floats(-20.0, np.log10(np.pi)).map(lambda e: 10.0**e),
        st.floats(-15.5, 0.0).map(lambda e: np.pi - 10.0**e),
    ))
    @example(10**6, 1.0, 1e-20)
    @example(3, -1.0, np.pi)
    @example(5, -1.0, 2.5)
    # where four and five Newton steps differ most (of 2.5e5 targets per n)
    @example(3, 1.0, 5.997313163288937e-4)
    @example(4, -1.0, 5.163594684145989e-4)
    @settings(max_examples=150, deadline=None)
    def test_alpha_of_theta_property(self, n, sign, mag):
        theta = sign * mag
        assert rel_error(alpha_of_theta(n, theta), alpha_mp(n, theta)) <= 1e-13

    # the kernel's slope is in t = tan(|alpha|/2); the reference keeps sin and cos
    @given(SIZES, SIGNS, st.one_of(
        st.floats(-8.0, np.log10(np.pi)).map(lambda e: 10.0**e),
        st.floats(-15.0, 0.0).map(lambda e: np.pi - 10.0**e),
    ))
    @example(3, 1.0, np.pi)
    @example(10**6, -1.0, np.pi)
    @example(4, 1.0, 3.0)
    @example(4, 1.0, 1e-8)
    @settings(max_examples=150, deadline=None)
    def test_theta_derivative_property(self, n, sign, mag):
        alpha = sign * mag
        assert rel_error(theta_derivative(n, alpha), slope_mp(n, alpha)) <= 2e-15


class TestRadius:
    def test_unit_radius_at_zero(self):
        for n in (3, 4, 8):
            assert radius_of_theta(n, 0.0).r == 1.0

    def test_n3_half_turn(self):
        # alpha(pi) = pi, so r = (1 - 8/9)^{3/2} = 1/27
        assert radius_of_theta(3, np.pi).r == pytest.approx(1.0 / 27.0, abs=1e-14)

    def test_matches_curve_modulus(self):
        p = radius_of_theta(5, 1.2)
        assert abs(p.r - abs(gamma(5, alpha_of_theta(5, 1.2)))) <= 1e-12
        assert p.theta == 1.2

    def test_validates_and_wraps_once(self, monkeypatch):
        # regression: radius_of_theta checked and wrapped theta in alpha_of_theta
        # and then wrapped it again for PolarPoint.theta
        calls = []
        unwrapped = boundary._wrap_angle
        monkeypatch.setattr(boundary, "_wrap_angle", lambda x: calls.append(x) or unwrapped(x))
        for n, theta in ((3, 0.4), (5, -2.9), (7, 7.0), (12, np.pi)):
            p = radius_of_theta(n, theta)
            assert len(calls) == 1
            calls.clear()
            assert p.theta == unwrapped(theta)
            assert p.r == boundary._radius_many(n, np.array([p.theta]))[0]

    def test_consistency_grid(self):
        for n in (3, 7, 12):
            thetas = theta_of_alpha(n, GRID)
            r = np.array([radius_of_theta(n, t).r for t in thetas[::100]])
            assert np.abs(r - np.abs(gamma(n, GRID[::100]))).max() <= 1e-12


class TestBigGamma:
    def test_reduces_to_curve_at_one(self):
        for a in (-2.0, 0.3, 3.0):
            assert big_gamma(5, a, 1.0) == pytest.approx(gamma(5, a), abs=1e-14)

    def test_origin_column_is_one(self):
        for y in (1.0, 2.5, 4.0):
            assert big_gamma(5, 0.0, y) == 1

    def test_half_turn_value(self):
        # e^{2 pi i} (1 - 2*2/6)^6 = (1/3)^6
        assert big_gamma(6, np.pi, 2.0) == pytest.approx((1.0 / 3.0) ** 6, abs=1e-14)

    def test_rejects_out_of_range_y(self):
        with pytest.raises(ValueError):
            big_gamma(4, 1.0, 0.5)
        with pytest.raises(ValueError):
            big_gamma(4, 1.0, 3.5)

    @given(
        st.integers(3, 10),
        st.floats(-np.pi, np.pi),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_reflection_symmetry(self, n, alpha, frac):
        y = 1.0 + frac * (n - 2.0)
        lhs = big_gamma(n, alpha, n - y)
        rhs = np.conj(big_gamma(n, alpha, y))
        assert abs(lhs - rhs) <= 1e-12
        assert abs(big_gamma(n, -alpha, y) - rhs) <= 1e-12


class TestJacobian:
    def test_zero_at_origin_edge(self):
        assert jacobian_big_gamma(5, 0.0, 2.0) == 0

    # regression: jacobian_big_gamma(4, 0.5, 10.0) returned -0.542 where
    # big_gamma raised; both now share one check of y
    @given(st.integers(3, 12), st.floats(-np.pi, np.pi), SIGNS, st.floats(1e-6, 1e6))
    @example(4, 0.5, 1.0, 7.0)  # y = 10
    @example(4, 0.5, -1.0, 0.5)  # y = 0.5
    @settings(max_examples=100, deadline=None)
    def test_y_outside_the_range_is_rejected_by_both(self, n, alpha, side, gap):
        y = n - 1.0 + gap if side > 0 else 1.0 - gap
        for f in (big_gamma, jacobian_big_gamma):
            with pytest.raises(ValueError, match=rf"^second parameter must lie in \[1, {n - 1}\]$"):
                f(n, alpha, y)

    def test_zero_at_vanishing_point(self):
        assert jacobian_big_gamma(4, np.pi, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_finite_difference_spot(self):
        h = 1e-5

        def parts(a, y):
            v = big_gamma(4, a, y)
            return np.array([v.real, v.imag])

        da = (parts(1.0 + h, 1.5) - parts(1.0 - h, 1.5)) / (2 * h)
        dy = (parts(1.0, 1.5 + h) - parts(1.0, 1.5 - h)) / (2 * h)
        fd = da[0] * dy[1] - da[1] * dy[0]
        got = jacobian_big_gamma(4, 1.0, 1.5)
        assert got > 0
        assert abs(got - fd) <= 1e-6

    def test_positive_on_interior_grid(self):
        for n in (3, 5):
            alphas = np.linspace(0.0, np.pi, 52)[1:-1]
            ys = np.linspace(1.0, n - 1.0, 52)[1:-1]
            aa, yy = np.meshgrid(alphas, ys, indexing="ij")
            vals = jacobian_big_gamma(n, aa, yy)
            assert np.all(vals > 0)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(-np.pi) == -np.pi
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(0.0) == 0.0

    def test_reduction(self):
        assert wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-3.0 * np.pi) == pytest.approx(np.pi)
        assert wrap_angle(2.5 * np.pi) == pytest.approx(0.5 * np.pi)

    # regression: wrap_angle(inf) returned nan with a RuntimeWarning
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        for angle in (bad, np.array([0.5, bad]), [bad]):
            with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$"):
                wrap_angle(angle)

    # regression: a - 2 pi round(a / 2 pi) left (-pi, pi] for |a| above about
    # 1.5e15 (wrap_angle(1e16) was -4.0, theta_of_alpha(3, 1e16) -5.54)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1e16)
    @example(-1e16)
    @example(3.0 * np.pi)
    @example(-np.pi)
    @example(1.7976931348623157e308)
    @settings(max_examples=500, deadline=None)
    def test_every_finite_angle_lands_in_range(self, x):
        r = wrap_angle(x)
        assert -np.pi < r <= np.pi or r == x == -np.pi
        assert r == x or abs(x) > np.pi
        # x - r is an integer multiple of the float 2 pi, exactly
        assert ((Fraction(x) - Fraction(r)) / Fraction(2.0 * np.pi)).denominator == 1
        assert wrap_angle(np.array([x]))[0] == r
        assert -np.pi <= theta_of_alpha(3, x) <= np.pi
