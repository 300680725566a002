"""Construction and recognition tests for the extremal matrix families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagprod.boundary as boundary_module
from diagprod.constructors import _build_u_z_many, _homotopy_matrix, _homotopy_product

from diagprod import (
    ExtremalDecomposition,
    alpha_of_theta,
    build_extremal,
    build_homotopy_matrix,
    build_u_theta,
    build_u_z,
    decompose_su2,
    diag_product,
    gamma,
    haar_special_unitary,
    homotopy_diag_product,
    is_special_orthogonal,
    is_special_unitary,
    is_unitary,
    omega_max,
    random_extremal,
    recognize_extremal,
    wrap_angle,
)


class TestBuildExtremal:
    def test_zero_angle_is_pure_diagonal(self):
        d = ExtremalDecomposition(
            0.0,
            np.full(3, 1 / np.sqrt(3), complex),
            np.array([0.3, -0.3, 0.0]),
        )
        u = build_extremal(d)
        np.testing.assert_allclose(u, np.diag(np.exp(1j * d.diag_phases)), atol=1e-15)
        assert diag_product(u) == pytest.approx(1.0)

    def test_half_turn_real_reflection(self):
        n = 4
        d = ExtremalDecomposition(
            np.pi,
            np.full(n, 1 / np.sqrt(n), complex),
            np.array([np.pi] + [0.0] * (n - 1)),
        )
        u = build_extremal(d)
        assert is_special_orthogonal(u, 1e-10)
        assert diag_product(u) == pytest.approx(-((1 - 2 / n) ** n), abs=1e-12)

    def test_matches_curve_value(self):
        v = np.exp(1j * np.arange(1, 4)) / np.sqrt(3)
        d = ExtremalDecomposition(1.0, v, np.array([1.0, 0.0, 0.0]))
        assert diag_product(build_extremal(d)) == pytest.approx(gamma(3, 1.0), abs=1e-12)

    def test_random_decompositions_are_special_unitary(self):
        for n in range(2, 9):
            for seed in range(40):
                d = random_extremal(n, seed=seed)
                u = build_extremal(d)
                assert is_special_unitary(u, 1e-10)
                assert abs(diag_product(u) - gamma(n, d.alpha)) <= 1e-10

    def test_equal_modulus_diagonal(self):
        for n, seed in ((3, 0), (6, 1), (8, 2)):
            d = random_extremal(n, seed=seed)
            u = build_extremal(d)
            want = abs(1.0 - (1.0 - np.exp(-1j * d.alpha)) / n)
            assert np.abs(np.abs(np.diagonal(u)) - want).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_reported(self, alpha):
        # wrapping inf warned (an error under pytest) before violations() ran
        d = ExtremalDecomposition(alpha, np.full(3, 1 / np.sqrt(3), complex), np.zeros(3))
        assert "alpha and v must be finite" in d.violations()
        with pytest.raises(ValueError, match="finite"):
            build_extremal(d)

    def test_rejects_bad_vector(self):
        d = ExtremalDecomposition(1.0, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="modulus"):
            build_extremal(d)

    def test_empty_vector_is_reported_alone(self):
        d = ExtremalDecomposition(0.5, np.array([]), np.array([0.5]))
        assert d.violations() == ["v must have at least one component"]

    def test_length_mismatch_is_reported(self):
        d = ExtremalDecomposition(0.5, np.full(3, 1 / np.sqrt(3), complex), np.array([0.5, 0.0]))
        assert d.violations() == ["v has 3 components but diag_phases has 2"]
        with pytest.raises(ValueError, match="diag_phases has 2"):
            build_extremal(d)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phases_are_reported(self, bad):
        d = ExtremalDecomposition(0.5, np.full(2, 1 / np.sqrt(2), complex), np.array([0.5, bad]))
        assert d.violations() == ["diagonal phases must be finite"]
        with pytest.raises(ValueError, match="phases must be finite"):
            build_extremal(d)

    def test_rejects_phase_mismatch(self):
        d = ExtremalDecomposition(
            1.0, np.full(2, 1 / np.sqrt(2), complex), np.array([0.0, 0.0])
        )
        with pytest.raises(ValueError, match="phases"):
            build_extremal(d)

    def test_complement_projector_identity(self):
        # the rank-(n-1) projector form (whose phases sum to (n-1)*alpha)
        # equals the rank-one form with the mirrored angle -alpha and phases
        # shifted down by alpha
        rng = np.random.default_rng(4)
        for n in (3, 5):
            for _ in range(20):
                alpha = rng.uniform(-np.pi, np.pi)
                v = np.exp(1j * rng.uniform(-np.pi, np.pi, n)) / np.sqrt(n)
                head = rng.uniform(-np.pi, np.pi, n - 1)
                phases = np.append(head, wrap_angle((n - 1) * alpha - head.sum()))
                big = np.eye(n) - np.outer(v, v.conj())
                lhs = (np.eye(n) - (1 - np.exp(-1j * alpha)) * big) * np.exp(
                    1j * phases
                )[None, :]
                mirrored = ExtremalDecomposition(
                    -alpha, v, np.asarray(wrap_angle(phases - alpha))
                )
                rhs = build_extremal(mirrored)
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestBuildUTheta:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(build_u_theta(3, 0.0), np.eye(3), atol=1e-15)

    def test_half_turn_product(self):
        assert diag_product(build_u_theta(3, np.pi)) == pytest.approx(-1 / 27, abs=1e-10)

    def test_product_sits_at_requested_angle(self):
        pd = diag_product(build_u_theta(4, 0.8))
        assert np.angle(pd) == pytest.approx(0.8, abs=1e-9)

    def test_product_is_boundary_point(self):
        for n, theta in ((3, 0.4), (5, -2.0), (8, 2.9)):
            u = build_u_theta(n, theta)
            assert is_special_unitary(u, 1e-10)
            want = np.exp(1j * theta) * abs(gamma(n, alpha_of_theta(n, theta)))
            assert abs(diag_product(u) - want) <= 1e-9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_u_theta(2, 0.5)


class TestHomotopyFamily:
    def test_zero_mixing_gives_unit_product(self):
        for alpha in (-2.5, 0.1, 3.0):
            assert diag_product(build_homotopy_matrix(5, alpha, 0.0)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_full_mixing_lands_on_curve(self):
        for n, alpha in ((3, 1.2), (6, -2.8)):
            u = build_homotopy_matrix(n, alpha, omega_max(n))
            assert abs(diag_product(u) - gamma(n, alpha)) <= 1e-12

    def test_half_turn_members_are_special_orthogonal(self):
        for omega in (0.0, 0.4, omega_max(4)):
            assert is_special_orthogonal(build_homotopy_matrix(4, np.pi, omega), 1e-10)

    def test_closed_form_matches_matrix(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 7):
            for _ in range(25):
                alpha = rng.uniform(-np.pi, np.pi)
                omega = rng.uniform(0.0, omega_max(n))
                u = build_homotopy_matrix(n, alpha, omega)
                assert is_special_unitary(u, 1e-10)
                got = diag_product(u)
                assert abs(got - homotopy_diag_product(n, alpha, omega)) <= 1e-12

    @given(st.integers(3, 12), st.floats(-np.pi, np.pi), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_exact_partials_match_central_differences(self, n, alpha, q):
        h = 1e-6
        _, d_alpha, d_q = _homotopy_product(n, alpha, q)
        ref_alpha = (
            _homotopy_product(n, alpha + h, q)[0] - _homotopy_product(n, alpha - h, q)[0]
        ) / (2.0 * h)
        ref_q = (
            _homotopy_product(n, alpha, q + h)[0] - _homotopy_product(n, alpha, q - h)[0]
        ) / (2.0 * h)
        assert abs(d_alpha - ref_alpha) <= 1e-8
        assert abs(d_q - ref_q) <= 1e-8

    @given(st.integers(2, 12), st.floats(-np.pi, np.pi), st.floats(0.0, 1.5))
    @settings(max_examples=100, deadline=None)
    def test_public_product_is_the_core(self, n, alpha, omega):
        core = complex(_homotopy_product(n, alpha, np.sin(omega) ** 2)[0])
        assert homotopy_diag_product(n, alpha, omega) == core

    def test_members_past_the_fold_are_special_unitary(self):
        for n in (3, 5, 9):
            for q in (0.0, (n - 1.0) / n, 0.95, 1.0):
                u = _homotopy_matrix(n, 2.1, q)
                assert is_special_unitary(u, 1e-12)
                assert abs(diag_product(u) - _homotopy_product(n, 2.1, q)[0]) <= 1e-12

    def test_rejects_omega_outside_interval(self):
        with pytest.raises(ValueError):
            build_homotopy_matrix(4, 1.0, -0.2)
        with pytest.raises(ValueError):
            build_homotopy_matrix(4, 1.0, omega_max(4) + 0.1)


class TestBuildUZ:
    def test_unit_target_gives_identity(self):
        np.testing.assert_allclose(build_u_z(3, 1.0), np.eye(3), atol=1e-15)

    def test_zero_target(self):
        u = build_u_z(4, 0.0)
        assert is_unitary(u, 1e-12)
        assert diag_product(u) == 0
        assert u[0, 0] == 0

    def test_reproduces_targets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            u = build_u_z(5, z)
            assert is_unitary(u, 1e-12)
            assert abs(diag_product(u) - z) <= 1e-12
        z = 0.3 * np.exp(2.1j)
        assert abs(diag_product(build_u_z(5, z)) - z) <= 1e-12

    def test_unit_circle_targets_give_diagonal(self):
        # float e^{i phi} can sit one ulp inside the circle, leaving an
        # off-diagonal of order sqrt(ulp) ~ 1e-8
        for phi in np.linspace(-np.pi, np.pi, 9):
            u = build_u_z(4, np.exp(1j * phi))
            off = np.abs(u - np.diag(np.diagonal(u))).max()
            assert off <= 1e-7

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            build_u_z(3, 1.0 + 1e-6)


def build_u_z_scalar(n, z):
    """The per-point construction the array core replaces (reference only)."""
    z = complex(z)
    mod = abs(z)
    c = math.sqrt(min(mod, 1.0))
    s = math.sqrt(max(1.0 - mod, 0.0))
    phase = z / mod if mod > 0.0 else 1.0
    u = np.eye(n, dtype=np.complex128)
    u[0, 0] = c * phase
    u[0, 1] = -s
    u[1, 0] = s * phase
    u[1, 1] = c
    return u


disk_points = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -1j]),
    st.builds(
        lambda r, phi: r * complex(math.cos(phi), math.sin(phi)),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
    ),
    st.builds(lambda phi: complex(math.cos(phi), math.sin(phi)), st.floats(-math.pi, math.pi)),
    st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
)


class TestBuildUZMany:
    @given(st.integers(2, 8), st.lists(disk_points, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_slices_equal_the_scalar_construction(self, n, zs):
        # exact equality: np.abs(complex) or a reciprocal multiply in place
        # of abs(z) and z / abs(z) moves last bits (zeros may differ in sign)
        got = _build_u_z_many(n, np.array(zs))
        assert got.shape == (len(zs), n, n)
        for u, z in zip(got, zs):
            np.testing.assert_array_equal(u, build_u_z_scalar(n, z))
            np.testing.assert_array_equal(build_u_z(n, z), u)


class TestDecomposeSU2:
    @staticmethod
    def su2(z, w):
        return np.array([[z, -np.conj(w)], [w, np.conj(z)]])

    def test_diagonal_case(self):
        z = np.exp(0.8j)
        d = decompose_su2(z, 0.0)
        assert d.alpha == 0.0
        np.testing.assert_allclose(d.diag_phases, [0.8, -0.8], atol=1e-12)
        np.testing.assert_allclose(build_extremal(d), self.su2(z, 0.0), atol=1e-12)

    def test_antidiagonal_case(self):
        w = np.exp(-1.1j)
        d = decompose_su2(0.0, w)
        assert d.alpha == pytest.approx(np.pi)
        np.testing.assert_allclose(d.diag_phases, [np.pi, 0.0], atol=1e-12)
        np.testing.assert_allclose(d.v, np.array([1.0, w]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(build_extremal(d), self.su2(0.0, w), atol=1e-12)

    def test_balanced_case(self):
        r = 1 / np.sqrt(2)
        d = decompose_su2(r, r)
        want = np.array([[r, -r], [r, r]])
        np.testing.assert_allclose(build_extremal(d), want, atol=1e-12)

    def test_generic_cases_rebuild(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = complex(*rng.standard_normal(2))
            w = complex(*rng.standard_normal(2))
            scale = np.sqrt(abs(z) ** 2 + abs(w) ** 2)
            z, w = z / scale, w / scale
            d = decompose_su2(z, w)
            assert not d.violations()
            np.testing.assert_allclose(build_extremal(d), self.su2(z, w), atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            decompose_su2(1.0, 1.0)

    # regression: decompose_su2(nan, 0) returned NaN diagonal phases, and
    # decompose_su2(0.6, nan) alpha = nan
    @given(
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        arg=st.sampled_from(["z", "w"]),
        imaginary=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_finite(self, bad, arg, imaginary):
        args = {"z": 0.6, "w": 0.8, arg: complex(0.0, bad) if imaginary else bad}
        with pytest.raises(ValueError, match=f"^{arg} must be finite, got "):
            decompose_su2(**args)


class TestRecognizeExtremal:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for n in (3, 4, 5, 6):
            for _ in range(30):
                alpha = float(rng.uniform(1e-3, np.pi * 0.999)) * (
                    1 if rng.uniform() < 0.5 else -1
                )
                d = random_extremal(n, seed=int(rng.integers(2**31)), alpha=alpha)
                u = build_extremal(d)
                rec = recognize_extremal(u, 1e-9)
                assert rec is not None
                assert abs(wrap_angle(rec.alpha - d.alpha)) <= 1e-9
                got = np.outer(rec.v, rec.v.conj())
                want = np.outer(d.v, d.v.conj())
                assert np.abs(got - want).max() <= 1e-9
                assert not rec.violations()

    def test_hard_small_angle(self):
        for n, alpha in ((3, 1e-3), (6, 1e-3), (5, 1e-4), (5, 1e-5)):
            d = random_extremal(n, seed=5, alpha=alpha)
            rec = recognize_extremal(build_extremal(d), 1e-9)
            assert rec is not None
            assert abs(rec.alpha - alpha) <= 1e-9

    def test_identity_gives_degenerate_data(self):
        rec = recognize_extremal(np.eye(5), 1e-9)
        assert rec.alpha == 0.0
        np.testing.assert_allclose(np.abs(rec.v), 1 / np.sqrt(5), atol=1e-15)
        np.testing.assert_allclose(build_extremal(rec), np.eye(5), atol=1e-12)

    def test_interior_samples_are_rejected(self):
        for seed in range(30):
            u = haar_special_unitary(3, seed)
            assert recognize_extremal(u, 1e-9) is None

    def test_gauge_leading_component_real(self):
        d = random_extremal(4, seed=17, alpha=2.0)
        rec = recognize_extremal(build_extremal(d), 1e-9)
        assert rec.v[0].imag == pytest.approx(0.0, abs=1e-15)
        assert rec.v[0].real > 0

    def test_n2_round_trip_with_mirror(self):
        for alpha in (0.4, 1.9, np.pi, -0.9, -2.4):
            d = random_extremal(2, seed=8, alpha=alpha)
            u = build_extremal(d)
            rec = recognize_extremal(u, 1e-9)
            assert rec is not None
            assert rec.alpha == pytest.approx(abs(alpha), abs=1e-9)
            np.testing.assert_allclose(build_extremal(rec), u, atol=1e-10)

    def test_rebuild_matches_original(self):
        d = random_extremal(5, seed=33, alpha=-2.2)
        u = build_extremal(d)
        rec = recognize_extremal(u, 1e-9)
        np.testing.assert_allclose(build_extremal(rec), u, atol=1e-9)

    def test_n2_unit_product_gives_degenerate_data(self):
        u = np.diag(np.exp([0.3j, -0.3j]))
        rec = recognize_extremal(u, 1e-9)
        assert rec.alpha == 0.0
        np.testing.assert_array_equal(rec.v, np.full(2, 1 / np.sqrt(2)))
        np.testing.assert_allclose(rec.diag_phases, [0.3, -0.3], rtol=1e-15)
        np.testing.assert_allclose(build_extremal(rec), u, atol=1e-15)

    def test_zero_diagonal_entry_is_not_recognized(self):
        # the off-diagonal ratios divide by the diagonal, so there is no
        # closed form; the cyclic permutation is in SU(3) with product 0
        cyclic = np.roll(np.eye(3), 1, axis=0)
        assert is_special_unitary(cyclic, 1e-12)
        assert recognize_extremal(cyclic, 1e-9) is None

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            recognize_extremal(np.diag([2.0, 0.5]), 1e-9)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            recognize_extremal(np.eye(1), 1e-9)

    def test_never_inverts_theta(self, monkeypatch):
        calls = []
        invert = boundary_module._invert_theta

        def counting(n, targets):
            calls.append(n)
            return invert(n, targets)

        monkeypatch.setattr(boundary_module, "_invert_theta", counting)
        for n, alpha in ((3, 1.2), (5, -0.4), (6, 0.0)):
            rec = recognize_extremal(build_extremal(random_extremal(n, seed=3, alpha=alpha)))
            assert rec is not None
        assert recognize_extremal(haar_special_unitary(4, 1)) is None
        assert calls == []

    def test_half_turn(self):
        # reported as +pi, also when built from -pi
        for n, alpha in ((4, np.pi), (4, -np.pi), (3, np.pi - 1e-7), (30, np.pi - 1e-7)):
            d = random_extremal(n, seed=1, alpha=alpha)
            rec = recognize_extremal(build_extremal(d), 1e-9)
            assert rec is not None
            assert rec.alpha == abs(alpha)

    @given(
        st.integers(3, 30),
        st.integers(0, 2**32 - 1),
        st.one_of(
            st.floats(-12.0, np.log10(np.pi)).map(lambda e: 10.0**e),
            st.floats(0.0, 1e-6).map(lambda h: np.pi - h),
            st.floats(0.0, 1e-15).map(lambda h: np.pi - h),
        ),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_over_whole_domain(self, n, seed, magnitude, sign):
        tol = 1e-9
        d = random_extremal(n, seed=seed, alpha=sign * min(magnitude, np.pi))
        u = build_extremal(d)
        rec = recognize_extremal(u, tol)
        assert rec is not None
        assert np.abs(build_extremal(rec) - u).max() <= tol
        off = np.abs(u - np.diag(np.diagonal(u))).max()
        if off <= tol:
            assert rec.alpha == 0.0
        else:
            assert abs(wrap_angle(rec.alpha - d.alpha)) <= 1e-9
            got = np.outer(rec.v, rec.v.conj())
            assert np.abs(got - np.outer(d.v, d.v.conj())).max() <= 1e-9
