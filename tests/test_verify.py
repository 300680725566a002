"""Verification-run tests at desk scale (the acceptance module runs the full
spec-scale workloads)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagprod.verify as verify_module
from diagprod import (
    Membership,
    OptimizerConfig,
    PreimageConvergenceError,
    alpha_of_theta,
    constrained_max_numeric,
    diag_product,
    gamma,
    is_special_unitary,
    monte_carlo_containment,
    preimage,
    haar_special_unitary,
    recognize_extremal,
    so_interval,
    su_region_contains,
    verify_preimage,
    verify_unit_disk,
    verify_so_interval,
)


class TestMonteCarloContainment:
    def test_su3_containment(self):
        rep = monte_carlo_containment(3, 3000, seed=42)
        assert rep.failures == 0
        assert rep.trials == 3000
        assert rep.worst_margin > 0

    def test_su1_products_are_exactly_one(self):
        rep = monte_carlo_containment(1, 200, seed=1)
        assert rep.failures == 0
        assert rep.worst_margin == pytest.approx(1e-9)

    def test_su2_products_stay_on_segment(self):
        rep = monte_carlo_containment(2, 3000, seed=7)
        assert rep.failures == 0

    def test_deterministic_reports(self):
        a = monte_carlo_containment(4, 500, seed=9)
        b = monte_carlo_containment(4, 500, seed=9)
        assert a.to_dict() == b.to_dict()
        c = monte_carlo_containment(4, 500, seed=10)
        assert c.to_dict() != a.to_dict()

    def test_failures_have_detail_records(self):
        rep = monte_carlo_containment(5, 300, seed=3)
        assert rep.failures <= rep.trials
        assert len(rep.details) >= 1  # at least the worst-sample record

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_containment(0, 10)
        with pytest.raises(ValueError):
            monte_carlo_containment(3, 0)


class TestPreimage:
    def test_unit_target_short_circuits(self):
        u = preimage(3, 1.0)
        assert abs(diag_product(u) - 1.0) <= 1e-12

    def test_boundary_target(self):
        z = gamma(4, 0.9)
        u = preimage(4, z)
        assert abs(diag_product(u) - z) <= 1e-9
        assert is_special_unitary(u, 1e-10)

    def test_origin_target(self):
        u = preimage(3, 0.0)
        assert abs(diag_product(u)) <= 1e-9

    def test_random_interior_targets(self):
        for n in (3, 4, 5):
            rep = verify_preimage(n, 10, seed=3, tol=1e-8)
            assert rep.failures == 0
            assert rep.worst_margin >= 0

    def test_cusp_adjacent_targets(self):
        # near the cusp at 1 the map degenerates: alpha is poorly determined
        # and the boundary fold is close, so Newton needs the cusp seed there
        from diagprod import radius_of_theta, so_interval

        for n in (3, 4, 5):
            targets = [0.999, 0.9999, so_interval(n)[0], so_interval(n)[0] + 1e-6]
            for th in (1e-4, 1e-2):
                targets.append((radius_of_theta(n, th).r - 1e-5) * np.exp(1j * th))
            for z in targets:
                u = preimage(n, z, tol=1e-8)
                assert abs(diag_product(u) - z) <= 1e-8, (n, z)
                assert is_special_unitary(u, 1e-10)

    def test_near_real_cusp_target(self):
        u = preimage(4, 0.999 + 1e-7j, tol=1e-8)
        assert abs(diag_product(u) - (0.999 + 1e-7j)) <= 1e-8

    def test_rejects_outside_target(self):
        with pytest.raises(ValueError):
            preimage(3, 2.0)
        with pytest.raises(ValueError):
            preimage(3, 0.2 + 0.1j)  # just outside the thin n=3 region

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            preimage(2, 0.5)


def interior_points_one_by_one(n, count, seed, tol=1e-9):
    """Reference rejection sampler: one (x, y) draw and one scalar oracle
    call per candidate."""
    rng = np.random.default_rng(verify_module.derive_seed(seed, 0x1A7E5107))
    points = []
    while len(points) < count:
        x, y = rng.uniform(-1.0, 1.0, 2)
        z = complex(x, y)
        if abs(z) <= 1.0 and su_region_contains(n, z, tol).status is Membership.INSIDE:
            points.append(z)
    return points


class TestInteriorPoints:
    @pytest.mark.parametrize("n, count, seed", [(3, 1, 0), (3, 20, 5), (4, 30, 1), (8, 45, 2)])
    def test_blocks_pick_the_scalar_points(self, n, count, seed):
        got = verify_module._interior_points(n, count, seed)
        assert got == interior_points_one_by_one(n, count, seed)


def _assert_solves(n, z):
    u = preimage(n, z, tol=1e-8)
    assert abs(diag_product(u) - z) <= 1e-8, (n, z)
    assert is_special_unitary(u, 1e-10), (n, z)


_LOG_ALPHA = st.floats(-4.0, float(np.log10(np.pi))).map(lambda e: 10.0**e)


class TestPreimageDomain:
    @given(
        st.integers(3, 20),
        st.tuples(st.sampled_from((-1.0, 1.0)), _LOG_ALPHA).map(lambda p: p[0] * p[1]),
        st.floats(-7.0, -1.0).map(lambda e: 10.0**e),
    )
    @example(3, -0.0164, 4.6e-3)  # the benchmark's fixed near-cusp target
    @settings(max_examples=300, deadline=None)
    def test_targets_below_the_boundary(self, n, alpha, depth):
        _assert_solves(n, (1.0 - depth) * gamma(n, alpha))

    @given(st.integers(3, 20), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_real_targets(self, n, frac):
        lo, hi = so_interval(n)
        _assert_solves(n, complex(lo + frac * (hi - lo), 0.0))

    def test_origin(self):
        for n in range(3, 21):
            _assert_solves(n, 0.0)


class TestPreimageStages:
    def test_error_names_each_stage(self, monkeypatch):
        newton = verify_module._newton
        monkeypatch.setattr(
            verify_module, "_newton", lambda n, z, a, q: newton(n, z, a, q, max_iter=0)
        )
        with pytest.raises(PreimageConvergenceError) as info:
            preimage(4, 0.2 + 0.1j)
        err = info.value
        names = [name for name, _ in err.stages]
        assert sorted(names[:2]) == ["boundary seed", "cusp seed"]
        assert names[2:] == ["grid"]
        assert err.best_residual == min(res for _, res in err.stages)
        for name, res in err.stages:
            assert f"{name} {res:.3e}" in str(err)


class TestConstrainedMax:
    def test_zero_angle_reaches_one(self):
        rep = constrained_max_numeric(3, 0.0, seed=0)
        best = 1.0 - rep.worst_margin
        assert abs(best - 1.0) <= 1e-6
        assert abs(diag_product(rep.best_matrix) - 1.0) <= 1e-5

    def test_half_turn_value(self):
        rep = constrained_max_numeric(3, np.pi, seed=0)
        target = 1.0 / 27.0
        best = target - rep.worst_margin
        assert abs(best - target) <= 1e-4

    def test_generic_angle_with_recognition(self):
        rep = constrained_max_numeric(4, 2.0, seed=0)
        target = abs(gamma(4, alpha_of_theta(4, 2.0)))
        best = target - rep.worst_margin
        assert abs(best - target) <= 1e-4
        assert best <= target + 1e-6
        rec = recognize_extremal(rep.best_matrix, 1e-4)
        assert rec is not None
        rebuilt = diag_product(rep.best_matrix)
        from diagprod import build_extremal

        assert abs(diag_product(build_extremal(rec)) - rebuilt) <= 1e-6

    def test_report_carries_restarts(self):
        cfg = OptimizerConfig(restarts=3)
        rep = constrained_max_numeric(3, 1.0, config=cfg, seed=5)
        assert rep.trials == 3
        assert len(rep.details) == 3
        assert rep.failures == 0

    def test_deterministic(self):
        a = constrained_max_numeric(3, 1.2, config=OptimizerConfig(restarts=2), seed=4)
        b = constrained_max_numeric(3, 1.2, config=OptimizerConfig(restarts=2), seed=4)
        assert a.to_dict() == b.to_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            constrained_max_numeric(3, 0.5, config=OptimizerConfig(restarts=0))


_COUNT_FIELDS = ("restarts", "max_iterations")
_FLOAT_FIELDS = (
    "step_init",
    "constraint_penalty_init",
    "penalty_growth",
    "tol_value",
    "tol_constraint",
)
_INVALID = st.sampled_from((0, -1, 0.0, -0.5, -math.inf, math.nan, math.inf, True, None, "1"))


class TestOptimizerConfigDomain:
    # regression: when only "> 0" was checked, step_init=inf never returned,
    # an infinite penalty raised LinAlgError and restarts=2.5 a TypeError
    # deep in the loop
    @given(
        st.one_of(
            st.tuples(
                st.sampled_from(_COUNT_FIELDS),
                st.one_of(_INVALID, st.sampled_from((2.5, 3.0, 1e300))),
            ),
            st.tuples(st.sampled_from(_FLOAT_FIELDS), _INVALID),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_invalid_config_raises_at_once(self, case):
        name, value = case
        cfg = OptimizerConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            cfg.validate()
        with pytest.raises(ValueError, match=name):
            constrained_max_numeric(3, 0.5, config=cfg)

    @given(
        st.integers(1, 3),
        st.integers(1, 40),
        st.floats(1e-3, 10.0),
        st.floats(1e-2, 1e4),
        st.floats(0.5, 100.0),
        st.floats(1e-15, 1e-3),
        st.floats(1e-12, 1e-2),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_valid_config_runs(self, restarts, iterations, step, penalty, growth, tol_v, tol_c, s):
        cfg = OptimizerConfig(restarts, iterations, step, penalty, growth, tol_v, tol_c)
        rep = constrained_max_numeric(3, 0.5, config=cfg, seed=s)
        assert rep.trials == restarts and len(rep.details) == restarts
        assert np.isfinite(rep.worst_margin)
        assert is_special_unitary(rep.best_matrix, 1e-10)


_FD_STEP = 1e-6
_COS_H = math.cos(_FD_STEP)
_SIN_H = math.sin(_FD_STEP)


def _penalized(w: complex, p: complex, mu: float) -> float:
    t = w * p
    return t.real - mu * t.imag * t.imag


def fd_gradient(u, w, mu, pairs):
    """Reference: central finite differences of the penalized objective along
    the rotation and imaginary mixing generators of each pair; each move
    touches two rows, so only two diagonal entries change."""
    d = np.diagonal(u)
    grad = np.empty(2 * len(pairs))
    for idx, (j, k) in enumerate(pairs):
        mask = np.ones(len(d), bool)
        mask[j] = False
        mask[k] = False
        rest = complex(np.prod(d[mask]))
        ujj, ukk = complex(u[j, j]), complex(u[k, k])
        ujk, ukj = complex(u[j, k]), complex(u[k, j])
        # rotation generator
        p_plus = rest * (_COS_H * ujj - _SIN_H * ukj) * (_SIN_H * ujk + _COS_H * ukk)
        p_minus = rest * (_COS_H * ujj + _SIN_H * ukj) * (-_SIN_H * ujk + _COS_H * ukk)
        grad[2 * idx] = (_penalized(w, p_plus, mu) - _penalized(w, p_minus, mu)) / (
            2.0 * _FD_STEP
        )
        # imaginary mixing generator
        p_plus = rest * (_COS_H * ujj + 1j * _SIN_H * ukj) * (
            1j * _SIN_H * ujk + _COS_H * ukk
        )
        p_minus = rest * (_COS_H * ujj - 1j * _SIN_H * ukj) * (
            -1j * _SIN_H * ujk + _COS_H * ukk
        )
        grad[2 * idx + 1] = (_penalized(w, p_plus, mu) - _penalized(w, p_minus, mu)) / (
            2.0 * _FD_STEP
        )
    return grad


class TestExactGradient:
    @given(
        st.integers(3, 8),
        st.integers(0, 2**32),
        st.floats(-np.pi, np.pi),
        st.floats(0.0, 3.0).map(lambda e: 10.0**e),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_central_differences(self, n, seed, theta, mu):
        u = haar_special_unitary(n, seed)
        w = complex(np.exp(-1j * theta))
        t = w * diag_product(u)
        a, gnorm = verify_module._tangent(u[None], w * (1.0 + 2j * mu * t.imag))
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        exact = np.array([g for j, k in pairs for g in (-a[0, j, k].real, a[0, j, k].imag)])
        fd = fd_gradient(u, w, mu, pairs)
        tol = 1e-6 * (1.0 + np.linalg.norm(fd))
        assert np.abs(exact - fd).max() <= tol
        assert abs(gnorm[0] - np.linalg.norm(exact)) <= 1e-12 * (1.0 + gnorm[0])
        assert np.abs(a[0] + a[0].conj().T).max() == 0.0
        assert np.abs(np.diagonal(a[0])).max() == 0.0


class TestConstrainedMaxDomain:
    # regression: the penalty ascent's own value overshoots the maximum by up
    # to 2e-5 here; the reported value comes from a matrix on the ray
    @given(
        st.sampled_from((3, 4)),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-3.0, -1.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_near_cusp_value_on_the_ray(self, n, sign, magnitude, seed):
        theta = sign * magnitude
        rep = constrained_max_numeric(n, theta, seed=seed)
        target = abs(gamma(n, alpha_of_theta(n, theta)))
        best = target - rep.worst_margin
        assert best <= target + 1e-10
        assert abs(best - target) <= 1e-4
        on_ray = (np.exp(-1j * theta) * diag_product(rep.best_matrix)).real
        assert abs(best - on_ray) <= 1e-12
        assert is_special_unitary(rep.best_matrix, 1e-10)

    @given(st.integers(3, 5), st.floats(-np.pi, np.pi), st.integers(0, 2**32), st.integers(1, 7))
    @settings(max_examples=20, deadline=None)
    def test_restarts_do_not_depend_on_each_other(self, n, theta, seed, k):
        def records(restarts):
            rep = constrained_max_numeric(n, theta, OptimizerConfig(restarts=restarts), seed)
            by_restart = {}
            for rec in rep.details:
                restart, _, feasible = rec.input.split()
                by_restart[restart] = (feasible, rec.measured, rec.error)
            return by_restart

        few, all_ = records(k), records(8)
        assert len(few) == k
        for restart, (feasible, measured, error) in few.items():
            assert all_[restart][0] == feasible
            assert abs(all_[restart][1] - measured) <= 1e-12
            assert abs(all_[restart][2] - error) <= 1e-12


class TestProposition1:
    def test_desk_scale_run(self):
        rep = verify_unit_disk(4, 2000, seed=5, grid=11)
        assert rep.failures == 0
        assert rep.worst_margin > 0

    def test_unit_circle_targets_build_diagonally(self):
        from diagprod import build_u_z

        # exactly representable unit-modulus targets give exactly diagonal
        # output; generic e^{i phi} floats sit one ulp inside the circle, so
        # sqrt(1 - |z|) leaves an off-diagonal no larger than ~1e-8
        for z in (1.0, -1.0, 1j, -1j):
            u = build_u_z(4, z)
            assert np.abs(u - np.diag(np.diagonal(u))).max() == 0
        for phi in np.linspace(-np.pi, np.pi, 7):
            u = build_u_z(4, np.exp(1j * phi))
            assert np.abs(u - np.diag(np.diagonal(u))).max() <= 1e-7

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_unit_disk(1, 10)


class TestSOInterval:
    def test_desk_scale_runs(self):
        for n in (2, 3, 5):
            rep = verify_so_interval(n, sweep=2000, trials=1000, seed=5)
            assert rep.failures == 0

    def test_even_sign_diagonal_attains_one(self):
        assert diag_product(np.diag([-1.0, -1.0, 1.0])) == 1.0

    def test_reflection_attains_lower_endpoint(self):
        u_vec = np.full(3, 1 / np.sqrt(3))
        sigma = np.diag([-1.0, 1.0, 1.0])
        m = (np.eye(3) - 2 * np.outer(u_vec, u_vec)) @ sigma
        assert diag_product(m) == pytest.approx(-1 / 27, abs=1e-12)

    def test_deterministic(self):
        a = verify_so_interval(4, sweep=500, trials=200, seed=2)
        b = verify_so_interval(4, sweep=500, trials=200, seed=2)
        assert a.to_dict() == b.to_dict()


class TestReportShape:
    def test_to_dict_excludes_elapsed(self):
        rep = monte_carlo_containment(2, 50, seed=0)
        d = rep.to_dict()
        assert "elapsed" not in d
        assert rep.elapsed > 0
        assert set(d) == {
            "kind",
            "n",
            "trials",
            "failures",
            "worst_margin",
            "seed",
            "details",
        }

    def test_best_matrix_serialization(self):
        rep = constrained_max_numeric(3, 0.7, config=OptimizerConfig(restarts=1), seed=1)
        d = rep.to_dict()
        assert "best_matrix" in d
        re_part = np.array(d["best_matrix"]["re"])
        im_part = np.array(d["best_matrix"]["im"])
        m = re_part + 1j * im_part
        assert is_special_unitary(m, 1e-8)


def _identity_stack_with_nan(n, seed, count, start=0):
    """Sampler stand-in: identity matrices, except a NaN matrix at trial 0."""
    mats = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    if start == 0:
        mats[0] = np.nan
    return mats


class TestNonFiniteProducts:
    @pytest.mark.parametrize(
        "sampler, run",
        [
            ("_haar_special_unitary_batch", lambda: monte_carlo_containment(3, 20, seed=1)),
            ("_haar_unitary_batch", lambda: verify_unit_disk(3, 20, seed=1, grid=5)),
            (
                "_haar_special_orthogonal_batch",
                lambda: verify_so_interval(3, sweep=100, trials=20, seed=1),
            ),
        ],
    )
    def test_nan_sample_counts_as_failure(self, monkeypatch, sampler, run):
        monkeypatch.setattr(verify_module, sampler, _identity_stack_with_nan)
        rep = run()
        assert rep.failures >= 1
        assert not rep.passed
        assert rep.worst_margin == -np.inf


class TestChunkIndependence:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: monte_carlo_containment(4, 40, seed=11),
            lambda: verify_unit_disk(3, 40, seed=11, grid=5),
            lambda: verify_so_interval(4, sweep=100, trials=40, seed=11),
        ],
    )
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, run):
        whole = repr(run().to_dict())
        monkeypatch.setattr(verify_module, "_CHUNK", 7)
        assert repr(run().to_dict()) == whole


class TestDetailText:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: monte_carlo_containment(3, 100, seed=0),
            lambda: verify_unit_disk(3, 20, seed=1, grid=5),
            lambda: verify_so_interval(3, sweep=100, trials=20, seed=1),
            lambda: verify_preimage(3, 3, seed=1),
        ],
    )
    def test_inputs_do_not_depend_on_numpy_scalar_repr(self, monkeypatch, run):
        # one NaN product makes the Monte-Carlo report carry a failure record
        monkeypatch.setattr(
            verify_module, "_haar_special_unitary_batch", _identity_stack_with_nan
        )
        for record in run().details:
            assert "np." not in record.input
