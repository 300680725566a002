"""Verification-run tests at desk scale (the acceptance module runs the full
spec-scale workloads)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagprod.boundary as boundary_module
import diagprod.verify as verify_module
from diagprod import (
    Membership,
    OptimizerConfig,
    PreimageConvergenceError,
    alpha_of_theta,
    build_u_theta,
    build_u_z,
    constrained_max_numeric,
    diag_product,
    gamma,
    is_special_unitary,
    monte_carlo_containment,
    preimage,
    haar_special_unitary,
    radius_of_theta,
    recognize_extremal,
    so_interval,
    su_region_contains,
    verify_preimage,
    verify_unit_disk,
    verify_so_interval,
)
from diagprod.constructors import _build_u_z_many, _homotopy_matrices


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

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 7), (5, 1), (12, 2)])
    def test_blocks_follow_the_acceptance_rate(self, n, seed, monkeypatch):
        # regression: fixed blocks of 256 pairs took 38 classifier calls for
        # 300 points at n = 3, where about 4% of the pairs are accepted
        calls = []
        classify = verify_module._classify_su_many

        def counted(*args):
            calls.append(len(args[1]))
            return classify(*args)

        monkeypatch.setattr(verify_module, "_classify_su_many", counted)
        got = verify_module._interior_points(n, 300, seed)
        monkeypatch.undo()
        assert len(calls) <= 3, calls
        assert got[:40] == interior_points_one_by_one(n, 40, seed)


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


_SIZES = st.one_of(st.integers(3, 30), st.sampled_from((40, 60, 100, 150, 200)))
_SIGN = st.sampled_from((-1.0, 1.0))


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _gridless_targets(draw, n):
    """Targets that the three closed-form seeds must cover with no grid: the
    band below the boundary, the half-turn, the SO interval, the origin and
    small near-real points."""
    kind = draw(st.sampled_from(("band", "half-turn", "so", "origin", "small")))
    if kind == "band":
        depth = draw(_log_uniform(-7.0, -1.0))
        return (1.0 - depth) * gamma(n, draw(_SIGN) * draw(_LOG_ALPHA))
    if kind == "half-turn":
        depth = draw(_log_uniform(-7.0, -1.0))
        return (1.0 - depth) * gamma(n, draw(_SIGN) * (np.pi - draw(_log_uniform(-12.0, -1.0))))
    if kind == "so":
        lo, hi = so_interval(n)
        return complex(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), 0.0)
    if kind == "origin":
        return 0j
    size = draw(_log_uniform(-12.0, -2.0))
    return complex(draw(_SIGN) * size, size * draw(st.floats(-1e-3, 1e-3)))


class TestPreimageCore:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_gridless_domain(self, data):
        n = data.draw(_SIZES)
        z = data.draw(_gridless_targets(n))
        u = preimage(n, z, tol=1e-9)
        assert abs(diag_product(u) - z) <= 1e-10, (n, z)
        assert is_special_unitary(u, 1e-10), (n, z)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_entry_equals_the_target_alone(self, data):
        n = data.draw(_SIZES)
        outside = st.builds(lambda a, s: (1.0 + s) * gamma(n, a), st.floats(-3.0, 3.0),
                            _log_uniform(-12.0, -1.0))
        zs = data.draw(st.lists(st.one_of(_gridless_targets(n), outside), min_size=1, max_size=6))
        slot = data.draw(st.integers(0, len(zs) - 1))
        batch = verify_module._preimage_many(n, np.array(zs), 1e-9)
        alone = verify_module._preimage_many(n, np.array([zs[slot]]), 1e-9)
        for got, want in zip(batch, alone):
            assert got[slot] == want[0]

    @given(
        _SIZES,
        st.floats(-np.pi, np.pi),
        st.tuples(_SIGN, _log_uniform(-12.0, -1.0)).map(lambda p: p[0] * p[1]),
        st.sampled_from((1e-8, 1e-9)),
    )
    @example(3, 0.0, 0.0, 1e-9)
    @settings(max_examples=200, deadline=None)
    def test_value_error_exactly_outside(self, n, alpha, scale, tol):
        z = (1.0 + scale) * gamma(n, alpha)
        outside = su_region_contains(n, z, tol).status is Membership.OUTSIDE
        try:
            preimage(n, z, tol)
            raised = False
        except ValueError:
            raised = True
        except PreimageConvergenceError:
            raised = False
        assert raised == outside, (n, z)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 0.0)):
            with pytest.raises(ValueError):
                preimage(4, bad)

    def test_tiny_phase_targets(self):
        # regression: the cusp seed divided by the squared phase, which
        # underflows to 0 (ZeroDivisionError) or leaves a non-finite cubic
        for z in (0.5 + 1e-170j, 0.9 - 1e-160j, -0.001 + 1e-200j):
            u = preimage(4, z, tol=1e-9)
            assert abs(diag_product(u) - z) <= 1e-10, z
            assert is_special_unitary(u, 1e-10), z

    def test_huge_target_is_outside(self):
        # regression: the seeds of a target whose modulus overflows were
        # built too, and overflowed with a RuntimeWarning
        for z in (1.5e308 + 1.5e308j, -1e308):
            with pytest.raises(ValueError, match="outside"):
                preimage(4, z)

    def test_one_theta_inversion_per_call(self, monkeypatch):
        # regression: the membership check and the boundary seed each
        # inverted theta at the polar angle of the target
        calls = []
        invert = boundary_module._invert_theta

        def counting(n, targets):
            calls.append(n)
            return invert(n, targets)

        monkeypatch.setattr(boundary_module, "_invert_theta", counting)
        targets = [(3, 0.1 + 0.02j), (4, 0.2 + 0.1j), (5, 0.0), (4, 0.999 + 1e-7j), (6, gamma(6, 2.0))]
        for n, z in targets:
            preimage(n, z)
        with pytest.raises(ValueError):
            preimage(3, 2.0)
        assert len(calls) == len(targets) + 1

    @pytest.mark.parametrize("n, seed", [(3, 0), (5, 1), (8, 2)])
    def test_core_residual_is_the_rebuilt_miss(self, n, seed):
        # regression: the core returned the closed-form |H - z| of a solved
        # target, which differs from the rebuilt matrix's |product - z| in
        # its last bits, so the two preimage paths measured two residuals
        zs = verify_module._interior_points(n, 100, seed)
        residuals = verify_module._preimage_many(n, np.array(zs), 1e-9)[2]
        for z, got in zip(zs, residuals.tolist()):
            assert got == abs(diag_product(preimage(n, z)) - z), (n, z)


class TestPreimageStages:
    def test_error_names_each_stage(self, monkeypatch):
        descend = verify_module._descend
        monkeypatch.setattr(
            verify_module, "_descend", lambda n, z, a, q: descend(n, z, a, q, max_iter=0)
        )
        with pytest.raises(PreimageConvergenceError) as info:
            preimage(4, 0.2 + 0.1j)
        err = info.value
        names = [name for name, _ in err.stages]
        assert sorted(names[:2]) == ["boundary seed", "cusp seed"]
        assert names[2:] == ["origin seed"]
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

    # regression: a report passed whatever its gap to the analytic maximum;
    # after one iteration the best restart lies 0.42 below it at n = 20 and
    # 4.3e-3 below at n = 4, with every restart feasible
    @pytest.mark.parametrize("n, theta", [(20, 0.4), (4, 0.7)])
    def test_best_value_short_of_the_maximum_fails(self, n, theta):
        rep = constrained_max_numeric(n, theta, OptimizerConfig(8, 1))
        infeasible = sum(r.input.endswith("feasible=False") for r in rep.details)
        assert rep.worst_margin > 1e-4 and len(rep.details) == 8
        assert rep.failures == infeasible + 1 and not rep.passed

    # regression: a best value above the analytic maximum passed
    def test_best_value_above_the_maximum_fails(self, monkeypatch):
        radius = verify_module._radius_many

        def lowered(n, thetas):
            alpha, r = radius(n, thetas)
            return alpha, r - 1e-3

        monkeypatch.setattr(verify_module, "_radius_many", lowered)
        rep = constrained_max_numeric(4, 0.7)
        assert rep.worst_margin == pytest.approx(-1e-3, abs=1e-9)
        assert rep.failures == 1 and not rep.passed


_COUNT_FIELDS = ("restarts", "max_iterations")
_INVALID = st.sampled_from((0, -1, 0.0, -0.5, -math.inf, math.nan, math.inf, True, None, "1"))


class TestOptimizerConfigDomain:
    # regression: when only "> 0" was checked, restarts=2.5 raised a
    # TypeError deep in the loop
    @given(
        st.tuples(
            st.sampled_from(_COUNT_FIELDS),
            st.one_of(_INVALID, st.sampled_from((2.5, 3.0, 1e300))),
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

    @given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_valid_config_runs(self, restarts, iterations, s):
        cfg = OptimizerConfig(restarts, iterations)
        rep = constrained_max_numeric(3, 0.5, config=cfg, seed=s)
        assert rep.trials == restarts and len(rep.details) == restarts
        assert np.isfinite(rep.worst_margin)
        assert is_special_unitary(rep.best_matrix, 1e-10)

    def test_numpy_counts_match_python_ints(self):
        # regression: restarts=np.int64(2) reported trials as a numpy integer,
        # which json.dumps rejects
        ints = constrained_max_numeric(3, 0.5, OptimizerConfig(2, 5), seed=1)
        numpy_ints = constrained_max_numeric(3, 0.5, OptimizerConfig(np.int64(2), np.int32(5)), seed=1)
        assert json.dumps(numpy_ints.to_dict()) == json.dumps(ints.to_dict())


_FD_STEP = 1e-6
_COS_H = math.cos(_FD_STEP)
_SIN_H = math.sin(_FD_STEP)


def fd_gradient(u, w, pairs, f=lambda z: z):
    """Reference: central finite differences of f(w p), p the diagonal
    product, along the rotation and imaginary mixing generators of each pair
    (for the identity f, the real parts are those of Re(w p), the imaginary
    parts those of Im(w p)); each move touches two rows, so only two diagonal
    entries change."""
    d = np.diagonal(u)
    grad = np.empty(2 * len(pairs), np.complex128)
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
        grad[2 * idx] = (f(w * p_plus) - f(w * p_minus)) / (2.0 * _FD_STEP)
        # imaginary mixing generator
        p_plus = rest * (_COS_H * ujj + 1j * _SIN_H * ukj) * (
            1j * _SIN_H * ujk + _COS_H * ukk
        )
        p_minus = rest * (_COS_H * ujj - 1j * _SIN_H * ukj) * (
            -1j * _SIN_H * ujk + _COS_H * ukk
        )
        grad[2 * idx + 1] = (f(w * p_plus) - f(w * p_minus)) / (2.0 * _FD_STEP)
    return grad


class TestExactGradient:
    @given(
        st.integers(3, 8),
        st.integers(0, 2**32),
        st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_central_differences(self, n, seed, theta):
        # at t = 1 the log tangent gives a_f, the gradient of Re(w p), and
        # a_g, that of Im(w p); at t = w p those of log|w p| and arg(w p),
        # differenced as log(w p / t), which stays off the branch cut
        u = haar_special_unitary(n, seed)
        w = complex(np.exp(-1j * theta))
        t = w * diag_product(u)
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        fd, fd_log = fd_gradient(u, w, pairs), fd_gradient(u, w, pairs, lambda z: np.log(z / t))
        tangent = verify_module._log_tangent
        gens = [g for at in (1.0, t) for g in tangent(u[None], w, np.array([at]))]
        for a, want in zip(gens, (fd.real, fd.imag, fd_log.real, fd_log.imag)):
            exact = np.array([g for j, k in pairs for g in (-a[0, j, k].real, a[0, j, k].imag)])
            assert np.abs(exact - want).max() <= 1e-6 * (1.0 + np.linalg.norm(want))
            rate = math.sqrt(0.5 * verify_module._inner(a, a)[0])
            assert abs(rate - np.linalg.norm(exact)) <= 1e-12 * (1.0 + rate)
            assert np.abs(a[0] + a[0].conj().T).max() == 0.0
            assert np.abs(np.diagonal(a[0])).max() == 0.0


class TestRetraction:
    def test_steps_only_the_matrices_off_the_level_set(self, monkeypatch):
        # regression: each Newton step decomposed every matrix of the stack,
        # also those already on the level set, which took most of a call at
        # n = 40; the ones that step must get the bits they get alone
        w = 1.0 + 0.0j
        u = verify_module._haar_special_unitary_batch(6, 3, 8)
        u[:2] = np.eye(6)  # p = 1: on the level set arg(w p) = 0 exactly
        t = w * verify_module._diag_products(u)
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        got_u, got_t = verify_module._retract(u, w, t, 1)
        assert sizes == [6]
        want_u, want_t = verify_module._retract(u[2:], w, t[2:], 1)
        assert sizes == [6, 6]
        assert np.array_equal(got_u[2:], want_u) and np.array_equal(got_t[2:], want_t)
        assert np.array_equal(got_u[:2], u[:2]) and np.array_equal(got_t[:2], t[:2])
        assert np.abs(np.angle(got_t[2:])).max() < np.abs(np.angle(t[2:])).max()


class TestLiveRestarts:
    def test_stopped_restarts_are_not_decomposed(self, monkeypatch):
        # regression: each iteration decomposed and moved every restart of
        # the stack, also those already stopped; two starts at the exact
        # maximizer stop at once, so the ascent must decompose exactly what
        # it decomposes without them, and return the others' bits unchanged
        n, theta = 4, 0.7
        w = complex(np.exp(-1j * theta))
        u = verify_module._haar_special_unitary_batch(n, 3, 8)
        u[:2] = build_u_theta(n, theta)
        t = w * verify_module._diag_products(u[:2])
        assert np.abs(np.angle(t)).max() <= verify_module._ROUNDOFF
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        got = verify_module._level_set_ascent(u, w, OptimizerConfig())
        with_them, sizes[:] = sizes[:], []
        want = verify_module._level_set_ascent(u[2:], w, OptimizerConfig())
        assert with_them == sizes
        assert np.array_equal(got[2:], want)
        assert np.array_equal(got[:2], u[:2])


class TestConstrainedMaxDomain:
    # regression: the former penalty ascent's own value overshot the maximum by up
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

    @given(
        st.integers(3, 6),
        st.sampled_from((-1.0, 1.0)),
        st.floats(0.1, np.pi),
        st.integers(0, 2**32),
    )
    @settings(max_examples=20, deadline=None)
    def test_c07_bounds_away_from_the_cusp(self, n, sign, magnitude, seed):
        theta = sign * magnitude
        rep = constrained_max_numeric(n, theta, seed=seed)
        target = abs(gamma(n, alpha_of_theta(n, theta)))
        best = target - rep.worst_margin
        assert abs(best - target) <= 1e-4
        assert best <= target + 1e-6
        assert recognize_extremal(rep.best_matrix, 1e-4) is not None
        on_ray = (np.exp(-1j * theta) * diag_product(rep.best_matrix)).real
        assert abs(best - on_ray) <= 1e-12

    def test_near_cusp_ascent_stops_before_the_cap(self, monkeypatch):
        # regression: steepest penalty ascent ran to max_iterations = 2000
        # here; every iteration of the level-set ascent takes at least one
        # gradient, so fewer gradients than the cap mean it stopped on its own
        calls = [0]
        tangent = verify_module._log_tangent

        def counted_tangent(u, w, t):
            calls[0] += 1
            return tangent(u, w, t)

        monkeypatch.setattr(verify_module, "_log_tangent", counted_tangent)
        n, theta = 4, 1e-3
        rep = constrained_max_numeric(n, theta, seed=0)
        assert 0 < calls[0] < OptimizerConfig().max_iterations, calls
        target = abs(gamma(n, alpha_of_theta(n, theta)))
        best = target - rep.worst_margin
        assert abs(best - target) <= 1e-3
        assert best <= target + 1e-6
        assert recognize_extremal(rep.best_matrix, 1e-4) is not None

    @staticmethod
    def _assert_c07_bounds(n, theta, seed):
        rep = constrained_max_numeric(n, theta, seed=seed)
        target = abs(gamma(n, alpha_of_theta(n, theta)))
        best = target - rep.worst_margin
        assert rep.failures == 0, rep.details
        assert abs(best - target) <= (1e-3 if abs(theta) < 0.1 else 1e-4)
        assert best <= target + 1e-6
        assert recognize_extremal(rep.best_matrix, 1e-4) is not None
        on_ray = (np.exp(-1j * theta) * diag_product(rep.best_matrix)).real
        assert abs(best - on_ray) <= 1e-12
        return best - target

    # regression: the penalty ascent settled near the diagonal matrices
    # (p = 1, zero gradient) and met c07's bounds in 17 of 40 such cases
    @given(
        st.integers(3, 8),
        st.sampled_from((-1.0, 1.0)),
        st.floats(-6.0, -1.0).map(lambda e: 10.0**e),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_c07_bounds_near_the_cusp(self, n, sign, magnitude, seed):
        self._assert_c07_bounds(n, sign * magnitude, seed)

    @pytest.mark.parametrize(
        "n, theta, seed",
        [
            # all 8 restarts ended infeasible and the best overshot by 1.07e-2
            (3, -2.15e-4, 20260808),
            # 3 of 8 restarts feasible, the best 0.203 below the maximum
            (3, 2.15e-4, 0),
            # the Haar starts have |p| near 1e-16 and the ascent on Re(w p)
            # did not move them: the best was the whole maximum (0.42, 0.98) below
            (20, 0.4, 0),
            (40, 1e-3, 0),
        ],
    )
    def test_c07_bounds_at_reported_cusp_cases(self, n, theta, seed):
        assert abs(self._assert_c07_bounds(n, theta, seed)) <= 1e-12

    # regression: a restart stopped at its first kept move that gained at
    # most 1e-12 in log|p|; convergence is linear, so restarts here ended
    # up to 7.4e-12 below the maximum
    @pytest.mark.parametrize("seed", [2, 3])
    def test_every_restart_ends_at_the_maximum(self, seed):
        rep = constrained_max_numeric(40, 1e-3, seed=seed)
        errors = [r.error for r in rep.details]
        assert len(errors) == OptimizerConfig().restarts
        assert max(errors) <= 1e-12, errors

    # regression: every rate of the ascent on Re(w p) was absolute, so at
    # large n, where a Haar start has |p| near 1e-16, no restart moved
    @given(
        st.integers(9, 40),
        st.sampled_from((-1.0, 1.0)),
        st.floats(math.log(1e-6), math.log(np.pi)).map(math.exp),
        st.integers(0, 2**32),
    )
    @settings(max_examples=8, deadline=None)
    def test_c07_bounds_at_large_n(self, n, sign, magnitude, seed):
        self._assert_c07_bounds(n, sign * magnitude, seed)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
    def test_c07_bounds_at_the_cusp_and_half_turn(self, n, theta):
        assert abs(self._assert_c07_bounds(n, theta, 20260808)) <= 1e-10

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

    def test_grid_without_a_point_in_the_disk_is_rejected(self):
        # regression: grid 2 (only the corners, all outside the disk) checked
        # no grid target and reported the grid check as passed
        with pytest.raises(ValueError, match="^grid must be an integer >= 3, got 2$"):
            verify_unit_disk(3, 10, 0, 2)

    @pytest.mark.parametrize("grid", [3, 5, 41])
    @pytest.mark.parametrize("shift", [0.0, 1e-9])
    def test_grid_records_match_the_point_loop(self, monkeypatch, grid, shift):
        # reference: one build and one product per grid point, as the check
        # ran before it was batched; a shifted corner entry makes every
        # point a failure record
        def shifted(u):
            u = u.copy()
            u[..., 0, 0] += shift
            return u

        monkeypatch.setattr(
            verify_module, "_build_u_z_many", lambda n, zs: shifted(_build_u_z_many(n, zs))
        )
        n = 3
        want, worst = [], 0.0
        axis = np.linspace(-1.0, 1.0, grid)
        for x in axis:
            for y in axis:
                z = complex(x, y)
                if abs(z) > 1.0:
                    continue
                err = abs(diag_product(shifted(build_u_z(n, z))) - z)
                worst = max(worst, err)
                if err > 1e-12:
                    want.append((f"disk grid z={z!r}", err, 0.0, err - 1e-12))
        want.append(("max |product - z| over disk grid", worst, 0.0, max(0.0, worst - 1e-12)))
        rep = verify_unit_disk(n, 50, seed=4, grid=grid)
        got = [
            (r.input, r.measured, r.expected, r.error)
            for r in rep.details
            if r.input.startswith(("disk grid", "max |product - z|"))
        ]
        assert sorted(got) == sorted(want)
        assert rep.failures == len(want) - 1


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

    # regression: the bound 2 width / sweep assumed that no step of the sweep
    # exceeds twice the mean step, which fails for every n >= 8 (n = 8 at
    # sweep 2000: gap 2.209e-4 against 2.200e-4)
    @given(
        st.integers(2, 200),
        st.sampled_from((2, 3, 10, 100, 2000, 10**4, 10**5)),
        st.integers(0, 2**32),
    )
    @example(8, 2000, 5)
    @example(20, 10**4, 5)
    @settings(max_examples=60, deadline=None)
    def test_sweep_coverage_for_every_n(self, n, sweep, seed):
        rep = verify_so_interval(n, sweep=sweep, trials=3, seed=seed)
        (cover,) = [r for r in rep.details if r.input.startswith("sweep coverage")]
        assert cover.measured < cover.expected and cover.error == 0.0
        assert rep.failures == 0
        if n <= 7 and sweep == 10**4:
            # the mean-value bound is no looser than the old one at acceptance scale
            lo, hi = so_interval(n)
            assert cover.expected < 2.0 * (hi - lo) / sweep

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

    # regression: a NaN rebuilt preimage counted as a failure, but min(inf,
    # nan) kept the margin at +inf and max(0.0, -nan) gave its summary
    # record the error 0.0
    def test_nan_preimage_sets_the_margin(self, monkeypatch):
        def with_nan(n, alpha, q):
            mats = _homotopy_matrices(n, alpha, q)
            mats[0] = np.nan
            return mats

        monkeypatch.setattr(verify_module, "_homotopy_matrices", with_nan)
        rep = verify_preimage(3, 5, seed=1)
        summary = next(r for r in rep.details if r.input == "worst residual over 5 points")
        assert rep.failures == 1
        assert rep.worst_margin == -np.inf
        assert summary.error == np.inf


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

    def test_large_n_chunk_is_sized_by_n_squared(self, monkeypatch):
        # 70 trials at n = 100 take two chunks of at most 64 matrices
        assert verify_module._chunk(100) == 64 and verify_module._chunk(8) == 8192
        whole = repr(monte_carlo_containment(100, 70, seed=3).to_dict())
        monkeypatch.setattr(verify_module, "_CHUNK", 3)
        assert repr(monte_carlo_containment(100, 70, seed=3).to_dict()) == whole

    def test_preimages_are_rebuilt_one_stack_per_chunk(self, monkeypatch):
        # regression: each solved target was rebuilt and checked on its own,
        # 130 scalar builds here; 130 targets at n = 100 take three chunks
        calls = []

        def counted(n, alpha, q):
            calls.append(len(alpha))
            return _homotopy_matrices(n, alpha, q)

        monkeypatch.setattr(verify_module, "_homotopy_matrices", counted)
        whole = verify_preimage(100, 130)
        assert whole.passed
        assert calls == [64, 64, 2] and verify_module._chunk(100) == 64
        monkeypatch.setattr(verify_module, "_CHUNK", 7)
        assert repr(verify_preimage(100, 130).to_dict()) == repr(whole.to_dict())
        assert calls[3:] == [7] * 18 + [4]


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


def _records(rep):
    return [(r.input, r.measured, r.expected, r.error) for r in rep.details]


def _diagonal_stack(products):
    """Sampler stand-in: trial t is diag(products.get(t, 1), 1, ..., 1)."""

    def sampler(n, seed, count, start=0):
        mats = np.broadcast_to(np.eye(n, dtype=np.complex128), (count, n, n)).copy()
        for t, z in products.items():
            if start <= t < start + count:
                mats[t - start, 0, 0] = z
        return mats

    return sampler


class TestFailureBranches:
    """Each check forced to fail: failure count, every record's four fields,
    their order (largest error first, then input) and the worst margin."""

    @pytest.mark.parametrize("chunk", [8192, 3])
    def test_monte_carlo_outside(self, monkeypatch, chunk):
        monkeypatch.setattr(verify_module, "_CHUNK", chunk)
        products = {1: 2.0 + 0j, 4: 0.2 + 0.1j, 6: -0.9 + 0j}
        monkeypatch.setattr(
            verify_module, "_haar_special_unitary_batch", _diagonal_stack(products)
        )
        tol = 1e-9
        rep = monte_carlo_containment(3, 8, seed=0, tol=tol)
        zs = [products.get(t, 1.0 + 0j) for t in range(8)]
        margins = [su_region_contains(3, z, tol).signed_margin for z in zs]
        worst = int(np.argmin(margins))
        want = [
            (f"trial={t} z={zs[t]!r}", margins[t], -tol, -tol - margins[t])
            for t in products
        ]
        want.append(
            (f"worst trial={worst} z={zs[worst]!r}", margins[worst], -tol,
             max(0.0, -tol - margins[worst]))
        )
        assert rep.failures == 3
        assert _records(rep) == sorted(want, key=lambda r: (-r[3], r[0]))
        assert rep.worst_margin == min(margins)

    def test_unit_disk_haar_checks(self, monkeypatch):
        def sampler(n, seed, count, start=0):
            mats = _diagonal_stack({2: 1.5})(n, seed, count, start)
            if start <= 5 < start + count:
                mats[5 - start, 0, 1] = 0.01  # off-diagonal, product still 1
            return mats

        monkeypatch.setattr(verify_module, "_haar_unitary_batch", sampler)
        rep = verify_unit_disk(3, 7, seed=0, grid=5)
        grid = [r for r in _records(rep) if r[0].startswith("max |product - z|")]
        want = [
            ("haar trial=2 |product|", 1.5, 1.0, 0.5),
            ("max |product| over 7 Haar samples", 1.5, 1.0, max(0.0, 1.5 - 1.0 - 1e-12)),
            ("haar trial=5 off-diagonal 1.000e-02 but near-unit product", 1.0, 1.0 - 1e-9,
             1.0 - (1.0 - 1e-9)),
            *grid,
        ]
        assert len(grid) == 1 and grid[0][3] == 0.0
        assert rep.failures == 2
        assert _records(rep) == sorted(want, key=lambda r: (-r[3], r[0]))
        assert rep.worst_margin == (1.0 + 1e-12) - 1.5

    def test_so_sample_outside(self, monkeypatch):
        monkeypatch.setattr(
            verify_module, "_haar_special_orthogonal_batch", _diagonal_stack({1: 2.0})
        )
        rep = verify_so_interval(3, sweep=100, trials=4, seed=0)
        lo, hi = so_interval(3)
        got = [r for r in _records(rep) if not r[0].startswith("sweep coverage")]
        by_input = {r[0]: r for r in got}
        assert by_input["haar trial=1 product outside interval"] == (
            "haar trial=1 product outside interval", 2.0, lo, 2.0 - hi
        )
        margin = min(hi - 2.0, 1.0 - lo, hi - 1.0)
        assert by_input["min interval margin over 4 Haar samples"] == (
            "min interval margin over 4 Haar samples", margin, 0.0, -(margin + 1e-9)
        )
        assert len(got) == 6 and len(rep.details) == 7
        assert rep.failures == 1
        assert rep.details == sorted(rep.details, key=lambda r: (-r.error, r.input))
        assert rep.worst_margin == margin + 1e-9

    def test_so_endpoints(self, monkeypatch):
        lo, hi = so_interval(3)
        monkeypatch.setattr(verify_module, "so_interval", lambda n: (lo - 0.25, hi + 0.5))
        rep = verify_so_interval(3, sweep=100, trials=4, seed=0)
        by_input = {r[0]: r for r in _records(rep)}
        for name, want in (
            ("sweep upper endpoint", hi + 0.5),
            ("sweep lower endpoint", lo - 0.25),
            ("diagonal signs with even product", hi + 0.5),
            ("reflection times odd signs", lo - 0.25),
        ):
            _, measured, expected, error = by_input[name]
            assert expected == want and error == abs(measured - want)
            assert error > 0.2
        assert by_input["diagonal signs with even product"][1] == 1.0
        assert by_input["reflection times odd signs"][1] == pytest.approx(lo, abs=1e-15)
        assert rep.failures == 4
        assert rep.details == sorted(rep.details, key=lambda r: (-r.error, r.input))
        assert rep.worst_margin == 1e-12 - by_input["diagonal signs with even product"][3]

    # regression: a sweep endpoint that missed its value counted as a failure
    # but left the smallest margin positive
    def test_so_sweep_short_of_its_endpoint(self, monkeypatch):
        omega_max = verify_module.omega_max
        monkeypatch.setattr(verify_module, "omega_max", lambda n: 0.9 * omega_max(n))
        rep = verify_so_interval(4, sweep=500, trials=50, seed=0)
        by_input = {r.input: r for r in rep.details}
        lower = by_input["sweep lower endpoint"]
        assert lower.error > 1e-9 and by_input["sweep upper endpoint"].error <= 1e-9
        assert rep.failures == 1
        assert rep.worst_margin == 1e-9 - lower.error < 0.0

    def test_preimage_points(self, monkeypatch):
        descend = verify_module._descend
        monkeypatch.setattr(
            verify_module, "_descend", lambda n, z, a, q: descend(n, z, a, q, max_iter=0)
        )
        tol = 1e-8
        rep = verify_preimage(3, 6, seed=2, tol=tol)
        points = verify_module._interior_points(3, 6, 2)
        best = verify_module._preimage_many(3, np.array(points), tol)[2]
        assert (best > tol).all()
        want = [(f"point={i} z={z!r}", best[i], tol, best[i] - tol) for i, z in enumerate(points)]
        worst = min(tol - best)
        want.append(("worst residual over 6 points", tol - worst, tol, -worst))
        assert rep.failures == 6
        assert _records(rep) == sorted(want, key=lambda r: (-r[3], r[0]))
        assert rep.worst_margin == worst

    # regression: a point that failed only the special-unitarity check was
    # counted as a failure but left out of the margin, which stayed positive
    def test_preimage_unitarity_only(self, monkeypatch):
        errors = verify_module._unitarity_errors
        monkeypatch.setattr(verify_module, "_unitarity_errors", lambda u: errors(u) + 1e-9)
        rep = verify_preimage(3, 5, seed=1)
        assert rep.failures == 5
        assert rep.worst_margin == pytest.approx(1e-10 - 1e-9, abs=1e-14)

    def test_constrained_max_infeasible_restarts(self, monkeypatch):
        # without the ascent every restart keeps its Haar sample, whose
        # constraint residual is far above the feasibility bound 1e-6
        monkeypatch.setattr(verify_module, "_level_set_ascent", lambda u, w, cfg: u)
        n, theta, seed = 3, 0.7, 4
        rep = constrained_max_numeric(n, theta, OptimizerConfig(restarts=4), seed)
        w = complex(np.exp(-1j * theta))
        target = radius_of_theta(n, theta).r
        samples = verify_module._haar_special_unitary_batch(n, seed, 4)
        want = []
        for r, t in enumerate((w * np.prod(np.diagonal(samples, 0, 1, 2), axis=1)).tolist()):
            assert abs(t.imag) > 1e-6
            want.append(
                (f"restart={r} constraint={abs(t.imag):.3e} feasible=False", t.real, target,
                 abs(t.real - target))
            )
        assert rep.failures == 4
        assert _records(rep) == sorted(want, key=lambda r: (-r[3], r[0]))
        best = max(range(4), key=lambda r: want[r][1])
        assert rep.worst_margin == target - want[best][1]
        np.testing.assert_array_equal(rep.best_matrix, samples[best])
