"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS line (visible with ``pytest -s``) after its
assertions; a failing criterion fails its test.
"""

import numpy as np

from diagprod import (
    alpha_of_theta,
    big_gamma,
    build_extremal,
    constrained_max_numeric,
    diag_product,
    gamma,
    is_special_unitary,
    jacobian_big_gamma,
    monte_carlo_containment,
    preimage,
    random_extremal,
    recognize_extremal,
    so_interval,
    theta_of_alpha,
    verify_unit_disk,
    verify_so_interval,
    wrap_angle,
)
from diagprod.boundary import _invert_theta, _radius_many
from diagprod.region import _classify_su_many, _winding_codes_many

from conftest import record_acceptance

SEED = 20260808


def report(line: str) -> None:
    text = f"ACCEPTANCE {line}"
    record_acceptance(text)
    print(text)


def test_c01_curve_endpoints():
    worst = 0.0
    for n in range(3, 13):
        assert gamma(n, 0.0) == 1
        want = -((1.0 - 2.0 / n) ** n)
        for a in (np.pi, -np.pi):
            worst = max(worst, abs(gamma(n, a) - want))
    assert worst <= 1e-12
    report(f"01 PASS curve endpoints: gamma(0)=1 exact, max endpoint error {worst:.2e} <= 1e-12")


def test_c02_n2_closed_form():
    grid = np.linspace(-np.pi, np.pi, 10000)
    worst = np.abs(gamma(2, grid) - np.cos(grid / 2.0) ** 2).max()
    assert worst <= 1e-14
    report(f"02 PASS n=2 closed form: max |gamma - cos^2(a/2)| = {worst:.2e} <= 1e-14")


def test_c03_polar_consistency():
    worst_radial = 0.0
    worst_trip = 0.0
    for n in range(3, 13):
        alphas = np.linspace(-np.pi, np.pi, 10000)
        thetas = theta_of_alpha(n, alphas)
        radii = _radius_many(n, thetas)[1]
        worst_radial = max(worst_radial, np.abs(radii - np.abs(gamma(n, alphas))).max())
        tgrid = np.linspace(-np.pi, np.pi, 1000)
        back = theta_of_alpha(n, _invert_theta(n, tgrid))
        worst_trip = max(worst_trip, np.abs(back - tgrid).max())
    assert worst_radial <= 1e-12
    assert worst_trip <= 1e-10
    report(
        f"03 PASS polar consistency: max |r(theta(a)) - |gamma|| = {worst_radial:.2e} <= 1e-12, "
        f"round trip {worst_trip:.2e} <= 1e-10"
    )


def test_c04_extremal_identity():
    worst = 0.0
    for n in range(2, 9):
        for k in range(1000):
            d = random_extremal(n, seed=SEED + 1000 * n + k)
            u = build_extremal(d)
            assert is_special_unitary(u, 1e-10), (n, k)
            err = abs(diag_product(u) - gamma(n, d.alpha))
            worst = max(worst, err)
    assert worst <= 1e-10
    report(f"04 PASS extremal identity: 7000 builds special unitary, max product error {worst:.2e} <= 1e-10")


def test_c05_recognition_round_trip():
    rng = np.random.default_rng(SEED)
    worst_a = 0.0
    worst_p = 0.0
    for n in (3, 4, 5, 6):
        for k in range(500):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            mag = 1e-3 if k < 3 else rng.uniform(1e-3, np.pi * 0.99999)
            alpha = sign * mag
            d = random_extremal(n, seed=SEED + 31 * k + n, alpha=alpha)
            rec = recognize_extremal(build_extremal(d), 1e-9)
            assert rec is not None, (n, alpha)
            worst_a = max(worst_a, abs(wrap_angle(rec.alpha - d.alpha)))
            proj_err = np.abs(
                np.outer(rec.v, rec.v.conj()) - np.outer(d.v, d.v.conj())
            ).max()
            worst_p = max(worst_p, proj_err)
    assert worst_a <= 1e-9
    assert worst_p <= 1e-9
    report(
        f"05 PASS recognition round trip: 2000 cases, max alpha error {worst_a:.2e}, "
        f"max projector error {worst_p:.2e} <= 1e-9"
    )


def test_c06_containment_and_oracle_agreement():
    tol = 1e-9
    for n in range(2, 7):
        rep = monte_carlo_containment(n, 100000, seed=SEED + n, tol=tol)
        assert rep.failures == 0, f"n={n}: {rep.failures} containment failures"
    mismatches = 0
    checked = 0
    xs = np.linspace(-1.1, 1.1, 101)
    pts = np.array([complex(x, y) for x in xs for y in xs])
    for n in (3, 4, 5, 6):
        polar_codes, polar_margins = _classify_su_many(n, pts, tol)
        wind_codes, _ = _winding_codes_many(n, pts, 8192, tol)
        away = np.abs(polar_margins) > 2 * tol
        checked += int(away.sum())
        mismatches += int((polar_codes[away] != wind_codes[away]).sum())
    assert mismatches == 0
    report(
        f"06 PASS containment: 5x100000 Haar samples all inside at tol 1e-9; "
        f"oracles agree on {checked} grid points away from the boundary band"
    )


def test_c07_constrained_maximization():
    worst_gap = 0.0
    worst_over = -np.inf
    for n in (3, 4):
        for theta in (0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, np.pi):
            rep = constrained_max_numeric(n, theta, seed=SEED)
            target = abs(gamma(n, alpha_of_theta(n, theta)))
            best = target - rep.worst_margin
            bound = 1e-3 if abs(theta) < 0.1 else 1e-4
            assert abs(best - target) <= bound, (n, theta, best, target)
            assert best <= target + 1e-6, (n, theta)
            rec = recognize_extremal(rep.best_matrix, 1e-4)
            assert rec is not None, (n, theta)
            worst_gap = max(worst_gap, abs(best - target))
            worst_over = max(worst_over, best - target)
    report(
        f"07 PASS constrained maximization: 16 configurations, max |gap| {worst_gap:.2e} <= 1e-4, "
        f"max overshoot {worst_over:.2e} <= 1e-6, all maximizers recognized"
    )


def test_c08_constructive_preimages():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for n in (3, 4, 5):
        count = 0
        while count < 100:
            z = complex(*rng.uniform(-1.0, 1.0, 2))
            if abs(z) > 1.0:
                continue
            codes, _ = _classify_su_many(n, np.array([z]), 1e-9)
            if codes[0] != 1:
                continue
            count += 1
            u = preimage(n, z, tol=1e-8)
            residual = abs(diag_product(u) - z)
            assert residual <= 1e-8, (n, z, residual)
            assert is_special_unitary(u, 1e-10), (n, z)
            worst = max(worst, residual)
    assert worst <= 1e-8
    report(f"08 PASS constructive preimages: 300 interior targets, max residual {worst:.2e} <= 1e-8")


def test_c09_unit_disk_image():
    rep = verify_unit_disk(4, 10000, seed=SEED + 9, grid=41)
    assert rep.failures == 0
    assert rep.worst_margin >= 0
    report(
        f"09 PASS unit-disk image: 10000 Haar samples bounded, 41x41 disk grid rebuilt "
        f"within 1e-12, near-unit products only for near-diagonal samples (margin {rep.worst_margin:.2e})"
    )


def test_c10_so_interval():
    for n in (3, 4, 5, 6):
        rep = verify_so_interval(n, sweep=10000, trials=10000, seed=SEED + n)
        assert rep.failures == 0, f"n={n}"
        lo, hi = so_interval(n)
        signs = np.ones(n)
        signs[0] = signs[1] = -1.0
        assert abs(diag_product(np.diag(signs)) - hi) <= 1e-12
        u_vec = np.full(n, 1.0 / np.sqrt(n))
        sigma = np.ones(n)
        sigma[0] = -1.0
        reflect = (np.eye(n) - 2.0 * np.outer(u_vec, u_vec)) * sigma[None, :]
        assert abs(diag_product(reflect) - lo) <= 1e-12
    report(
        "10 PASS special orthogonal interval: endpoints attained within 1e-12, "
        "4x10000 Haar samples inside within 1e-9, sweep gaps below "
        "(1 + 1e-3) * step * max |dv/domega|"
    )


def test_c11_jacobian_positivity():
    h = 1e-5
    worst = 0.0
    for n in range(3, 9):
        alphas = np.linspace(0.0, np.pi, 202)[1:-1]
        ys = np.linspace(1.0, n - 1.0, 202)[1:-1]
        aa, yy = np.meshgrid(alphas, ys, indexing="ij")
        keep = np.hypot(aa - np.pi, yy - n / 2.0) > 1e-6
        jac = jacobian_big_gamma(n, aa, yy)
        assert np.all(jac[keep] > 0.0), f"n={n}"

        def parts(a, y):
            v = big_gamma(n, a, y)
            return v.real, v.imag

        rp, ip = parts(aa + h, yy)
        rm, im = parts(aa - h, yy)
        da_re, da_im = (rp - rm) / (2 * h), (ip - im) / (2 * h)
        rp, ip = parts(aa, yy + h)
        rm, im = parts(aa, yy - h)
        dy_re, dy_im = (rp - rm) / (2 * h), (ip - im) / (2 * h)
        fd = da_re * dy_im - da_im * dy_re
        worst = max(worst, np.abs(jac - fd)[keep].max())
    assert worst <= 1e-6
    report(
        f"11 PASS jacobian: positive on 6 interior 200x200 grids, max deviation from "
        f"finite differences {worst:.2e} <= 1e-6"
    )


def test_c12_reflection_symmetry():
    rng = np.random.default_rng(SEED + 12)
    worst = 0.0
    for n in range(3, 11):
        alphas = rng.uniform(-np.pi, np.pi, 1000)
        ys = rng.uniform(1.0, n - 1.0, 1000)
        lhs = big_gamma(n, alphas, n - ys)
        rhs = np.conj(big_gamma(n, alphas, ys))
        worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-12
    report(f"12 PASS reflection symmetry: max |Gamma(a, n-y) - conj Gamma(a, y)| = {worst:.2e} <= 1e-12")
