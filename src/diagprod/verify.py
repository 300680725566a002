"""Numerical adjudication of the diagonal-product image claims.

Monte-Carlo containment of Haar samples, constructive preimages through the
homotopy family, direct numerical solution of the ray-maximization problem
over SU(n) by a penalty method with multi-start, and dedicated checks for the
unit-disk (unitary) and real-interval (special orthogonal) images.

All runs are deterministic functions of their seed: per-trial and per-restart
Haar samples come from counter-based streams keyed by ``derive_seed`` (a
SplitMix64 mixer), and aggregation is order-independent (counts, extremal
margins, sorted detail records), so reports do not depend on ``_CHUNK``.
Non-finite products count as failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import alpha_of_theta, gamma, wrap_angle
from .constructors import (
    build_homotopy_matrix,
    build_u_z,
    homotopy_diag_product,
    omega_max,
)
from .matrices import (
    derive_seed,
    diag_product,
    haar_special_unitary,
    is_special_unitary,
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
)
from .region import Membership, so_interval, su_region_contains, _classify_su_many

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "OptimizerConfig",
    "PreimageConvergenceError",
    "monte_carlo_containment",
    "preimage",
    "verify_preimage",
    "constrained_max_numeric",
    "verify_unit_disk",
    "verify_so_interval",
]

_CHUNK = 8192


@dataclass(frozen=True)
class CheckRecord:
    """One verification data point: what was fed in, what came out, what was
    wanted, and the (positive = bad) discrepancy."""

    input: str
    measured: float
    expected: float
    error: float

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "measured": self.measured,
            "expected": self.expected,
            "error": self.error,
        }


@dataclass
class VerificationReport:
    """Aggregated outcome of one verification run.

    ``worst_margin`` is the smallest signed margin observed (positive = safe);
    every failure contributes a detail record.  ``best_matrix`` carries the
    maximizer for optimizer runs.  ``elapsed`` is wall-clock seconds and is
    excluded from serialized output so reruns are byte-identical.
    """

    kind: str
    n: int
    trials: int
    failures: int
    worst_margin: float
    details: list[CheckRecord] = field(default_factory=list)
    seed: int = 0
    elapsed: float = 0.0
    best_matrix: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
            "details": [r.to_dict() for r in self.details],
        }
        if self.best_matrix is not None:
            m = np.asarray(self.best_matrix, np.complex128)
            out["best_matrix"] = {
                "re": m.real.tolist(),
                "im": m.imag.tolist(),
            }
        return out


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the penalty-method ascent for the ray-maximization problem."""

    restarts: int = 8
    max_iterations: int = 2000
    step_init: float = 0.5
    constraint_penalty_init: float = 10.0
    penalty_growth: float = 10.0
    tol_value: float = 1e-12
    tol_constraint: float = 1e-6

    def validate(self) -> None:
        for name in (
            "restarts",
            "max_iterations",
            "step_init",
            "constraint_penalty_init",
            "penalty_growth",
            "tol_value",
            "tol_constraint",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class PreimageConvergenceError(RuntimeError):
    """Raised when the preimage solver cannot meet the tolerance; carries the
    best residual reached."""

    def __init__(self, best_residual: float):
        super().__init__(
            f"preimage solver did not converge (best residual {best_residual:.3e})"
        )
        self.best_residual = best_residual


def _sorted_details(records: list[CheckRecord]) -> list[CheckRecord]:
    return sorted(records, key=lambda r: (-r.error, r.input))


def _diag_products(mats: np.ndarray) -> np.ndarray:
    return np.prod(np.diagonal(mats, axis1=-2, axis2=-1), axis=-1)


def monte_carlo_containment(
    n: int, trials: int, seed: int = 0, tol: float = 1e-9
) -> VerificationReport:
    """Sample Haar SU(n) and classify every diagonal product against the
    region; Outside verdicts count as failures."""
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    t0 = time.perf_counter()
    zs = np.empty(trials, np.complex128)
    for start in range(0, trials, _CHUNK):
        cnt = min(_CHUNK, trials - start)
        mats = _haar_special_unitary_batch(n, seed, cnt, start)
        zs[start : start + cnt] = _diag_products(mats)
    codes, margins = _classify_su_many(n, zs, tol)
    fail_idx = np.flatnonzero(codes == -1)
    details = [
        CheckRecord(
            input=f"trial={i} z={complex(zs[i])!r}",
            measured=float(margins[i]),
            expected=-tol,
            error=float(-tol - margins[i]),
        )
        for i in fail_idx
    ]
    worst = int(np.argmin(margins))
    details.append(
        CheckRecord(
            input=f"worst trial={worst} z={complex(zs[worst])!r}",
            measured=float(margins[worst]),
            expected=-tol,
            error=max(0.0, float(-tol - margins[worst])),
        )
    )
    return VerificationReport(
        kind="monte_carlo",
        n=n,
        trials=trials,
        failures=len(fail_idx),
        worst_margin=float(margins.min()),
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


def _preimage_grid_starts(n, z, alphas, omegas, count=6):
    """Best few local minima of the residual over the (alpha, omega) grid,
    sorted by residual.  The residual landscape can hold several valleys (for
    real targets one runs along the half-turn line), so the polish step is
    multi-started rather than trusting the single best cell."""
    aa, ww = np.meshgrid(alphas, omegas, indexing="ij")
    res = np.abs(homotopy_diag_product(n, aa, ww) - z)
    width = res.shape[1]
    padded = np.full((res.shape[0], width + 2), np.inf)
    padded[:, 1:-1] = res
    neighbor_min = np.full_like(res, np.inf)
    for da in (-1, 0, 1):
        rolled = np.roll(padded, da, axis=0)  # the alpha axis is periodic
        for dw in (-1, 0, 1):
            if da == 0 and dw == 0:
                continue
            neighbor_min = np.minimum(
                neighbor_min, rolled[:, 1 + dw : width + 1 + dw]
            )
    ai, wi = np.nonzero(res <= neighbor_min)
    order = np.argsort(res[ai, wi], kind="stable")
    picks = []
    for k in order:
        cand = (
            float(aa[ai[k], wi[k]]),
            float(ww[ai[k], wi[k]]),
            float(res[ai[k], wi[k]]),
        )
        if all(
            abs(cand[0] - p[0]) > 0.05 or abs(cand[1] - p[1]) > 0.05 for p in picks
        ):
            picks.append(cand)
        if len(picks) >= count:
            break
    return picks


def _preimage_newton(n, z, a, w, w_hi, max_iter=80):
    """Damped Gauss-Newton descent of |product(a, w) - z| with diagonal
    (Levenberg-Marquardt) regularization.

    Near the cusp at product 1 the map is strongly anisotropic (the
    alpha-derivative nearly vanishes), so a plain Newton solve produces wild
    ill-conditioned steps; the adaptive diagonal damping keeps progress.
    """
    best = (a, w, abs(complex(homotopy_diag_product(n, a, w)) - z))
    h = 1e-6
    lam = 1e-4
    for _ in range(max_iter):
        f = complex(homotopy_diag_product(n, a, w)) - z
        res = abs(f)
        if res < best[2]:
            best = (a, w, res)
        if res <= 1e-14:
            break
        fa = (
            complex(homotopy_diag_product(n, a + h, w))
            - complex(homotopy_diag_product(n, a - h, w))
        ) / (2.0 * h)
        wp = min(w + h, w_hi)
        wm = max(w - h, 0.0)
        fw = (
            complex(homotopy_diag_product(n, a, wp))
            - complex(homotopy_diag_product(n, a, wm))
        ) / (wp - wm)
        jj_aa = fa.real**2 + fa.imag**2
        jj_ww = fw.real**2 + fw.imag**2
        jj_aw = fa.real * fw.real + fa.imag * fw.imag
        jr_a = fa.real * f.real + fa.imag * f.imag
        jr_w = fw.real * f.real + fw.imag * f.imag
        moved = False
        for _ in range(40):
            m_aa = jj_aa * (1.0 + lam) + 1e-300
            m_ww = jj_ww * (1.0 + lam) + 1e-300
            det = m_aa * m_ww - jj_aw * jj_aw
            if det <= 0.0:
                lam = max(lam, 1e-12) * 10.0
                continue
            da = (m_ww * jr_a - jj_aw * jr_w) / det
            dw = (m_aa * jr_w - jj_aw * jr_a) / det
            a_try = float(wrap_angle(a - da))
            w_try = min(max(w - dw, 0.0), w_hi)
            if abs(complex(homotopy_diag_product(n, a_try, w_try)) - z) < res:
                a, w = a_try, w_try
                lam = max(lam / 3.0, 1e-12)
                moved = True
                break
            lam = max(lam, 1e-12) * 10.0
            if lam > 1e16:
                break
        if not moved:
            break
    f = abs(complex(homotopy_diag_product(n, a, w)) - z)
    if f < best[2]:
        best = (a, w, f)
    return best


def _transverse_omega(n, z, a, w, w_hi, rounds=6):
    """Minimize |product(a, w) - z| over the well-conditioned omega direction
    by one-dimensional Gauss-Newton."""
    h = 1e-7
    for _ in range(rounds):
        f = complex(homotopy_diag_product(n, a, w)) - z
        wp = min(w + h, w_hi)
        wm = max(w - h, 0.0)
        fw = (
            complex(homotopy_diag_product(n, a, wp))
            - complex(homotopy_diag_product(n, a, wm))
        ) / (wp - wm)
        denom = fw.real**2 + fw.imag**2
        if denom < 1e-30:
            break
        w = min(max(w - (fw.real * f.real + fw.imag * f.imag) / denom, 0.0), w_hi)
    return w, abs(complex(homotopy_diag_product(n, a, w)) - z)


def _valley_polish(n, z, a0, w0, w_hi, half_width=0.5, rounds=48):
    """Shrinking-window search along the residual valley.

    Near the cusp the residual landscape is a long, nearly flat valley whose
    transverse direction stays well conditioned while gradient steps barely
    move along it; scanning the valley coordinate with a nested transverse
    solve walks to the bottom regardless of that flatness.
    """
    best = (a0, w0, _transverse_omega(n, z, a0, w0, w_hi)[1])
    center, width = a0, half_width
    w_warm = w0
    for _ in range(rounds):
        for a in np.linspace(center - width, center + width, 17):
            a = float(wrap_angle(a))
            w, res = _transverse_omega(n, z, a, w_warm, w_hi)
            if res < best[2]:
                best = (a, w, res)
        center, w_warm = best[0], best[1]
        width *= 0.5
        if best[2] <= 1e-15:
            break
    return best


def _half_turn_crossing(n: int, x: float) -> float | None:
    """Mixing angle where the real half-turn sweep attains ``x`` in [lo, 1],
    found by a scan for a sign change followed by bisection."""
    w_hi = omega_max(n)
    ws = np.linspace(0.0, w_hi, 4097)
    g = np.real(homotopy_diag_product(n, np.pi, ws)) - x
    sign_change = np.nonzero(g[:-1] * g[1:] <= 0.0)[0]
    if len(sign_change) == 0:
        return None
    k = int(sign_change[0])
    lo_w, hi_w = float(ws[k]), float(ws[k + 1])
    g_lo = float(g[k])
    for _ in range(80):
        mid = 0.5 * (lo_w + hi_w)
        g_mid = float(np.real(homotopy_diag_product(n, np.pi, mid))) - x
        if g_lo * g_mid <= 0.0:
            hi_w = mid
        else:
            lo_w, g_lo = mid, g_mid
    return 0.5 * (lo_w + hi_w)


def preimage(
    n: int,
    z,
    tol: float = 1e-9,
    grid_alpha: int = 256,
    grid_omega: int = 128,
) -> np.ndarray:
    """Special unitary matrix from the homotopy family whose diagonal product
    is ``z`` up to ``tol`` (z must be inside the region or on its boundary).

    A coarse grid scan over (alpha, omega) picks starting cells, damped
    Gauss-Newton on the (Re, Im) residual polishes them, and failed polishes
    fall back to progressively finer grids.  Real targets ride the real
    half-turn sweep instead: near the cusp at 1 the two-dimensional problem
    degenerates, while the one-dimensional crossing stays well conditioned.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not float(tol) > 0.0:
        raise ValueError("tolerance must be positive")
    z = complex(z)
    verdict = su_region_contains(n, z, max(tol, 1e-12))
    if verdict.status is Membership.OUTSIDE:
        raise ValueError(f"target {z!r} lies outside the diagonal-product image")
    w_hi = omega_max(n)
    interval_lo = so_interval(n)[0]
    if abs(z.imag) <= 0.5 * tol and interval_lo - tol <= z.real <= 1.0 + tol:
        w_star = _half_turn_crossing(n, min(max(z.real, interval_lo), 1.0))
        if w_star is not None:
            u = build_homotopy_matrix(n, np.pi, w_star)
            if abs(diag_product(u) - z) <= tol:
                return u
    best = (0.0, 0.0, math.inf)
    for ga, gw in ((grid_alpha, grid_omega), (1024, 512), (4096, 1024)):
        starts = _preimage_grid_starts(
            n, z, np.linspace(-np.pi, np.pi, int(ga)), np.linspace(0.0, w_hi, int(gw))
        )
        for a0, w0, r0 in starts:
            if r0 < best[2]:
                best = (a0, w0, r0)
            if r0 > tol:
                a1, w1, r1 = _preimage_newton(n, z, a0, w0, w_hi)
                if r1 < best[2]:
                    best = (a1, w1, r1)
            if best[2] <= tol:
                break
        if best[2] <= tol:
            break
    if best[2] > tol:
        polished = _valley_polish(n, z, best[0], best[1], w_hi)
        if polished[2] < best[2]:
            best = polished
    if best[2] > tol:
        raise PreimageConvergenceError(best[2])
    u = build_homotopy_matrix(n, best[0], best[1])
    if abs(diag_product(u) - z) > tol:
        raise PreimageConvergenceError(abs(diag_product(u) - z))
    return u


def _interior_points(n: int, count: int, seed: int, tol: float = 1e-9) -> list[complex]:
    """Rejection-sample strictly interior targets from the unit disk."""
    rng = np.random.default_rng(derive_seed(seed, 0x1A7E5107))
    points: list[complex] = []
    while len(points) < count:
        x, y = rng.uniform(-1.0, 1.0, 2)
        z = complex(x, y)
        if abs(z) > 1.0:
            continue
        if su_region_contains(n, z, tol).status is Membership.INSIDE:
            points.append(z)
    return points


def verify_preimage(
    n: int, trials: int, seed: int = 0, tol: float = 1e-8
) -> VerificationReport:
    """Solve ``trials`` random interior targets and self-check every output:
    residual within ``tol`` and special unitarity at 1e-10."""
    if n < 3 or trials < 1:
        raise ValueError("need n >= 3 and trials >= 1")
    t0 = time.perf_counter()
    details = []
    failures = 0
    worst = math.inf
    for i, z in enumerate(_interior_points(n, trials, seed)):
        try:
            u = preimage(n, z, tol)
            residual = abs(diag_product(u) - z)
            ok = residual <= tol and is_special_unitary(u, 1e-10)
        except PreimageConvergenceError as exc:
            residual = exc.best_residual
            ok = False
        margin = tol - residual
        worst = min(worst, margin)
        if not ok:
            failures += 1
            details.append(
                CheckRecord(
                    input=f"point={i} z={z!r}",
                    measured=residual,
                    expected=tol,
                    error=residual - tol,
                )
            )
    details.append(
        CheckRecord(
            input=f"worst residual over {trials} points",
            measured=tol - worst,
            expected=tol,
            error=max(0.0, -worst),
        )
    )
    return VerificationReport(
        kind="preimage",
        n=n,
        trials=trials,
        failures=failures,
        worst_margin=worst,
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


_PENALTY_STAGES = 7  # initial penalty plus six escalations
_FD_STEP = 1e-6
_COS_H = math.cos(_FD_STEP)
_SIN_H = math.sin(_FD_STEP)


def _penalized(w: complex, p: complex, mu: float) -> float:
    t = w * p
    return t.real - mu * t.imag * t.imag


def _fd_gradient(u, w, mu, pairs):
    """Central finite differences of the penalized objective along the
    off-diagonal tangent generators; single-generator moves touch only two
    rows, so only two diagonal entries change.

    Zero-sum diagonal phase moves leave the diagonal product unchanged, hence
    contribute exactly zero gradient and are omitted.
    """
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


def _reunitarize(u: np.ndarray) -> np.ndarray:
    # one Newton-Schulz step; squares the (tiny) orthonormality defect
    return u @ (1.5 * np.eye(u.shape[0]) - 0.5 * (u.conj().T @ u))


def _penalty_ascent(u, w, mu, cfg: OptimizerConfig, pairs):
    value = _penalized(w, diag_product(u), mu)
    step = cfg.step_init
    stall = 0
    for it in range(cfg.max_iterations):
        grad = _fd_gradient(u, w, mu, pairs)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-11:
            break
        direction = grad / gnorm
        a = np.zeros_like(u)
        for idx, (j, k) in enumerate(pairs):
            gx, gy = direction[2 * idx], direction[2 * idx + 1]
            a[j, k] += -gx + 1j * gy
            a[k, j] += gx + 1j * gy
        ew, ev = np.linalg.eigh(1j * a)
        s = min(2.0 * step, cfg.step_init)
        improved = False
        while s >= 1e-12:
            mover = (ev * np.exp(-1j * s * ew)) @ ev.conj().T
            u_try = mover @ u
            v_try = _penalized(w, diag_product(u_try), mu)
            if v_try > value + 1e-4 * s * gnorm:
                gain = v_try - value
                u, value, step = u_try, v_try, s
                improved = True
                break
            s *= 0.5
        if not improved:
            break
        if gain <= cfg.tol_value * (1.0 + abs(value)):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        if (it + 1) % 128 == 0:
            u = _reunitarize(u)
    return _reunitarize(u)


def constrained_max_numeric(
    n: int,
    theta,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Numerically maximize Re(e^{-i theta} diag product) over SU(n) subject
    to Im(e^{-i theta} diag product) = 0, by penalty ascent with random
    restarts, and compare with the analytic boundary radius at ``theta``.

    Restarts that do not drive the constraint residual within
    ``tol_constraint`` count as failures; ``worst_margin`` is the gap
    target - best feasible value (negative means the bound was exceeded).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    cfg = config or OptimizerConfig()
    cfg.validate()
    t0 = time.perf_counter()
    th = float(wrap_angle(theta))
    target = float(abs(gamma(n, alpha_of_theta(n, th))))
    w = complex(np.exp(-1j * th))
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    details = []
    best_value = -math.inf
    best_u = None
    best_feasible = False
    failures = 0
    for r in range(cfg.restarts):
        u = haar_special_unitary(n, derive_seed(seed, r))
        mu = cfg.constraint_penalty_init
        for _ in range(_PENALTY_STAGES):
            u = _penalty_ascent(u, w, mu, cfg, pairs)
            mu *= cfg.penalty_growth
        t = w * diag_product(u)
        feasible = abs(t.imag) <= cfg.tol_constraint
        if not feasible:
            failures += 1
        details.append(
            CheckRecord(
                input=f"restart={r} constraint={abs(t.imag):.3e} feasible={feasible}",
                measured=t.real,
                expected=target,
                error=abs(t.real - target),
            )
        )
        if (feasible, t.real) > (best_feasible, best_value):
            best_feasible, best_value, best_u = feasible, t.real, u
    return VerificationReport(
        kind="constrained_max",
        n=n,
        trials=cfg.restarts,
        failures=failures,
        worst_margin=target - best_value,
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
        best_matrix=best_u,
    )


def verify_unit_disk(
    n: int, trials: int, seed: int = 0, grid: int = 41
) -> VerificationReport:
    """Unit-disk image checks for U(n): Haar products stay in the closed disk,
    the 2x2-block construction reproduces every grid target in the disk, and
    any sample with a non-negligible off-diagonal entry has product modulus
    strictly below 1."""
    if n < 2 or trials < 1 or grid < 2:
        raise ValueError("need n >= 2, trials >= 1, grid >= 2")
    t0 = time.perf_counter()
    details = []
    failures = 0
    worst = math.inf

    mods = np.empty(trials)
    offmax = np.empty(trials)
    for start in range(0, trials, _CHUNK):
        cnt = min(_CHUNK, trials - start)
        mats = _haar_unitary_batch(n, seed, cnt, start)
        mods[start : start + cnt] = np.abs(_diag_products(mats))
        off = np.abs(mats)
        off[:, np.arange(n), np.arange(n)] = 0.0
        offmax[start : start + cnt] = off.max(axis=(1, 2))

    # a non-finite modulus is recorded as inf, so it fails the bound
    mods[~np.isfinite(mods)] = np.inf
    margin_a = (1.0 + 1e-12) - mods
    bad_a = np.flatnonzero(margin_a < 0.0)
    failures += len(bad_a)
    for i in bad_a:
        details.append(
            CheckRecord(
                input=f"haar trial={i} |product|",
                measured=float(mods[i]),
                expected=1.0,
                error=float(mods[i] - 1.0),
            )
        )
    worst = min(worst, float(margin_a.min()))
    details.append(
        CheckRecord(
            input=f"max |product| over {trials} Haar samples",
            measured=float(mods.max()),
            expected=1.0,
            error=max(0.0, float(mods.max() - 1.0 - 1e-12)),
        )
    )

    masked = offmax > 1e-3
    margin_c = np.where(masked, (1.0 - 1e-9) - mods, math.inf)
    bad_c = np.flatnonzero(margin_c < 0.0)
    failures += len(bad_c)
    for i in bad_c:
        details.append(
            CheckRecord(
                input=f"haar trial={i} off-diagonal {offmax[i]:.3e} but near-unit product",
                measured=float(mods[i]),
                expected=1.0 - 1e-9,
                error=float(mods[i] - (1.0 - 1e-9)),
            )
        )
    if masked.any():
        worst = min(worst, float(margin_c[masked].min()))

    axis = np.linspace(-1.0, 1.0, grid)
    worst_build = 0.0
    for x in axis:
        for y in axis:
            z = complex(x, y)
            if abs(z) > 1.0:
                continue
            err = abs(diag_product(build_u_z(n, z)) - z)
            worst_build = max(worst_build, err)
            if err > 1e-12:
                failures += 1
                details.append(
                    CheckRecord(
                        input=f"disk grid z={z!r}",
                        measured=err,
                        expected=0.0,
                        error=err - 1e-12,
                    )
                )
    worst = min(worst, 1e-12 - worst_build)
    details.append(
        CheckRecord(
            input="max |product - z| over disk grid",
            measured=worst_build,
            expected=0.0,
            error=max(0.0, worst_build - 1e-12),
        )
    )

    return VerificationReport(
        kind="unit_disk",
        n=n,
        trials=trials,
        failures=failures,
        worst_margin=worst,
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )


def verify_so_interval(
    n: int, sweep: int = 10000, trials: int = 10000, seed: int = 0
) -> VerificationReport:
    """Real-interval image checks for SO(n): the homotopy sweep at the
    half-turn angle covers the interval with small gaps, Haar samples land
    inside it, and the stated sign/reflection constructions hit both
    endpoints."""
    if n < 2 or sweep < 2 or trials < 1:
        raise ValueError("need n >= 2, sweep >= 2, trials >= 1")
    t0 = time.perf_counter()
    lo, hi = so_interval(n)
    width = hi - lo
    details = []
    failures = 0
    worst = math.inf

    omegas = np.linspace(0.0, omega_max(n), sweep)
    c2 = np.cos(omegas) ** 2
    s2 = np.sin(omegas) ** 2
    vals = -(1.0 - 2.0 * c2) * (1.0 - 2.0 * s2 / (n - 1.0)) ** (n - 1)
    gap = float(np.diff(np.sort(vals)).max())
    gap_bound = 2.0 * width / sweep
    if gap >= gap_bound:
        failures += 1
    details.append(
        CheckRecord(
            input=f"sweep coverage, {sweep} steps",
            measured=gap,
            expected=gap_bound,
            error=max(0.0, gap - gap_bound),
        )
    )
    worst = min(worst, gap_bound - gap)
    for name, got, want in (
        ("sweep upper endpoint", float(vals.max()), hi),
        ("sweep lower endpoint", float(vals.min()), lo),
    ):
        err = abs(got - want)
        if err > 1e-9:
            failures += 1
        details.append(CheckRecord(input=name, measured=got, expected=want, error=err))

    pds = np.empty(trials)
    for start in range(0, trials, _CHUNK):
        cnt = min(_CHUNK, trials - start)
        mats = _haar_special_orthogonal_batch(n, seed, cnt, start)
        pds[start : start + cnt] = np.real(_diag_products(mats))
    # a non-finite product is recorded as inf, so it lies outside the interval
    pds[~np.isfinite(pds)] = np.inf
    inside = (pds >= lo - 1e-9) & (pds <= hi + 1e-9)
    bad = np.flatnonzero(~inside)
    failures += len(bad)
    for i in bad:
        details.append(
            CheckRecord(
                input=f"haar trial={i} product outside interval",
                measured=float(pds[i]),
                expected=lo,
                error=float(max(lo - pds[i], pds[i] - hi)),
            )
        )
    sample_margin = float(np.minimum(pds - lo, hi - pds).min())
    worst = min(worst, sample_margin + 1e-9)
    details.append(
        CheckRecord(
            input=f"min interval margin over {trials} Haar samples",
            measured=sample_margin,
            expected=0.0,
            error=max(0.0, -(sample_margin + 1e-9)),
        )
    )

    signs = np.ones(n)
    if n >= 2:
        signs[0] = signs[1] = -1.0
    upper = float(np.prod(signs))
    rng = np.random.default_rng(derive_seed(seed, 0x50BA51C))
    u_vec = rng.choice([-1.0, 1.0], n) / math.sqrt(n)
    sigma = np.ones(n)
    sigma[0] = -1.0
    reflect = (np.eye(n) - 2.0 * np.outer(u_vec, u_vec)) * sigma[None, :]
    lower = float(np.real(diag_product(reflect)))
    for name, got, want in (
        ("diagonal signs with even product", upper, hi),
        ("reflection times odd signs", lower, lo),
    ):
        err = abs(got - want)
        if err > 1e-12:
            failures += 1
        details.append(CheckRecord(input=name, measured=got, expected=want, error=err))
        worst = min(worst, 1e-12 - err)

    return VerificationReport(
        kind="so_interval",
        n=n,
        trials=trials,
        failures=failures,
        worst_margin=worst,
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )
