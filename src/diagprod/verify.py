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

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import alpha_of_theta, gamma, wrap_angle
from .constructors import build_u_z, omega_max, _homotopy_matrix, _homotopy_product
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
    best residual reached and, per stage tried, its name and residual."""

    def __init__(self, best_residual: float, stages=()):
        tried = ", ".join(f"{name} {res:.3e}" for name, res in stages)
        super().__init__(
            f"preimage solver did not converge (best residual {best_residual:.3e}"
            + (f"; tried {tried})" if tried else ")")
        )
        self.best_residual = best_residual
        self.stages = tuple(stages)


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


def _cusp_seed(n: int, z: complex) -> tuple[float, float]:
    """(alpha, q) from the expansion of the homotopy product at the cusp,

        log H = -4x (1 - t/2) + 4i (1 - 1/(n-1)) x^2 cot(alpha/2) (1 - 2t/3) + ...,

    with x = q sin^2(alpha/2) and t = q / q_max, solved for the two
    parameters given log z (z != 0).  The factors in t are the next order in
    q, taken at small alpha; they matter near the cusp, where alpha is small
    but q need not be, and they make the map fold at t = 1.  Eliminating
    alpha leaves a cubic in t, whose root on the near side of the fold is
    taken."""
    log_z = cmath.log(z)
    u = max(-0.25 * log_z.real, 0.0)
    v = 0.25 * log_z.imag / (1.0 - 1.0 / (n - 1.0))
    q_max = (n - 1.0) / n
    t = 0.0
    if v:
        # v^2 (1 - t/2)^3 = u^3 q_max t (1 - 2t/3)^2, decreasing on [0, 1]
        k = u**3 * q_max / v**2
        roots = np.roots([-1.0 / 8.0 - 4.0 * k / 9.0, 0.75 + 4.0 * k / 3.0, -1.5 - k, 1.0])
        real = roots[(np.abs(roots.imag) <= 1e-9) & (roots.real >= 0.0)].real
        t = min(float(real.min()), 1.0) if real.size else 1.0
    x = u / (1.0 - 0.5 * t)
    a = 2.0 * math.copysign(math.atan2(x * x * (1.0 - 2.0 * t / 3.0), abs(v)), v)
    s2 = math.sin(0.5 * a) ** 2
    return a, min(x / s2, 1.0) if s2 > 0.0 else 0.0


def _boundary_seed(n: int, z: complex) -> tuple[float, float]:
    """(alpha, q) from the boundary point gamma(alpha_b) at the polar angle of
    z.  The boundary is the fold q = q_max = (n-1)/n of the map, where

        H(alpha_b + da, q_max + dq) = gamma(alpha_b) + gamma' da + h dq^2 / 2 + ...,

    with h = d^2H/dq^2 = -(E - 1)^2 B^{n-2} / (E q_max); the two real
    equations are linear in (da, dq^2), and dq is taken on the side q < q_max."""
    a = alpha_of_theta(n, cmath.phase(z))
    q_max = (n - 1.0) / n
    g, g_a, _ = (complex(v) for v in _homotopy_product(n, a, q_max))
    e = cmath.exp(1j * a)
    h = -((e - 1.0) ** 2) / (e * q_max) * (1.0 - (1.0 - 1.0 / e) / n) ** (n - 2)
    d = z - g
    det = g_a.real * h.imag - g_a.imag * h.real
    if det == 0.0:  # alpha_b = 0: the whole line maps to the cusp
        return a, q_max
    da = (d.real * h.imag - d.imag * h.real) / det
    half_dq2 = (g_a.real * d.imag - g_a.imag * d.real) / det
    return a + da, max(q_max - math.sqrt(2.0 * max(half_dq2, 0.0)), 0.0)


def _grid_seed(n: int, z: complex) -> tuple[float, float]:
    """Best cell of a 256 x 128 scan of (alpha, q) over [-pi, pi] x [0, q_max]."""
    aa, qq = np.meshgrid(
        np.linspace(-np.pi, np.pi, 256),
        np.linspace(0.0, (n - 1.0) / n, 128),
        indexing="ij",
    )
    k = np.unravel_index(np.argmin(np.abs(_homotopy_product(n, aa, qq)[0] - z)), aa.shape)
    return float(aa[k]), float(qq[k])


def _newton(n: int, z: complex, a: float, q: float, max_iter: int = 60):
    """Damped Newton (Levenberg-Marquardt) descent of |H(alpha, q) - z| on
    the exact Jacobian of the homotopy product, from (a, q); returns the
    best (alpha, q, residual).

    q is kept in [0, 1], where every member is special unitary, but may cross
    the fold at q_max: dH/dq vanishes there, so a solution just inside the
    boundary may lie on either side of it.  Near the cusp the Jacobian is
    strongly anisotropic; the diagonal damping shortens the steps that a
    nearly singular Jacobian would make wild.
    """
    h, h_a, h_q = (complex(v) for v in _homotopy_product(n, a, q))
    res = abs(h - z)
    lam = 1e-6
    for _ in range(max_iter):
        if res <= 1e-15:
            break
        # normal equations of the real 2 x 2 system J (da, dq) = (Re f, Im f)
        f = h - z
        j_aa, j_qq = abs(h_a) ** 2, abs(h_q) ** 2
        j_aq = (h_a.conjugate() * h_q).real
        g_a = (h_a.conjugate() * f).real
        g_q = (h_q.conjugate() * f).real
        while lam <= 1e16:
            m_aa = j_aa * (1.0 + lam) + 1e-300
            m_qq = j_qq * (1.0 + lam) + 1e-300
            det = m_aa * m_qq - j_aq * j_aq
            if det > 0.0:
                a_try = float(wrap_angle(a - (m_qq * g_a - j_aq * g_q) / det))
                q_try = min(max(q - (m_aa * g_q - j_aq * g_a) / det, 0.0), 1.0)
                trial = [complex(v) for v in _homotopy_product(n, a_try, q_try)]
                if abs(trial[0] - z) < res:
                    a, q, (h, h_a, h_q) = a_try, q_try, trial
                    res = abs(h - z)
                    lam = max(lam * 0.1, 1e-12)
                    break
            lam *= 10.0
        else:  # no damping decreases the residual: a local minimum
            break
    return a, q, res


def preimage(n: int, z, tol: float = 1e-9) -> np.ndarray:
    """Special unitary matrix from the homotopy family whose diagonal product
    is ``z`` up to ``tol`` (z must be inside the region or on its boundary).

    In the coordinates (alpha, q = sin^2 omega) the family's product is
    H = A B^{n-1} with A = 1 + (e^{i alpha} - 1) q and
    B = 1 - (1 - e^{-i alpha}) q / (n-1), so its Jacobian is closed form.
    Damped Newton on that exact Jacobian starts from two closed-form seeds,
    tried in order of their initial residual: the cusp seed, which inverts
    the expansion of log H near the cusp at 1, and the boundary seed, which
    inverts the second-order expansion of H about the boundary point at the
    polar angle of z.  One coarse grid scan is the only fallback.  The
    boundary is a fold of the map (dH/dq vanishes at q = (n-1)/n), so q may
    cross it: every member with q in [0, 1] is special unitary, and clamping
    at the fold would stall Newton on targets just inside the boundary.

    Raises ``PreimageConvergenceError`` naming each stage tried and the
    residual it reached when none meets ``tol``.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not float(tol) > 0.0:
        raise ValueError("tolerance must be positive")
    z = complex(z)
    verdict = su_region_contains(n, z, max(tol, 1e-12))
    if verdict.status is Membership.OUTSIDE:
        raise ValueError(f"target {z!r} lies outside the diagonal-product image")
    seeds = [("boundary seed", _boundary_seed(n, z))]
    if z != 0.0:
        seeds.append(("cusp seed", _cusp_seed(n, z)))
    seeds.sort(key=lambda s: abs(complex(_homotopy_product(n, *s[1])[0]) - z))
    seeds.append(("grid", None))
    stages = []
    best = (0.0, 0.0, math.inf)
    for name, seed in seeds:
        found = _newton(n, z, *(seed or _grid_seed(n, z)))
        stages.append((name, found[2]))
        if found[2] < best[2]:
            best = found
        if best[2] <= tol:
            break
    if best[2] > tol:
        raise PreimageConvergenceError(best[2], stages)
    u = _homotopy_matrix(n, best[0], best[1])
    if abs(diag_product(u) - z) > tol:
        raise PreimageConvergenceError(abs(diag_product(u) - z), stages)
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
