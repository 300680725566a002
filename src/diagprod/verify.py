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
import functools
import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .boundary import alpha_of_theta, gamma, wrap_angle
from .constructors import build_u_z, omega_max, _homotopy_matrix, _homotopy_product
from .matrices import (
    derive_seed,
    diag_product,
    is_special_unitary,
    _check_tol,
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
_DRAW_BLOCK = 256  # (x, y) pairs per rejection-sampling draw


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
        """Raise ValueError naming the first field that is not a positive
        integer (the two counts) or a finite positive number (the rest)."""
        for item in fields(self):
            value, count = getattr(self, item.name), item.name in ("restarts", "max_iterations")
            kind = numbers.Integral if count else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind) or not 0 < value < math.inf:
                what = "positive integer" if count else "finite positive number"
                raise ValueError(f"{item.name} must be a {what}, got {value!r}")


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
    return np.multiply.reduce(mats.diagonal(0, -2, -1), axis=-1)


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
    tol = _check_tol(tol)
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
    """Rejection-sample strictly interior targets from the unit disk.

    Draws come in blocks of ``_DRAW_BLOCK`` (x, y) pairs, the same stream as
    one pair per draw, and each block is classified by the polar core, whose
    entries equal the scalar oracle; so the points do not depend on the block.
    """
    rng = np.random.default_rng(derive_seed(seed, 0x1A7E5107))
    points: list[complex] = []
    while len(points) < count:
        zs = rng.uniform(-1.0, 1.0, (_DRAW_BLOCK, 2)).view(np.complex128)[:, 0]
        zs = zs[np.abs(zs) <= 1.0]
        codes, _ = _classify_su_many(n, zs, tol)
        points.extend(complex(z) for z in zs[codes == 1])
    return points[:count]


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
_HALVINGS = 0.5 ** np.arange(4)  # one line-search call tries s, s/2, s/4, s/8


@functools.lru_cache(maxsize=None)
def _others(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column k lists the indices other than k; and the off-diagonal mask."""
    return np.array([[i + (i >= k) for k in range(n)] for i in range(n - 1)]), 1.0 - np.eye(n)


def _tangent(u: np.ndarray, kw) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of the stack u: the generator a along which exp(s a) u
    raises Re(kw p) fastest, p the diagonal product, and that rate
    sqrt(sum |a|^2 / 2).  p moves along X at rate tr(X q), q = u diag(P),
    P_k the product of the diagonal entries other than the k-th (gathered,
    not divided); over the rotation and imaginary mixing generators of the
    pairs j < k (diagonal phase moves leave p unchanged), the gradient is
    a = q^H - q, with kw folded into q and its diagonal dropped."""
    idx, off = _others(u.shape[-1])
    scale = np.reshape(kw, (-1, 1)) * np.multiply.reduce(u.diagonal(0, -2, -1)[:, idx], axis=1)
    q = u * scale[:, None, :] * off
    a = q.conj().swapaxes(-1, -2) - q
    return a, math.sqrt(0.5) * np.linalg.norm(a, axis=(1, 2))


def _moved(v: np.ndarray, lam: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(s a) u per matrix, given (lam, v) = eigh(i a) and b = v^H u."""
    return v @ (np.exp(-1j * s[:, None] * lam)[:, :, None] * b)


def _reunitarize(u: np.ndarray) -> np.ndarray:
    # one Newton-Schulz step; squares the (tiny) orthonormality defect
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def _penalty_ascent(u: np.ndarray, w: complex, mu: float, cfg: OptimizerConfig) -> np.ndarray:
    """Ascent of Re(w p) - mu Im(w p)^2, p the diagonal product, for all
    matrices of the stack u in lockstep; each keeps its own value, step,
    stall count and stop (a stopped one is masked out).  A step moves u to
    exp(s a / g) u, a and g from ``_tangent``; the Armijo rule starts at
    min(2 step, step_init) and halves s until the value rises by more than
    1e-4 s g, or s < 1e-12.  With (lam, V) = eigh(i a) and b = V^H u, the
    moved diagonal is sum_m V[i, m] exp(-i s lam_m) b[m, i], so s, s/2, s/4
    and s/8 are tried in one call and only the first that passes builds the
    full matrix.  Moving matrices are reunitarized every 128 iterations."""
    t = w * _diag_products(u)
    value, step = t.real - mu * t.imag**2, np.full(len(u), cfg.step_init)
    stall, live, rows = np.zeros(len(u), np.int64), np.ones(len(u), bool), np.arange(len(u))
    for it in range(cfg.max_iterations):
        a, gnorm = _tangent(u, w * (1.0 + 2j * mu * t.imag))
        live &= gnorm >= 1e-11
        if not live.any():
            break
        lam, v = np.linalg.eigh(1j * a)
        lam /= np.where(live, gnorm, 1.0)[:, None]
        b = v.conj().swapaxes(-1, -2) @ u
        c = v * b.swapaxes(-1, -2)
        s = np.minimum(2.0 * step, cfg.step_init)
        found, pending = value, live
        while pending.any():
            trial = s[:, None] * _HALVINGS
            t_try = w * np.multiply.reduce(c @ np.exp(-1j * lam[:, :, None] * trial[:, None, :]), axis=1)
            v_try = t_try.real - mu * t_try.imag**2
            ok = (v_try > value[:, None] + 1e-4 * trial * gnorm[:, None]) & (trial >= 1e-12)
            ok &= pending[:, None]
            hit, first = ok.any(axis=1), ok.argmax(axis=1)
            found = np.where(hit, v_try[rows, first], found)
            s = np.where(hit, trial[rows, first], np.where(pending, s / 16.0, s))
            pending = pending & ~hit & (s >= 1e-12)
        live &= found > value
        u = np.where(live[:, None, None], _moved(v, lam, b, s), u)
        gain, value, step = found - value, found, s
        stall = np.where(gain <= cfg.tol_value * (1.0 + np.abs(value)), stall + 1, 0)
        live &= stall < 3
        if (it + 1) % 128 == 0:
            u = np.where(live[:, None, None], _reunitarize(u), u)
        t = w * _diag_products(u)
    return _reunitarize(u)


def _onto_ray(u: np.ndarray, w: complex, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(matrices, w p) after up to two Newton steps on Im(w p) = 0 along the
    generator that moves it fastest, for each matrix with |Im(w p)| <= tol;
    a step is kept only where it lowers |Im(w p)|: that gradient is 0 at p = 1."""
    t = w * _diag_products(u)
    for _ in range(2):
        a, gnorm = _tangent(u, -1j * w)
        lam, v = np.linalg.eigh(1j * a)
        sigma = np.where(gnorm > 1e-150, -t.imag / np.maximum(gnorm, 1e-150) ** 2, 0.0)
        u_try = _moved(v, lam, v.conj().swapaxes(-1, -2) @ u, sigma)
        t_try = w * _diag_products(u_try)
        keep = (np.abs(t_try.imag) < np.abs(t.imag)) & (np.abs(t.imag) <= tol)
        u = np.where(keep[:, None, None], u_try, u)
        t = np.where(keep, t_try, t)
    return u, t


def constrained_max_numeric(
    n: int,
    theta,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Numerically maximize Re(e^{-i theta} diag product) over SU(n) subject
    to Im(e^{-i theta} diag product) = 0, and compare with the analytic
    boundary radius at ``theta``.

    All restarts run one lockstep penalty ascent on the exact gradient, and
    guarded Newton steps then move each feasible result onto the ray.
    Restarts whose ascent leaves the constraint residual above
    ``tol_constraint`` count as failures; the values, the best matrix and
    ``worst_margin`` = target - best feasible value (negative means the bound
    was exceeded) are taken on the ray.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    cfg = config or OptimizerConfig()
    cfg.validate()
    t0 = time.perf_counter()
    th = float(wrap_angle(theta))
    target = float(abs(gamma(n, alpha_of_theta(n, th))))
    w = complex(np.exp(-1j * th))
    u = _haar_special_unitary_batch(n, seed, cfg.restarts)
    mu = cfg.constraint_penalty_init
    for _ in range(_PENALTY_STAGES):
        u = _penalty_ascent(u, w, mu, cfg)
        mu *= cfg.penalty_growth
    residuals = np.abs((w * _diag_products(u)).imag)
    u, t = _onto_ray(u, w, cfg.tol_constraint)
    details = []
    best = (False, -math.inf, None)
    for r in range(cfg.restarts):
        feasible, value = bool(residuals[r] <= cfg.tol_constraint), float(t[r].real)
        details.append(
            CheckRecord(
                input=f"restart={r} constraint={residuals[r]:.3e} feasible={feasible}",
                measured=value,
                expected=target,
                error=abs(value - target),
            )
        )
        if (feasible, value) > best[:2]:
            best = (feasible, value, u[r])
    return VerificationReport(
        kind="constrained_max",
        n=n,
        trials=cfg.restarts,
        failures=int(np.count_nonzero(~(residuals <= cfg.tol_constraint))),
        worst_margin=target - best[1],
        details=_sorted_details(details),
        seed=seed,
        elapsed=time.perf_counter() - t0,
        best_matrix=best[2],
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
