"""Numerical adjudication of the diagonal-product image claims.

Monte-Carlo containment of Haar samples, constructive preimages through the
homotopy family, direct numerical solution of the ray-maximization problem
over SU(n) by multi-start ascent on the level set of its constraint, and
dedicated checks for the unit-disk (unitary) and real-interval (special
orthogonal) images.

All runs are deterministic functions of their seed: per-trial and per-restart
Haar samples come from counter-based streams keyed by ``derive_seed`` (a
SplitMix64 mixer), drawn ``_CHUNK`` at a time by one sampling loop, and every
report is built by one tally whose aggregates are order-independent (counts,
the smallest margin, sorted detail records), so reports do not depend on
``_CHUNK``.  Non-finite products count as failures.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .boundary import radius_of_theta, wrap_angle, _invert_theta
from .boundary import _ipow, _radius_from_alpha
from .constructors import omega_max, _build_u_z_many, _homotopy_matrix, _homotopy_product
from .matrices import (
    derive_seed,
    diag_product,
    is_special_unitary,
    _check_finite,
    _check_n,
    _check_tol,
    _diag_products,
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
)
from .region import so_interval, _classify_su_many

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
_DRAW_BLOCK = 256  # (x, y) pairs in the first rejection-sampling draw


@dataclass(frozen=True)
class CheckRecord:
    """One verification data point: what was fed in, what came out, what was
    wanted, and the (positive = bad) discrepancy."""

    input: str
    measured: float
    expected: float
    error: float

    def to_dict(self) -> dict:
        return asdict(self)


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
        keys = ("kind", "n", "trials", "failures", "worst_margin", "seed")
        out = {k: getattr(self, k) for k in keys}
        out["details"] = [r.to_dict() for r in self.details]
        if self.best_matrix is not None:
            m = np.asarray(self.best_matrix, np.complex128)
            out["best_matrix"] = {"re": m.real.tolist(), "im": m.imag.tolist()}
        return out


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the level-set ascent for the ray-maximization problem: the
    number of Haar restarts and the iteration cap of each."""

    restarts: int = 8
    max_iterations: int = 2000

    def validate(self) -> OptimizerConfig:
        """This config with both fields as ints; ValueError naming the first
        field that is not a positive integer."""
        restarts = _check_n(self.restarts, 1, "restarts")
        return OptimizerConfig(restarts, _check_n(self.max_iterations, 1, "max_iterations"))


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


class _Tally:
    """The report under construction: failure count, smallest margin and
    detail records, and the clock, started with the run."""

    def __init__(self):
        self.t0, self.failures, self.worst, self.details = time.perf_counter(), 0, math.inf, []

    def add(self, record: CheckRecord, failed=False, margin: float = math.inf) -> None:
        """Add one record, counted as a failure if ``failed``, and lower the
        smallest margin to ``margin``."""
        self.details.append(record)
        self.failures += bool(failed)
        self.worst = min(self.worst, float(margin))

    def fail_each(self, bad, label, measured, expected, error, margin: float = math.inf) -> None:
        """A failure at each index i where ``bad`` holds, with the record
        (``label(i)``, ``measured[i]``, ``expected``, ``error[i]``)."""
        for i in np.flatnonzero(bad):
            self.add(CheckRecord(label(i), float(measured[i]), expected, float(error[i])), True)
        self.worst = min(self.worst, float(margin))

    def report(self, kind: str, n: int, trials: int, seed: int, best_matrix=None):
        """The report, its records by decreasing error, then input."""
        details = sorted(self.details, key=lambda r: (-r.error, r.input))
        elapsed = time.perf_counter() - self.t0
        return VerificationReport(
            kind, n, trials, self.failures, self.worst, details, seed, elapsed, best_matrix
        )


def _over_samples(sampler, n: int, seed: int, trials: int, *per_chunk):
    """The diagonal products of ``trials`` samples of ``sampler``, sample i
    from stream i, and the values of each function of ``per_chunk`` on them,
    drawn at most ``_CHUNK`` samples at a time."""
    parts = [[] for _ in range(1 + len(per_chunk))]
    for start in range(0, trials, _CHUNK):
        mats = sampler(n, seed, min(_CHUNK, trials - start), start)
        for part, f in zip(parts, (_diag_products, *per_chunk)):
            part.append(f(mats))
    return [np.concatenate(part) for part in parts]


def monte_carlo_containment(
    n: int, trials: int, seed: int = 0, tol: float = 1e-9
) -> VerificationReport:
    """Sample Haar SU(n) and classify every diagonal product against the
    region; Outside verdicts count as failures."""
    n, trials, seed = _check_n(n, 1), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    tol = _check_tol(tol)
    tally = _Tally()
    (zs,) = _over_samples(_haar_special_unitary_batch, n, seed, trials)
    codes, margins = _classify_su_many(n, zs, tol)
    errors = -tol - margins
    tally.fail_each(codes == -1, lambda i: f"trial={i} z={complex(zs[i])!r}", margins, -tol, errors)
    i = int(np.argmin(margins))
    label, error = f"worst trial={i} z={complex(zs[i])!r}", max(0.0, float(errors[i]))
    tally.add(CheckRecord(label, float(margins[i]), -tol, error), False, margins.min())
    return tally.report("monte_carlo", n, trials, seed)


def _cusp_seeds(n: int, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, q) per nonzero target from the expansion of the homotopy product at the cusp,

        log H = -4x (1 - t/2) + 4i (1 - 1/(n-1)) x^2 cot(alpha/2) (1 - 2t/3) + ...,

    with x = q sin^2(alpha/2) and t = q / q_max, solved for the two
    parameters given log z.  The factors in t are the next order in q, taken
    at small alpha; they matter near the cusp, where alpha is small but q
    need not be, and they make the map fold at t = 1.  Eliminating alpha
    leaves a cubic in t, whose root on the near side of the fold is taken
    (an eigenvalue of its companion matrix, as ``np.roots`` finds it)."""
    log_z = np.log(zs)
    u = np.maximum(-0.25 * log_z.real, 0.0)
    v = 0.25 * log_z.imag / (1.0 - 1.0 / (n - 1.0))
    # v^2 (1 - t/2)^3 = u^3 q_max t (1 - 2t/3)^2, decreasing on [0, 1]; its
    # root tends to t = 0 as v does, and is taken as 0 where k exceeds floats
    rows = np.flatnonzero(v * v > 1e-290)
    k = u[rows] ** 3 * ((n - 1.0) / n) / v[rows] ** 2
    companion = np.zeros((len(rows), 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    p = np.stack([-1.0 / 8.0 - 4.0 * k / 9.0, 0.75 + 4.0 * k / 3.0, -1.5 - k, np.ones_like(k)])
    companion[:, 0] = (-p[1:] / p[0]).T
    roots = np.linalg.eigvals(companion)
    real = np.where((np.abs(roots.imag) <= 1e-9) & (roots.real >= 0.0), roots.real, np.inf)
    t = np.zeros(len(zs))
    t[rows] = np.minimum(real.min(axis=1, initial=np.inf), 1.0)
    x = u / (1.0 - 0.5 * t)
    a = 2.0 * np.copysign(np.arctan2(x * x * (1.0 - 2.0 * t / 3.0), np.abs(v)), v)
    s2 = np.sin(0.5 * a) ** 2
    below = x < s2  # q = min(x / s2, 1), and 0 where s2 = 0
    return a, np.where(below, x / np.where(below, s2, 1.0), np.where(s2 > 0.0, 1.0, 0.0))


def _boundary_seeds(n: int, zs: np.ndarray, alpha_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, q) per target from the boundary point gamma(alpha_b) at the polar
    angle of z.  The boundary is the fold q = q_max = (n-1)/n of the map, where

        H(alpha_b + da, q_max + dq) = gamma(alpha_b) + gamma' da + h dq^2 / 2 + ...,

    with h = d^2H/dq^2 = -(E - 1)^2 B^{n-2} / (E q_max); the two real
    equations are linear in (da, dq^2), and dq is taken on the side q < q_max."""
    q_max = (n - 1.0) / n
    g, g_a, _ = _homotopy_product(n, alpha_b, q_max)
    e = np.exp(1j * alpha_b)
    h = -((e - 1.0) ** 2) / (e * q_max) * _ipow(1.0 - (1.0 - 1.0 / e) / n, n - 2)
    d = zs - g
    det = g_a.real * h.imag - g_a.imag * h.real
    # at alpha_b = 0 the whole line maps to the cusp: the seed is (0, q_max)
    det = np.where(det == 0.0, np.inf, det)
    da = (d.real * h.imag - d.imag * h.real) / det
    half_dq2 = (g_a.real * d.imag - g_a.imag * d.real) / det
    return alpha_b + da, np.maximum(q_max - np.sqrt(2.0 * np.maximum(half_dq2, 0.0)), 0.0)


def _descend(n: int, zs: np.ndarray, a: np.ndarray, q: np.ndarray, max_iter: int = 60):
    """Damped Newton (Levenberg-Marquardt) descent of |H(alpha, q) - z| on
    the exact Jacobian of the homotopy product, for all targets of ``zs`` in
    lockstep from their own (a, q); returns the best (alpha, q, residual).

    Each target makes the trials of a descent run on it alone: a trial that
    lowers its residual is taken and divides its damping lam by 10 (down to
    1e-12), any other (or a singular damped system) multiplies lam by 10,
    and it stops at residual <= 1e-15, lam > 1e16 or ``max_iter`` steps.
    q stays in [0, 1], where every member is special unitary, but may cross
    the fold at q_max, where dH/dq vanishes, as a solution just inside the
    boundary may lie on either side of it.  The diagonal damping shortens
    the wild steps of the nearly singular Jacobian near the cusp."""
    a, q = np.array(a, np.float64), np.array(q, np.float64)
    h, h_a, h_q = _homotopy_product(n, a, q)
    res, lam, steps = np.abs(h - zs), np.full(len(zs), 1e-6), np.zeros(len(zs), np.int64)
    live = np.flatnonzero((res > 1e-15) & (steps < max_iter))
    while live.size:
        # normal equations of the real 2 x 2 system J (da, dq) = (Re f, Im f)
        f, ja, jq, damp = h[live] - zs[live], h_a[live], h_q[live], 1.0 + lam[live]
        j_aq = ja.real * jq.real + ja.imag * jq.imag
        g_a = ja.real * f.real + ja.imag * f.imag
        g_q = jq.real * f.real + jq.imag * f.imag
        m_aa, m_qq = np.abs(ja) ** 2 * damp + 1e-300, np.abs(jq) ** 2 * damp + 1e-300
        det = m_aa * m_qq - j_aq * j_aq
        tried = det > 0.0
        rows, det = live[tried], det[tried]
        a_try = wrap_angle(a[rows] - (m_qq * g_a - j_aq * g_q)[tried] / det)
        q_try = np.clip(q[rows] - (m_aa * g_q - j_aq * g_a)[tried] / det, 0.0, 1.0)
        trial = _homotopy_product(n, a_try, q_try)
        r_try = np.abs(trial[0] - zs[rows])
        taken = r_try < res[rows]
        done = rows[taken]
        a[done], q[done], res[done] = a_try[taken], q_try[taken], r_try[taken]
        h[done], h_a[done], h_q[done] = (v[taken] for v in trial)
        shrunk = np.maximum(lam[done] * 0.1, 1e-12)
        lam[live] *= 10.0
        lam[done], steps[done] = shrunk, steps[done] + 1
        live = live[(res[live] > 1e-15) & (lam[live] <= 1e16) & (steps[live] < max_iter)]
    return a, q, res


def _preimage_many(n: int, zs: np.ndarray, tol: float):
    """The core of :func:`preimage` for a 1-D array of finite targets:
    (alpha, q, residual, stages, outside), the best homotopy parameters per
    target, their residual |H - z|, the (seed name, residual) of each stage
    tried, and the mask of targets that the polar oracle puts Outside at
    max(tol, 1e-12), which are not solved.  theta is inverted once per
    target, for that verdict and for the boundary seed.  Each target
    descends from its seeds in order of initial residual, and a later seed
    runs only for the targets still above ``tol``."""
    m, every, tol_in = len(zs), np.arange(len(zs)), max(tol, 1e-12)
    mod = np.abs(zs)
    alpha_b = _invert_theta(n, np.where(mod > tol_in, np.angle(zs), 0.0))
    outside = _radius_from_alpha(n, alpha_b) - mod < -tol_in
    zs = np.where(outside, 0.0, zs)  # unsolved; 0 keeps their seeds finite
    names = ("boundary seed", "cusp seed", "origin seed")
    seed_a, seed_q = np.full((3, m), np.pi), np.full((3, m), 0.5)  # the origin seed last
    seed_a[0], seed_q[0] = _boundary_seeds(n, zs, alpha_b)
    nonzero = zs != 0.0
    seed_a[1, nonzero], seed_q[1, nonzero] = _cusp_seeds(n, zs[nonzero])
    start = np.abs(_homotopy_product(n, seed_a, seed_q)[0] - zs)
    start[1, ~nonzero] = np.inf  # no cusp seed at z = 0
    alpha, q, best = np.zeros(m), np.zeros(m), np.full(m, np.inf)
    stages: list[list[tuple[str, float]]] = [[] for _ in range(m)]
    for k in np.argsort(start, axis=0, kind="stable"):
        rows = np.flatnonzero((best > tol) & ~outside & np.isfinite(start[k, every]))
        if not rows.size:
            break
        found = _descend(n, zs[rows], seed_a[k[rows], rows], seed_q[k[rows], rows])
        for row, seed, res in zip(rows.tolist(), k[rows].tolist(), found[2].tolist()):
            stages[row].append((names[seed], res))
        better = found[2] < best[rows]
        alpha[rows[better]], q[rows[better]], best[rows[better]] = (v[better] for v in found)
    return alpha, q, best, stages, outside


def preimage(n: int, z, tol: float = 1e-9) -> np.ndarray:
    """Special unitary matrix from the homotopy family whose diagonal product
    is ``z`` up to ``tol`` (z must be inside the region or on its boundary).

    In the coordinates (alpha, q = sin^2 omega) the family's product is
    H = A B^{n-1} with A = 1 + (e^{i alpha} - 1) q and
    B = 1 - (1 - e^{-i alpha}) q / (n-1), so its Jacobian is closed form.
    Damped Newton on that exact Jacobian starts from three closed-form
    seeds, in order of their initial residual, and has no other fallback:
    the cusp seed inverts the expansion of log H near the cusp at 1, the
    boundary seed that of H about the boundary point at the polar angle of
    z, and the origin seed (pi, 1/2) has A = 0, so H = 0, and a nonsingular
    Jacobian (-i/2 B^{n-1}, -2 B^{n-1}) for z = 0 and the targets near it.

    Raises ``ValueError`` for a non-finite target or one outside the region,
    and ``PreimageConvergenceError`` naming each stage tried and the
    residual it reached when none meets ``tol``.
    """
    n, tol = _check_n(n, 3), _check_tol(tol)
    z = _check_finite("z", complex(z))
    alpha, q, best, stages, outside = _preimage_many(n, np.array([z]), tol)
    if outside[0]:
        raise ValueError(f"target {z!r} lies outside the diagonal-product image")
    u = _homotopy_matrix(n, alpha[0], q[0])
    residual = float(best[0]) if best[0] > tol else abs(diag_product(u) - z)
    if residual > tol:
        raise PreimageConvergenceError(residual, stages[0])
    return u


def _interior_points(n: int, count: int, seed: int) -> list[complex]:
    """Rejection-sample strictly interior targets from the unit disk.

    Draws come in blocks of (x, y) pairs, the same stream as one pair per
    draw, and each block is classified by the polar core, whose entries equal
    the scalar oracle; so the points do not depend on the blocks, which are
    sized from the acceptance rate so far (5/4 of the pairs still needed,
    plus ``_DRAW_BLOCK``, at most 2^16).
    """
    rng = np.random.default_rng(derive_seed(seed, 0x1A7E5107))
    points: list[complex] = []
    drawn = block = _DRAW_BLOCK
    while len(points) < count:
        zs = rng.uniform(-1.0, 1.0, (block, 2)).view(np.complex128)[:, 0]
        zs = zs[np.abs(zs) <= 1.0]
        codes, _ = _classify_su_many(n, zs, 1e-9)
        points.extend(complex(z) for z in zs[codes == 1])
        missing, accepted = count - len(points), max(len(points), 1)
        block = min(_DRAW_BLOCK + 5 * missing * drawn // (4 * accepted), 1 << 16)
        drawn += block
    return points[:count]


def verify_preimage(
    n: int, trials: int, seed: int = 0, tol: float = 1e-8
) -> VerificationReport:
    """Solve ``trials`` random interior targets in one call of the preimage core
    and self-check every output: residual within ``tol``, special unitarity at 1e-10."""
    n, trials, seed = _check_n(n, 3), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    tol = _check_tol(tol)
    tally = _Tally()
    points = _interior_points(n, trials, seed)
    alpha, q, residuals, _, _ = _preimage_many(n, np.array(points, np.complex128), tol)
    ok = np.zeros(trials, bool)
    for i in np.flatnonzero(residuals <= tol):
        u = _homotopy_matrix(n, alpha[i], q[i])
        residuals[i] = abs(diag_product(u) - points[i])
        ok[i] = residuals[i] <= tol and is_special_unitary(u, 1e-10)
    worst = float((tol - residuals).min())
    tally.fail_each(~ok, lambda i: f"point={i} z={points[i]!r}", residuals, tol, residuals - tol)
    label = f"worst residual over {trials} points"
    tally.add(CheckRecord(label, tol - worst, tol, max(0.0, -worst)), False, worst)
    return tally.report("preimage", n, trials, seed)


_STEP_GRID = 0.5 ** np.arange(8)  # one call tries the steps s, s/2, ..., s/128
_ROUNDOFF = 1e-15  # |Im(w p)| at which a matrix counts as on the level set
_STEP_INIT = 0.5  # the longest step of a line search
_TOL_VALUE = 1e-12  # relative gain at or below which a kept move counts as stalled
_TOL_CONSTRAINT = 1e-6  # |Im(w p)| above which a restart's end counts as infeasible


@functools.lru_cache(maxsize=None)
def _others(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column k lists the indices other than k; and the off-diagonal mask."""
    return np.array([[i + (i >= k) for k in range(n)] for i in range(n - 1)]), 1.0 - np.eye(n)


def _tangent(u: np.ndarray, w: complex) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of the stack u: the generators a_f = q^H - q and
    a_g = i (q^H + q) along which exp(s a) u raises Re(w p) and Im(w p)
    fastest, p the diagonal product, each at rate sqrt(<a, a> / 2).  p moves
    along X at rate tr(X q), q = w u diag(P), P_k the product of the diagonal
    entries other than the k-th (gathered, not divided), and the diagonal of
    q is dropped, as diagonal phase moves leave p unchanged."""
    idx, off = _others(u.shape[-1])
    q = u * (w * np.multiply.reduce(u.diagonal(0, -2, -1)[:, idx], axis=1))[:, None, :] * off
    qh = q.conj().swapaxes(-1, -2)
    return qh - q, 1j * (qh + q)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = Re sum conj(x) y per matrix of two stacks of complex matrices."""
    return np.einsum("kij,kij->k", x.view(np.float64), y.view(np.float64))


def _moved(v: np.ndarray, lam: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(s a) u per matrix, given (lam, v) = eigh(i a) and b = v^H u."""
    return v @ (np.exp(-1j * s[:, None] * lam)[:, :, None] * b)


def _moved_products(v: np.ndarray, lam: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The diagonal products of exp(s_j a) u for each s_j of row s per matrix,
    as in ``_moved``, from the entries sum_m v[i, m] exp(-i s_j lam_m) b[m, i]."""
    diag = v * b.swapaxes(-1, -2)
    return np.multiply.reduce(diag @ np.exp(-1j * lam[:, :, None] * s[:, None, :]), axis=1)


def _reunitarize(u: np.ndarray) -> np.ndarray:
    # one Newton-Schulz step; squares the (tiny) orthonormality defect
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def _retract(u: np.ndarray, w: complex, t: np.ndarray, steps: int):
    """(matrices, w p), given t = w p, after up to ``steps`` Newton steps on
    Im(w p) = 0: exp(sigma a_g) u, sigma = -Im(w p) / (<a_g, a_g> / 2) 2^-k
    with k = 0..7 giving the least |Im(w p)|, kept only where that is lower
    (a_g vanishes at p = 1) and taken only where it exceeds ``_ROUNDOFF``."""
    for _ in range(steps):
        need = np.abs(t.imag) > _ROUNDOFF
        if not need.any():
            break
        a_g = _tangent(u, w)[1]
        sigma = -t.imag / np.maximum(0.5 * _inner(a_g, a_g), 1e-300)
        trial = sigma[:, None] * _STEP_GRID
        lam, v = np.linalg.eigh(1j * a_g)
        b = v.conj().swapaxes(-1, -2) @ u
        pick = np.abs((w * _moved_products(v, lam, b, trial)).imag).argmin(axis=1)
        u_try = _moved(v, lam, b, np.take_along_axis(trial, pick[:, None], 1)[:, 0])
        t_try = w * _diag_products(u_try)
        keep = need & (np.abs(t_try.imag) < np.abs(t.imag))
        u, t = np.where(keep[:, None, None], u_try, u), np.where(keep, t_try, t)
    return u, t


def _level_set_ascent(u: np.ndarray, w: complex, cfg: OptimizerConfig) -> np.ndarray:
    """Ascent of Re(w p) on the level set Im(w p) = 0, p the diagonal product,
    for all matrices of the stack u in lockstep (stopped ones are masked),
    each first moved onto it by six ``_retract`` steps.  a = a_f - c a_g,
    c = <a_f, a_g> / <a_g, a_g>, keeps Im(w p) fixed to first order and is
    the gradient of the merit Re(w p) - c Im(w p); d = a + beta d_prev, beta
    the Polak-Ribiere+ max(0, <a, a - a_prev>) / <a_prev, a_prev>, or d = a
    where <a, d> <= 0.  exp(s d / |d|) u, |d| = sqrt(<d, d> / 2), is tried at
    s = min(4 step, _STEP_INIT) 2^-k, k = 0..7, in one call, the best that
    raises the merit by 1e-4 s <a, d> / (2 |d|) taken (Armijo), else s / 256
    down to 1e-12.  The move is kept only if two ``_retract`` steps bring
    |Im(w p)| to max(``_ROUNDOFF``, 1/100 of it before them, 1/2 of it before
    the move), else u stays and its step is divided by 16.  That holds the
    path off p = 1 (the diagonal matrices, where a_g vanishes), which a bound
    of ``_TOL_CONSTRAINT`` does not for |theta| near it.  Only kept moves count
    toward the stall rule.  The ends are reunitarized, then retracted."""
    u, t = _retract(u, w, w * _diag_products(u), 6)
    step = np.full(len(u), _STEP_INIT)
    stall, live, rows = np.zeros(len(u), np.int64), np.ones(len(u), bool), np.arange(len(u))
    d, a_prev, aa_prev = np.zeros_like(u), np.zeros_like(u), np.inf  # beta = 0 at first
    for _ in range(cfg.max_iterations):
        a_f, a_g = _tangent(u, w)
        c = _inner(a_f, a_g) / np.maximum(_inner(a_g, a_g), 1e-300)
        a = a_f - c[:, None, None] * a_g
        aa = _inner(a, a)
        live &= aa >= 2e-22  # a rate of at least 1e-11
        if not live.any():
            break
        d = a + (np.maximum(aa - _inner(a, a_prev), 0.0) / aa_prev)[:, None, None] * d
        ad = _inner(a, d)
        d, ad = np.where((ad > 0.0)[:, None, None], d, a), np.where(ad > 0.0, ad, aa)
        dnorm = np.where(live, np.sqrt(0.5 * _inner(d, d)), 1.0)
        a_prev, aa_prev = a, np.where(live, aa, np.inf)
        lam, v = np.linalg.eigh(1j * d / dnorm[:, None, None])
        b = v.conj().swapaxes(-1, -2) @ u
        value, s = t.real - c * t.imag, np.minimum(4.0 * step, _STEP_INIT)
        found, pending, rate = value, live, 1e-4 * ad / (2.0 * dnorm)
        while pending.any():
            trial = s[:, None] * _STEP_GRID
            t_try = w * _moved_products(v, lam, b, trial)
            v_try = t_try.real - c[:, None] * t_try.imag
            ok = (v_try > value[:, None] + rate[:, None] * trial) & (trial >= 1e-12)
            ok &= pending[:, None]
            hit, best = ok.any(axis=1), np.where(ok, v_try, -np.inf).argmax(axis=1)
            found = np.where(hit, v_try[rows, best], found)
            s = np.where(hit, trial[rows, best], np.where(pending, s / 256.0, s))
            pending = pending & ~hit & (s >= 1e-12)
        live &= found > value
        u_new = _moved(v, lam, b, s)
        t_new = w * _diag_products(u_new)
        u_new, t_ret = _retract(u_new, w, t_new, 2)
        bound = np.maximum(_ROUNDOFF, np.maximum(0.01 * np.abs(t_new.imag), 0.5 * np.abs(t.imag)))
        kept = live & (np.abs(t_ret.imag) <= bound)
        slow = t_ret.real - t.real <= _TOL_VALUE * (1.0 + np.abs(t_ret.real))
        u, t = np.where(kept[:, None, None], u_new, u), np.where(kept, t_ret, t)
        step = np.where(kept, s, np.where(live, s / 16.0, step))
        stall = np.where(kept, np.where(slow, stall + 1, 0), stall)
        live &= stall < 3
    u = _reunitarize(u)  # squares the sum of the moves' rounding defects
    return _retract(u, w, w * _diag_products(u), 2)[0]


def constrained_max_numeric(
    n: int,
    theta,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Numerically maximize Re(e^{-i theta} diag product) over SU(n) subject
    to Im(e^{-i theta} diag product) = 0, and compare with the analytic
    boundary radius at ``theta``.

    All restarts run one lockstep ascent that keeps each iterate on the
    level set Im(e^{-i theta} diag product) = 0: Polak-Ribiere+ conjugate
    gradient on the projection of the exact gradient, the best of eight
    steps per line search, and guarded Newton steps back onto the level set
    after each move.  Restarts that end with the constraint residual above
    1e-6 count as failures; the values, the best matrix and
    ``worst_margin`` = target - best feasible value (negative means the bound
    was exceeded) are read at the ends of the ascents.
    """
    n, seed = _check_n(n, 3), _check_n(seed, name="seed")
    cfg = (config or OptimizerConfig()).validate()
    tally = _Tally()
    th = float(wrap_angle(_check_finite("theta", theta)))
    target = radius_of_theta(n, th).r
    w = complex(np.exp(-1j * th))
    u = _level_set_ascent(_haar_special_unitary_batch(n, seed, cfg.restarts), w, cfg)
    t = w * _diag_products(u)
    residuals = np.abs(t.imag)
    best = (False, -math.inf, None)
    for r in range(cfg.restarts):
        feasible, value = bool(residuals[r] <= _TOL_CONSTRAINT), float(t[r].real)
        label = f"restart={r} constraint={residuals[r]:.3e} feasible={feasible}"
        tally.add(CheckRecord(label, value, target, abs(value - target)), not feasible)
        if (feasible, value) > best[:2]:
            best = (feasible, value, u[r])
    tally.worst = target - best[1]  # at the best feasible value, not a minimum
    return tally.report("constrained_max", n, cfg.restarts, seed, best[2])


def _off_diagonal_max(mats: np.ndarray) -> np.ndarray:
    """Largest off-diagonal modulus of each matrix of a stack."""
    off, idx = np.abs(mats), np.arange(mats.shape[-1])
    off[:, idx, idx] = 0.0
    return off.max(axis=(1, 2))


def verify_unit_disk(
    n: int, trials: int, seed: int = 0, grid: int = 41
) -> VerificationReport:
    """Unit-disk image checks for U(n): Haar products stay in the closed disk,
    the 2x2-block construction reproduces every grid target in the disk, and
    any sample with a non-negligible off-diagonal entry has product modulus
    strictly below 1."""
    n, trials, seed = _check_n(n, 2), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    grid = _check_n(grid, 2, "grid")
    tally = _Tally()
    zs, offmax = _over_samples(_haar_unitary_batch, n, seed, trials, _off_diagonal_max)
    mods = np.abs(zs)
    # a non-finite modulus is recorded as inf, so it fails the bound
    mods[~np.isfinite(mods)] = np.inf
    margin_a = (1.0 + 1e-12) - mods
    tally.fail_each(margin_a < 0.0, lambda i: f"haar trial={i} |product|", mods, 1.0, mods - 1.0)
    top = float(mods.max())
    label = f"max |product| over {trials} Haar samples"
    tally.add(CheckRecord(label, top, 1.0, max(0.0, top - 1.0 - 1e-12)), False, margin_a.min())

    margin_c = np.where(offmax > 1e-3, (1.0 - 1e-9) - mods, math.inf)
    tally.fail_each(
        margin_c < 0.0,
        lambda i: f"haar trial={i} off-diagonal {offmax[i]:.3e} but near-unit product",
        mods,
        1.0 - 1e-9,
        mods - (1.0 - 1e-9),
        margin_c.min(),
    )

    axis = np.linspace(-1.0, 1.0, grid)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    zs = zs[np.hypot(zs.real, zs.imag) <= 1.0]
    # at most _CHUNK matrices at a time, as for the Haar samples
    parts = np.array_split(zs, len(zs) // _CHUNK + 1)
    miss = np.concatenate([_diag_products(_build_u_z_many(n, p)) for p in parts]) - zs
    errs = np.hypot(miss.real, miss.imag)
    tally.fail_each(
        errs > 1e-12, lambda i: f"disk grid z={complex(zs[i])!r}", errs, 0.0, errs - 1e-12
    )
    top = float(errs.max(initial=0.0))
    label = "max |product - z| over disk grid"
    tally.add(CheckRecord(label, top, 0.0, max(0.0, top - 1e-12)), False, 1e-12 - top)
    return tally.report("unit_disk", n, trials, seed)


def verify_so_interval(
    n: int, sweep: int = 10000, trials: int = 10000, seed: int = 0
) -> VerificationReport:
    """Real-interval image checks for SO(n): the homotopy sweep at the
    half-turn angle covers the interval with small gaps, Haar samples land
    inside it, and the stated sign/reflection constructions hit both
    endpoints."""
    n, trials, seed = _check_n(n, 2), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    sweep = _check_n(sweep, 2, "sweep")
    tally = _Tally()
    lo, hi = so_interval(n)

    omegas = np.linspace(0.0, omega_max(n), sweep)
    c2 = np.cos(omegas) ** 2
    s2 = np.sin(omegas) ** 2
    vals = -(1.0 - 2.0 * c2) * (1.0 - 2.0 * s2 / (n - 1.0)) ** (n - 1)
    gap = float(np.diff(np.sort(vals)).max())
    # the sweep v falls monotonically from 1 to lo, so by the mean-value
    # theorem no gap exceeds the step in omega times the largest |dv/domega|,
    # dv/domega = -4 sin(2 omega) (1 - q n/(n-1)) (1 - 2q/(n-1))^(n-2) with
    # q = sin^2 omega; taken on 10001 angles, raised by 1e-3 for what they miss
    w = np.linspace(0.0, omega_max(n), 10001)
    q = np.sin(w) ** 2
    slope = np.abs(4.0 * np.sin(2.0 * w) * (1.0 - q * n / (n - 1.0)))
    slope *= (1.0 - 2.0 * q / (n - 1.0)) ** (n - 2)
    gap_bound = (1.0 + 1e-3) * (omegas[1] - omegas[0]) * float(slope.max())
    tally.add(
        CheckRecord(f"sweep coverage, {sweep} steps", gap, gap_bound, max(0.0, gap - gap_bound)),
        gap >= gap_bound,
        gap_bound - gap,
    )
    for name, got, want in (
        ("sweep upper endpoint", float(vals.max()), hi),
        ("sweep lower endpoint", float(vals.min()), lo),
    ):
        err = abs(got - want)
        tally.add(CheckRecord(name, got, want, err), err > 1e-9)

    (pds,) = _over_samples(_haar_special_orthogonal_batch, n, seed, trials)
    pds = np.real(pds)
    # a non-finite product is recorded as inf, so it lies outside the interval
    pds[~np.isfinite(pds)] = np.inf
    tally.fail_each(
        ~((pds >= lo - 1e-9) & (pds <= hi + 1e-9)),
        lambda i: f"haar trial={i} product outside interval",
        pds,
        lo,
        np.maximum(lo - pds, pds - hi),
    )
    least = float(np.minimum(pds - lo, hi - pds).min())
    label = f"min interval margin over {trials} Haar samples"
    tally.add(CheckRecord(label, least, 0.0, max(0.0, -(least + 1e-9))), False, least + 1e-9)

    signs = np.ones(n)
    signs[0] = signs[1] = -1.0
    upper = float(np.prod(signs))
    u_vec = np.full(n, 1.0 / math.sqrt(n))
    sigma = np.ones(n)
    sigma[0] = -1.0
    reflect = (np.eye(n) - 2.0 * np.outer(u_vec, u_vec)) * sigma[None, :]
    lower = float(np.real(diag_product(reflect)))
    for name, got, want in (
        ("diagonal signs with even product", upper, hi),
        ("reflection times odd signs", lower, lo),
    ):
        err = abs(got - want)
        tally.add(CheckRecord(name, got, want, err), err > 1e-12, 1e-12 - err)
    return tally.report("so_interval", n, trials, seed)
