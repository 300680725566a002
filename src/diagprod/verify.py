"""Numerical adjudication of the diagonal-product image claims.

Monte-Carlo containment of Haar samples, constructive preimages through the
homotopy family, direct numerical solution of the ray-maximization problem
over SU(n) by multi-start ascent on the level set of its constraint, and
dedicated checks for the unit-disk (unitary) and real-interval (special
orthogonal) images.

All runs are deterministic functions of their seed: per-trial and per-restart
Haar samples come from counter-based streams keyed by ``derive_seed`` (a
SplitMix64 mixer).  Every stack of matrices a verifier checks (Haar samples,
disk-grid blocks, rebuilt preimages) is built ``_chunk(n)`` matrices at a
time by one chunk loop, and every report is built by one tally whose
aggregates are order-independent (counts, the smallest margin, sorted detail
records), so reports do not depend on the chunk size.  Non-finite products count as failures.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .boundary import _angles, _ipow, _radius_many, _wrap_angle
from .constructors import omega_max, _build_u_z_many, _homotopy_matrices, _homotopy_product
from .matrices import (
    derive_seed,
    _check_finite,
    _check_n,
    _check_tol,
    _diag_products,
    _haar_special_orthogonal_batch,
    _haar_special_unitary_batch,
    _haar_unitary_batch,
    _off_diagonal_max,
    _unitarity_errors,
)
from .region import so_interval, _classify_su_many, _polar_margins

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
        self.lower(margin)

    def lower(self, margin: float) -> None:
        """Lower the smallest margin to ``margin``; a NaN margin, which no
        comparison would keep, lowers it to -inf."""
        self.worst = min(self.worst, -math.inf if math.isnan(margin) else float(margin))

    def fail_each(self, bad, label, measured, expected, error) -> None:
        """A failure at each index i where ``bad`` holds, with the record
        (``label(i)``, ``measured[i]``, ``expected``, ``error[i]``)."""
        for i in np.flatnonzero(bad):
            self.add(CheckRecord(label(i), float(measured[i]), expected, float(error[i])), True)

    def report(self, kind: str, n: int, trials: int, seed: int, best_matrix=None):
        """The report, its records by decreasing error, then input."""
        details = sorted(self.details, key=lambda r: (-r.error, r.input))
        elapsed = time.perf_counter() - self.t0
        return VerificationReport(
            kind, n, trials, self.failures, self.worst, details, seed, elapsed, best_matrix
        )


def _chunk(n: int) -> int:
    """How many n x n matrices one stack of ``_over_chunks`` holds: the Haar
    samples of the three Haar verifiers, the 2x2-block matrices of the disk
    grid and the rebuilt homotopy matrices of the preimage check.  At most
    ``_CHUNK``, and at most about 640k entries a stack (10 MB complex), so
    8192 for n <= 8 and 64 for n = 100; building and checking a stack holds
    a few such stacks at once."""
    return min(_CHUNK, max(1, 640_000 // (n * n)))


def _over_chunks(build, n: int, count: int, *per_chunk):
    """The diagonal products of ``count`` matrices, and the values of each
    function of ``per_chunk`` on them, built ``_chunk(n)`` at a time:
    ``build(size, start)`` stacks matrices ``start`` to ``start + size - 1``.
    Every stack a verifier checks comes from here: the Haar samples of
    ``monte_carlo_containment``, ``verify_unit_disk`` and
    ``verify_so_interval``, the disk grid's 2x2-block matrices and the
    homotopy matrices that the preimage core rebuilds; ``count`` is at
    least 1."""
    parts = [[] for _ in range(1 + len(per_chunk))]
    for start in range(0, count, _chunk(n)):
        mats = build(min(_chunk(n), count - start), start)
        for part, f in zip(parts, (_diag_products, *per_chunk)):
            part.append(f(mats))
        del mats  # not held while the next chunk is built
    return [np.concatenate(part) for part in parts]


def monte_carlo_containment(
    n: int, trials: int, seed: int = 0, tol: float = 1e-9
) -> VerificationReport:
    """Sample Haar SU(n) and classify every diagonal product against the
    region; Outside verdicts count as failures."""
    n, trials, seed = _check_n(n, 1), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    tol = _check_tol(tol)
    tally = _Tally()
    (zs,) = _over_chunks(functools.partial(_haar_special_unitary_batch, n, seed), n, trials)
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
        a_try = _wrap_angle(a[rows] - (m_qq * g_a - j_aq * g_q)[tried] / det)
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


def _preimage_many(n: int, zs: np.ndarray, tol: float, *per_chunk):
    """The core of :func:`preimage` for a 1-D array of finite targets:
    (alpha, q, residual, stages, outside, *values), the best homotopy
    parameters per target, their residual, the (seed name, residual) of each
    stage tried, the mask of targets that the polar oracle puts Outside at
    max(tol, 1e-12), which are not solved, and the value of each function of
    ``per_chunk`` on the rebuilt matrices.  One call of the polar margins
    gives that verdict and the boundary seed's curve parameter, so theta is
    inverted once per target.  Each target descends from its seeds in order
    of initial residual, and a later seed runs only for the targets still
    above ``tol``.  Every target's matrix is then rebuilt, one chunk at a
    time, and a solved target's residual is re-measured as |product - z| of
    its rebuilt matrix; an unsolved one keeps the closed-form |H - z|."""
    m, every, tol_in = len(zs), np.arange(len(zs)), max(tol, 1e-12)
    alpha_b, margins = _polar_margins(n, zs, tol_in)
    outside = margins < -tol_in
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

    def build(size, i):
        return _homotopy_matrices(n, alpha[i : i + size], q[i : i + size])

    products, *values = _over_chunks(build, n, m, *per_chunk)
    miss, solved = products - zs, best <= tol
    best[solved] = np.hypot(miss.real, miss.imag)[solved]  # Python's abs, bit for bit
    return alpha, q, best, stages, outside, *values


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
    _, _, residual, stages, outside, u = _preimage_many(n, np.array([z]), tol, lambda u: u)
    if outside[0]:
        raise ValueError(f"target {z!r} lies outside the diagonal-product image")
    if residual[0] > tol:
        raise PreimageConvergenceError(float(residual[0]), stages[0])
    return u[0]


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
    and self-check every output: residual within ``tol``, special unitarity at 1e-10.
    The core rebuilds every target's matrix, one chunk at a time, and
    re-measures the residual of each solved one; the unitarity errors are
    taken on the same chunks, and an unsolved target fails.  The margin of a
    target is tol - residual, and that of a failed one at most 1e-10 - its
    unitarity error, so a failure always makes ``worst_margin`` negative."""
    n, trials, seed = _check_n(n, 3), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    tol = _check_tol(tol)
    tally = _Tally()
    points = _interior_points(n, trials, seed)
    zs = np.array(points, np.complex128)
    _, _, residuals, _, _, su_error = _preimage_many(
        n, zs, tol, lambda u: _unitarity_errors(u).max(-1)
    )
    ok = (residuals <= tol) & (su_error <= 1e-10)
    margin = np.where(ok, tol - residuals, np.minimum(tol - residuals, 1e-10 - su_error))
    tally.fail_each(~ok, lambda i: f"point={i} z={points[i]!r}", residuals, tol, residuals - tol)
    tally.lower(margin.min())
    label = f"worst residual over {trials} points"
    tally.add(CheckRecord(label, tol - tally.worst, tol, max(0.0, -tally.worst)))
    return tally.report("preimage", n, trials, seed)


_STEP_GRID = 0.5 ** np.arange(8)  # one call tries the steps s, s/2, ..., s/128
_ROUNDOFF = 1e-15  # the least |arg(w p)| and gain in log|p| that count as nonzero
_STEP_INIT = 0.5  # the longest step of a line search
_TOL_CONSTRAINT = 1e-6  # |Im(w p)| above which a restart's end counts as infeasible
_TOL_GAP = 1e-4  # how far the best feasible value may fall short of the analytic maximum
_TOL_OVERSHOOT = 1e-6  # how far it may exceed it


def _roundoff(n: int) -> float:
    """The rounding error of log(w p), p a product of n diagonal entries: n
    units in the last place of 1, and at least ``_ROUNDOFF``.  |arg(w p)|
    this small counts as on the level set, and a gain in log|p| this small
    as none."""
    return max(_ROUNDOFF, n * 2.0**-52)


@functools.lru_cache(maxsize=None)
def _others(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column k lists the indices other than k; and the off-diagonal mask."""
    return np.array([[i + (i >= k) for k in range(n)] for i in range(n - 1)]), 1.0 - np.eye(n)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = Re sum conj(x) y per matrix of two stacks of complex matrices."""
    return np.einsum("kij,kij->k", x.view(np.float64), y.view(np.float64))


def _log_tangent(u: np.ndarray, w: complex, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of the stack u, given t = w p, p the diagonal product: the
    generators a_f' and a_g' along which exp(s a) u raises log|w p| and
    arg(w p) fastest, each at rate sqrt(<a, a> / 2).  p moves along X at rate
    tr(X q), q = w u diag(P), P_k the product of the diagonal entries other
    than the k-th (gathered, not divided), with the diagonal of q dropped, as
    diagonal phase moves leave p unchanged; so a_f = q^H - q and
    a_g = i (q^H + q) raise Re(w p) and Im(w p), and turned by 1/t = x + i y,
    a_f' = x a_f - y a_g and a_g' = x a_g + y a_f, their rates are relative
    to |p|.  At t = 1 they are a_f and a_g."""
    idx, off = _others(u.shape[-1])
    q = u * (w * np.multiply.reduce(u.diagonal(0, -2, -1)[:, idx], axis=1))[:, None, :] * off
    qh = q.conj().swapaxes(-1, -2)
    a_f, a_g = qh - q, 1j * (qh + q)
    x, y = (1.0 / t).real[:, None, None], (1.0 / t).imag[:, None, None]
    return x * a_f - y * a_g, x * a_g + y * a_f


def _best_move(u: np.ndarray, w: complex, a: np.ndarray, trial: np.ndarray, score):
    """The line search: (exp(s a) u, w p of it, s, allowed) per matrix of the
    stack u, s the step of its row of ``trial`` whose move ``score`` rates
    highest (the first of equals).  One eigh gives (lam, v) = eigh(i a), and
    with b = v^H u the diagonal product of exp(s_j a) u for every step s_j is
    prod_i sum_m v[i, m] exp(-i s_j lam_m) b[m, i]; ``score`` maps those
    values of w p to scores, -inf for a step it does not allow, and
    ``allowed`` says whether any step was.  Only the picked matrix is built."""
    lam, v = np.linalg.eigh(1j * a)
    b = v.conj().swapaxes(-1, -2) @ u
    moves = np.exp(-1j * lam[:, :, None] * trial[:, None, :])
    scores = score(w * np.multiply.reduce((v * b.swapaxes(-1, -2)) @ moves, axis=1))
    step = trial[np.arange(len(trial)), scores.argmax(axis=1)]
    u_new = v @ (np.exp(-1j * step[:, None] * lam)[:, :, None] * b)
    return u_new, w * _diag_products(u_new), step, scores.max(axis=1) > -np.inf


def _retract(u: np.ndarray, w: complex, t: np.ndarray, steps: int):
    """(matrices, w p), given t = w p, after up to ``steps`` Newton steps on
    arg(w p) = 0: exp(sigma a_g') u, sigma = -arg(w p) / (<a_g', a_g'> / 2) 2^-k
    with k = 0..7 giving the least |arg(w p)| (``_best_move``), kept only where
    that is lower (a_g' vanishes at p = 1).  Only the matrices where
    |arg(w p)| exceeds ``_roundoff(n)`` are gathered, decomposed and moved;
    the stacks returned are new."""
    u, t, eps = u.copy(), t.copy(), _roundoff(u.shape[-1])
    for _ in range(steps):
        rows = np.flatnonzero(np.abs(np.angle(t)) > eps)
        if not rows.size:
            break
        arg = np.angle(t[rows])
        a_g = _log_tangent(u[rows], w, t[rows])[1]
        trial = (-arg / np.maximum(0.5 * _inner(a_g, a_g), 1e-300))[:, None] * _STEP_GRID
        u_try, t_try = _best_move(u[rows], w, a_g, trial, lambda z: -np.abs(np.angle(z)))[:2]
        keep = np.abs(np.angle(t_try)) < np.abs(arg)
        u[rows[keep]], t[rows[keep]] = u_try[keep], t_try[keep]
    return u, t


def _level_set_ascent(u: np.ndarray, w: complex, cfg: OptimizerConfig) -> np.ndarray:
    """Ascent of log|p| on the level set arg(w p) = 0, p the diagonal product,
    for all matrices of the stack u in lockstep, each first moved onto it by
    six ``_retract`` steps.  With (a_f', a_g') from ``_log_tangent``,
    a = a_f' - c a_g', c = <a_f', a_g'> / <a_g', a_g'>, keeps arg(w p) fixed
    to first order and is the gradient of the merit log|p| - c arg(w p);
    every rate is relative to |p|, so a start with |p| near 0 (large n) moves
    as one near 1 does.  ``_best_move`` tries exp(s a / |a|) u,
    |a| = sqrt(<a, a> / 2), at s 2^-k, k = 0..7, and takes the best that
    raises the merit by 1e-4 s |a| (Armijo); where none does, the next
    iteration starts from s / 256.  The move is kept only if two ``_retract``
    steps bring |arg(w p)| to max(``_roundoff(n)``, 1/100 of it before them,
    1/2 of it before the move), else u stays and the next s is a quarter of
    the step tried.  That holds the path off p = 1 (the diagonal matrices,
    where a_g' vanishes), which a bound of ``_TOL_CONSTRAINT`` does not for
    |theta| near it.  After a kept move the next s is min(4 s, ``_STEP_INIT``).  A
    restart stops for good once its rate |a| falls below 1e-11 or its s below
    1e-12, tested right after its tangent, or once a kept move gains at most
    ``_roundoff(n)`` in log|p|, that is nothing: convergence is linear, so a
    restart stopped at a gain of some tolerance can lie several times that
    below its maximum.  Only the live ones, listed by index, are decomposed,
    moved and retracted.  The ends are retracted twice more."""
    eps = _roundoff(u.shape[-1])
    u, t = _retract(u, w, w * _diag_products(u), 6)
    s, live = np.full(len(u), _STEP_INIT), np.arange(len(u))
    for _ in range(cfg.max_iterations):
        a_f, a_g = _log_tangent(u[live], w, t[live])
        c = _inner(a_f, a_g) / np.maximum(_inner(a_g, a_g), 1e-300)
        a = a_f - c[:, None, None] * a_g
        aa = _inner(a, a)
        go = (aa >= 2e-22) & (s[live] >= 1e-12)  # a rate of at least 1e-11, a step of 1e-12
        live, c, a, norm = live[go], c[go], a[go], np.sqrt(0.5 * aa[go])
        if not live.size:
            break
        t0, trial = t[live], s[live, None] * _STEP_GRID
        floor = (np.log(np.abs(t0)) - c * np.angle(t0))[:, None] + 1e-4 * norm[:, None] * trial

        def score(z):
            merit = np.log(np.abs(z)) - c[:, None] * np.angle(z)
            return np.where(merit > floor, merit, -np.inf)

        u_new, t_new, step, hit = _best_move(u[live], w, a / norm[:, None, None], trial, score)
        u_new, t_ret = _retract(u_new, w, t_new, 2)
        bound = np.maximum(0.01 * np.abs(np.angle(t_new)), 0.5 * np.abs(np.angle(t0)))
        kept = hit & (np.abs(np.angle(t_ret)) <= np.maximum(bound, eps))
        u[live[kept]], t[live[kept]] = u_new[kept], t_ret[kept]
        missed = np.where(hit, step / 4.0, s[live] / 256.0)
        s[live] = np.where(kept, np.minimum(4.0 * step, _STEP_INIT), missed)
        live = live[~kept | (np.log(np.abs(t_ret / t0)) > eps)]
    return _retract(u, w, t, 2)[0]


def constrained_max_numeric(
    n: int,
    theta,
    config: OptimizerConfig | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Numerically maximize Re(e^{-i theta} diag product) over SU(n) subject
    to Im(e^{-i theta} diag product) = 0, and compare with the analytic
    boundary radius at ``theta``.

    All restarts run one lockstep ascent of log|diag product| that keeps
    each iterate on the level set arg(e^{-i theta} diag product) = 0:
    projected steepest ascent on the exact gradient, the best of eight steps
    per iteration, and guarded Newton steps back onto the level set after
    each move.  Working with log(e^{-i theta} diag product) makes every rate
    relative to |diag product|, which is near 1e-16 at a Haar start for
    large n.  Restarts that end with |Im(e^{-i theta} diag product)| above
    1e-6 count as failures; the values, the best matrix and
    ``worst_margin`` = target - best feasible value (negative means the bound
    was exceeded) are read at the ends of the ascents.  The best restart's
    record also counts as a failure when ``worst_margin`` lies outside
    [-1e-6, 1e-4]: the best feasible value missed the analytic maximum by
    more than 1e-4 or overshot it by more than 1e-6.
    """
    n, seed = _check_n(n, 3), _check_n(seed, name="seed")
    cfg = (config or OptimizerConfig()).validate()
    tally = _Tally()
    th = float(_angles("theta", theta))
    target = float(_radius_many(n, np.array([th]))[1][0])
    w = complex(np.exp(-1j * th))
    u = _level_set_ascent(_haar_special_unitary_batch(n, seed, cfg.restarts), w, cfg)
    t = w * _diag_products(u)
    residuals = np.abs(t.imag)
    feasible = residuals <= _TOL_CONSTRAINT
    best = max(range(cfg.restarts), key=lambda r: (feasible[r], t[r].real))
    gap = float(target - t[best].real)  # at the best feasible value, not a minimum
    failed = ~feasible
    failed[best] |= not -_TOL_OVERSHOOT <= gap <= _TOL_GAP
    for r in range(cfg.restarts):
        value = float(t[r].real)
        label = f"restart={r} constraint={residuals[r]:.3e} feasible={feasible[r]}"
        tally.add(CheckRecord(label, value, target, abs(value - target)), failed[r])
    tally.worst = gap
    return tally.report("constrained_max", n, cfg.restarts, seed, u[best])


def verify_unit_disk(
    n: int, trials: int, seed: int = 0, grid: int = 41
) -> VerificationReport:
    """Unit-disk image checks for U(n): Haar products stay in the closed disk,
    the 2x2-block construction reproduces every grid target in the disk, and
    any sample with a non-negligible off-diagonal entry has product modulus
    strictly below 1.  ``grid`` is at least 3, so the ``grid`` x ``grid``
    grid on [-1, 1]^2 has a point in the disk (grid 2 has only the corners)."""
    n, trials, seed = _check_n(n, 2), _check_n(trials, 1, "trials"), _check_n(seed, name="seed")
    grid = _check_n(grid, 3, "grid")
    tally = _Tally()
    haar = functools.partial(_haar_unitary_batch, n, seed)
    zs, offmax = _over_chunks(haar, n, trials, _off_diagonal_max)
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
    )
    tally.lower(margin_c.min())

    axis = np.linspace(-1.0, 1.0, grid)
    zs = (axis[:, None] + 1j * axis[None, :]).ravel()
    zs = zs[np.hypot(zs.real, zs.imag) <= 1.0]
    (products,) = _over_chunks(lambda size, i: _build_u_z_many(n, zs[i : i + size]), n, len(zs))
    miss = products - zs
    errs = np.hypot(miss.real, miss.imag)
    tally.fail_each(
        errs > 1e-12, lambda i: f"disk grid z={complex(zs[i])!r}", errs, 0.0, errs - 1e-12
    )
    top = float(errs.max())
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

    (pds,) = _over_chunks(functools.partial(_haar_special_orthogonal_batch, n, seed), n, trials)
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
    lower = float(np.real(_diag_products(reflect)))
    for name, got, want, bound in (
        ("sweep upper endpoint", float(vals.max()), hi, 1e-9),
        ("sweep lower endpoint", float(vals.min()), lo, 1e-9),
        ("diagonal signs with even product", upper, hi, 1e-12),
        ("reflection times odd signs", lower, lo, 1e-12),
    ):
        err = abs(got - want)
        tally.add(CheckRecord(name, got, want, err), err > bound, bound - err)
    return tally.report("so_interval", n, trials, seed)
