"""Output checks of the diagprod benchmark.

Every check takes a program output plus what the benchmark knows about the
input, and returns a list of problems (empty means the output is correct).
No check trusts a ``passed`` flag: reports are read field by field, matrices
are re-multiplied, files are parsed back.  Any non-finite number is a
problem, so a NaN can never read as a pass.

The checks call diagprod only through the module handed to them, so the
benchmark can import the package from the checkout under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9  # membership tolerance of c06 and of the CLI defaults
PREIMAGE_TOL = 1e-8  # residual bound of c08
SU_TOL = 1e-10  # special-unitarity bound of c04 and c08
RECOGNITION_TOL = 1e-9  # alpha and projector bounds of c05
RADIUS_TOL = 1e-12  # polar consistency bound of c03
EXPORT_TOL = 1e-12  # parse-back bound for CLI cells


def gamma_closed(n: int, alpha: float) -> complex:
    """Boundary point gamma(alpha), evaluated here independently of diagprod."""
    z = complex(math.cos(alpha), math.sin(alpha))
    return z * (1.0 - (1.0 - z.conjugate()) / n) ** n


def theta_closed(n: int, alpha: float) -> float:
    """Polar angle of gamma(alpha) for n >= 3, evaluated independently."""
    return alpha - n * math.atan(math.sin(alpha) / (n - 1.0 + math.cos(alpha)))


def _wrap(x: float) -> float:
    return math.remainder(x, 2.0 * math.pi)


def nonfinite(*values) -> bool:
    """True if any number in ``values`` (scalars or arrays) is NaN or inf."""
    for v in values:
        a = np.asarray(v)
        if a.dtype == object or not np.isfinite(a).all():
            return True
    return False


def check_report(report, trials: int) -> list[str]:
    """A Monte-Carlo, unit-disk or SO-interval verification report."""
    problems = []
    if report.trials != trials:
        problems.append(f"{report.kind}: ran {report.trials} trials, asked {trials}")
    if report.failures != 0:
        problems.append(f"{report.kind}: {report.failures} failures")
    values = [report.worst_margin]
    for r in report.details:
        values += [r.measured, r.expected, r.error]
    if nonfinite(*values):
        problems.append(f"{report.kind}: non-finite margin or detail value")
    return problems


def check_agreement(polar, winding, n_points: int):
    """Batch polar and winding classifications of the same points.

    Returns (problems, disagreements); the oracles must agree on every point
    whose polar margin lies outside the 2*tol band, as in c06.
    """
    (pc, pm), (wc, wm) = polar, winding
    problems = []
    for name, codes, margins in (("polar", pc, pm), ("winding", wc, wm)):
        if len(codes) != n_points or len(margins) != n_points:
            problems.append(f"{name}: {len(codes)} verdicts for {n_points} points")
            return problems, 0
        if nonfinite(margins):
            problems.append(f"{name}: non-finite margin")
        if not np.isin(codes, (-1, 0, 1)).all():
            problems.append(f"{name}: verdict code outside -1, 0, 1")
    away = np.abs(pm) > 2.0 * TOL
    disagreements = int((pc[away] != wc[away]).sum())
    if disagreements:
        problems.append(f"oracles disagree on {disagreements} points off the band")
    return problems, disagreements


def check_polar(dp, verdict, truth: int | None) -> list[str]:
    """Scalar polar verdict against the side the point was built on.

    ``truth`` is +1 (inside), -1 (outside) or None when the point lies within
    2*tol of the boundary, where any verdict is acceptable.
    """
    if nonfinite(verdict.signed_margin):
        return ["polar: non-finite margin"]
    if truth is None:
        return []
    want = dp.Membership.INSIDE if truth > 0 else dp.Membership.OUTSIDE
    if verdict.status is not want:
        return [f"polar: {verdict.status.value}, point built {want.value}"]
    return []


def check_winding(verdict, polar_verdict, off_band: bool) -> tuple[list[str], int]:
    """Scalar winding verdict; off the band it must equal the polar verdict.

    Returns (problems, disagreements).
    """
    if nonfinite(verdict.signed_margin):
        return ["winding: non-finite margin"], 0
    if off_band and polar_verdict is not None and verdict.status is not polar_verdict.status:
        return [
            f"winding {verdict.status.value} but polar {polar_verdict.status.value}"
        ], 1
    return [], 0


def check_radius(point, theta: float, r_true: float) -> list[str]:
    if nonfinite(point.theta, point.r):
        return ["radius: non-finite output"]
    problems = []
    if abs(point.theta - _wrap(theta)) > 1e-15:
        problems.append(f"radius: theta echoed as {point.theta!r}, asked {theta!r}")
    if abs(point.r - r_true) > RADIUS_TOL:
        problems.append(f"radius: |r - |gamma|| = {abs(point.r - r_true):.3e}")
    return problems


def check_recognition(rec, want) -> list[str]:
    """Recovered extremal decomposition against the one the matrix was built
    from: alpha and the rank-one projector within the c05 bounds."""
    if rec is None:
        return [f"recognition: None for alpha={want.alpha!r}"]
    if nonfinite(rec.alpha, rec.v, rec.diag_phases):
        return ["recognition: non-finite output"]
    problems = []
    err_a = abs(_wrap(rec.alpha - want.alpha))
    if err_a > RECOGNITION_TOL:
        problems.append(f"recognition: alpha error {err_a:.3e} at alpha={want.alpha!r}")
    proj = np.abs(np.outer(rec.v, rec.v.conj()) - np.outer(want.v, want.v.conj())).max()
    if proj > RECOGNITION_TOL:
        problems.append(f"recognition: projector error {proj:.3e}")
    return problems


def check_preimage(dp, u, n: int, z: complex) -> list[str]:
    """Preimage matrix: residual recomputed with diag_product, special unitary."""
    u = np.asarray(u)
    if u.shape != (n, n):
        return [f"preimage: shape {u.shape}, want ({n}, {n})"]
    if nonfinite(u):
        return ["preimage: non-finite entry"]
    problems = []
    residual = abs(dp.diag_product(u) - z)
    if not residual <= PREIMAGE_TOL:
        problems.append(f"preimage: residual {residual:.3e} > {PREIMAGE_TOL:g} for z={z!r}")
    if not dp.is_special_unitary(u, SU_TOL):
        problems.append("preimage: not special unitary at 1e-10")
    return problems


def check_constrained_max(dp, report, n: int, theta: float) -> list[str]:
    """Optimizer report against the analytic maximum, with the c07 bounds.

    The best value is recomputed from the returned matrix, not read from the
    report's margin.
    """
    u = report.best_matrix
    if u is None:
        return ["constrained max: no best matrix"]
    u = np.asarray(u)
    if nonfinite(u, report.worst_margin):
        return ["constrained max: non-finite output"]
    target = abs(dp.gamma(n, dp.alpha_of_theta(n, theta)))
    t = complex(np.exp(-1j * theta)) * dp.diag_product(u)
    best = t.real
    problems = []
    gap_bound = 1e-3 if abs(theta) < 0.1 else 1e-4
    if abs(best - target) > gap_bound:
        problems.append(f"constrained max: gap {best - target:.3e} at theta={theta!r}")
    if best > target + 1e-6:
        problems.append(f"constrained max: overshoot {best - target:.3e} at theta={theta!r}")
    if abs((target - report.worst_margin) - best) > 1e-9:
        problems.append("constrained max: reported margin does not match the matrix")
    if dp.recognize_extremal(u, 1e-4) is None:
        problems.append(f"constrained max: maximizer not recognized at theta={theta!r}")
    return problems


def parse_table(text: str, fmt: str):
    """Parse CLI csv or json output into (parameters, columns, rows array)."""
    if fmt == "json":
        payload = json.loads(text)
        rows = np.array(payload["rows"], np.float64)
        return payload["parameters"], payload["columns"], rows
    lines = text.splitlines()
    params = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            params[key] = value
        else:
            body.append(line)
    columns = body[0].split(",")
    rows = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return params, columns, rows


def expected_boundary(dp, n: int, samples: int) -> np.ndarray:
    alphas = np.linspace(-np.pi, np.pi, samples, endpoint=False)
    values = np.atleast_1d(dp.gamma(n, alphas))
    thetas = np.atleast_1d(dp.theta_of_alpha(n, alphas))
    return np.column_stack([alphas, values.real, values.imag, thetas, np.abs(values)])


def expected_gamma_image(dp, n: int, a_samples: int, y_samples: int) -> np.ndarray:
    alphas = np.linspace(0.0, np.pi, a_samples)
    ys = np.linspace(1.0, n - 1.0, y_samples)
    aa, yy = np.meshgrid(alphas, ys, indexing="ij")
    zs = dp.big_gamma(n, aa, yy)
    jac = dp.jacobian_big_gamma(n, aa, yy)
    return np.column_stack(
        [aa.ravel(), yy.ravel(), zs.real.ravel(), zs.imag.ravel(), jac.ravel()]
    )


def check_export(text: str, fmt: str, expected: np.ndarray, columns: list[str], seed: int) -> list[str]:
    """CLI table output parsed back against values recomputed by diagprod."""
    try:
        params, got_columns, rows = parse_table(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"export: unparseable {fmt}: {exc}"]
    problems = []
    if got_columns != columns:
        problems.append(f"export: columns {got_columns}, want {columns}")
    if str(params.get("seed")) != str(seed):
        problems.append(f"export: header seed {params.get('seed')!r}, want {seed}")
    if rows.shape != expected.shape:
        return problems + [f"export: {rows.shape} cells, want {expected.shape}"]
    if nonfinite(rows):
        return problems + ["export: non-finite cell"]
    err = float(np.abs(rows - expected).max())
    if err > EXPORT_TOL:
        problems.append(f"export: cell error {err:.3e}")
    return problems
