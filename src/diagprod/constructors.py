"""Construction and recognition of boundary-attaining special unitaries.

A special unitary matrix attains the boundary of the diagonal-product image
exactly when it factors as a rank-one phase reflection times diagonal phases,

    U = (I - (1 - e^{-i alpha}) v v†) diag(e^{i a_1}, ..., e^{i a_n}),

with every |v_k| = 1/sqrt(n) and e^{i sum a_k} = e^{i alpha}.  This module
builds that family, the equal-weight boundary representative at a prescribed
polar angle, the two-parameter homotopy family sweeping the whole region, the
disk-filling 2x2 block construction, and the inverse problem: recovering the
defining data from a matrix whose diagonal product lies on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import alpha_of_theta, _ipow, _wrap_angle
from .matrices import _MASK64, _check_finite, _check_n, _check_tol, _diag_products, _square
from .matrices import _unitarity_errors

__all__ = [
    "ExtremalDecomposition",
    "build_extremal",
    "build_u_theta",
    "build_homotopy_matrix",
    "homotopy_diag_product",
    "omega_max",
    "build_u_z",
    "decompose_su2",
    "recognize_extremal",
    "random_extremal",
]


@dataclass(frozen=True)
class ExtremalDecomposition:
    """Defining data of a boundary-attaining special unitary matrix.

    ``alpha`` is the reflection angle, ``v`` the rank-one vector whose entries
    all have modulus 1/sqrt(n), and ``diag_phases`` the diagonal phase angles,
    constrained only through e^{i sum(diag_phases)} = e^{i alpha}.
    """

    alpha: float
    v: np.ndarray
    diag_phases: np.ndarray

    def __post_init__(self):
        v = np.array(self.v, np.complex128).reshape(-1)
        phases = np.array(self.diag_phases, np.float64).reshape(-1)
        v.flags.writeable = False
        phases.flags.writeable = False
        alpha = float(self.alpha)
        if math.isfinite(alpha):  # violations() reports a non-finite alpha
            alpha = float(_wrap_angle(alpha))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "diag_phases", phases)

    @property
    def n(self) -> int:
        return len(self.v)

    def violations(self, tol: float = 1e-10) -> list[str]:
        """Human-readable list of violated constraints (empty when valid)."""
        tol, problems = _check_tol(tol), []
        n = self.n
        if n < 1:
            problems.append("v must have at least one component")
            return problems
        if len(self.diag_phases) != n:
            problems.append(
                f"v has {n} components but diag_phases has {len(self.diag_phases)}"
            )
        if not (np.isfinite(self.alpha) and np.isfinite(self.v).all()):
            problems.append("alpha and v must be finite")
            return problems
        want = 1.0 / math.sqrt(n)
        dev = np.abs(np.abs(self.v) - want).max()
        if dev > tol:
            problems.append(f"components of v must all have modulus 1/sqrt(n) (off by {dev:.3e})")
        if not np.isfinite(self.diag_phases).all():
            problems.append("diagonal phases must be finite")
        else:
            defect = abs(np.exp(1j * (self.diag_phases.sum() - self.alpha)) - 1.0)
            if defect > tol:
                problems.append(
                    f"e^(i sum of diagonal phases) must equal e^(i alpha) (off by {defect:.3e})"
                )
        return problems


def build_extremal(d: ExtremalDecomposition, tol: float = 1e-10) -> np.ndarray:
    """Assemble the boundary-attaining matrix from its decomposition.

    Raises ValueError describing each violated constraint.  The output is
    special unitary and its diagonal product equals gamma(alpha) up to
    roundoff.
    """
    problems = d.violations(tol)
    if problems:
        raise ValueError("invalid extremal decomposition: " + "; ".join(problems))
    return _extremal_matrix(d)


def _extremal_matrix(d: ExtremalDecomposition) -> np.ndarray:
    """The core of :func:`build_extremal`, for data already known valid."""
    reflect = np.eye(d.n, dtype=np.complex128)
    reflect -= (1.0 - np.exp(-1j * d.alpha)) * np.outer(d.v, d.v.conj())
    return reflect * np.exp(1j * d.diag_phases)[None, :]


def build_u_theta(n: int, theta) -> np.ndarray:
    """Equal-weight boundary representative at polar angle ``theta`` (n >= 3):
    the member of :func:`build_extremal` with v = 1/sqrt(n) and each diagonal
    phase alpha/n.

    Its diagonal product is e^{i theta} r(theta), i.e. the boundary point at
    that angle.
    """
    n = _check_n(n, 3)
    a = alpha_of_theta(n, theta)
    return _extremal_matrix(ExtremalDecomposition(a, np.full(n, n**-0.5), np.full(n, a / n)))


def omega_max(n: int) -> float:
    """Upper end of the homotopy mixing angle, arctan(sqrt(n-1))."""
    n = _check_n(n, 2)
    return math.atan(math.sqrt(n - 1.0))


def build_homotopy_matrix(n: int, alpha, omega: float) -> np.ndarray:
    """Member of the two-parameter special unitary family connecting the
    constant diagonal product 1 (omega = 0) to the boundary curve
    (omega = arctan sqrt(n-1)).
    """
    n = _check_n(n, 2)
    w_hi = omega_max(n)
    omega = float(omega)
    if not (-1e-12 <= omega <= w_hi + 1e-12):
        raise ValueError(f"omega must lie in [0, arctan(sqrt(n-1))] = [0, {w_hi!r}]")
    return _homotopy_matrices(n, [float(_check_finite("alpha", alpha))], [math.sin(omega) ** 2])[0]


def _homotopy_matrices(n: int, alpha: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Homotopy members at the finite angles ``alpha`` and mixing weights
    q = sin^2(omega) in [0, 1] of two 1-D sequences, stacked: the reflection
    I - (1 - e^{-i a}) v v^T along the unit vector v = (sqrt(1-q),
    sqrt(q/(n-1)), ...), with its first column turned by e^{i a}.  Every such
    member is special unitary, also past the boundary weight q = (n-1)/n.
    Only elementwise operations are used, so slice i has the same bits
    whatever else the stack holds."""
    a, q = _wrap_angle(np.asarray(alpha, np.float64)), np.asarray(q, np.float64)
    v = np.repeat(np.sqrt(q / (n - 1.0))[:, None], n, axis=1)
    v[:, 0] = np.sqrt(1.0 - q)
    u = np.eye(n) - (1.0 - np.exp(-1j * a))[:, None, None] * (v[:, :, None] * v[:, None, :])
    u[:, :, 0] *= np.exp(1j * a)[:, None]
    return u


def homotopy_diag_product(n: int, alpha, omega):
    """Closed-form diagonal product of the homotopy member at angle ``alpha``
    and mixing angle ``omega``:

        e^{i a} [1 - (1-e^{-i a}) cos^2 w] [1 - (1-e^{-i a}) sin^2 w / (n-1)]^{n-1}.

    It is evaluated at any finite ``omega``, through q = sin^2(omega) in
    [0, 1], while :func:`build_homotopy_matrix` builds the member only for
    omega in [0, arctan(sqrt(n-1))]; on that range the two agree.
    """
    n, alpha = _check_n(n, 2), _check_finite("alpha", alpha)
    q = np.sin(np.asarray(_check_finite("omega", omega), np.float64)) ** 2
    out = _homotopy_product(n, alpha, q)[0]
    return complex(out[()]) if out.ndim == 0 else out


def _homotopy_product(n: int, alpha, q):
    """Diagonal product H = A B^{n-1} of the homotopy member at weight q, with
    A = 1 + (E - 1) q, B = 1 - (1 - 1/E) q / (n-1) and E = e^{i a}, and its
    exact partials

        dH/da = i q B^{n-2} (E B - A / E),
        dH/dq = B^{n-2} ((E - 1) B - (1 - 1/E) A)
              = (E - 1)^2 / E B^{n-2} (1 - q / q_max),   q_max = (n-1)/n.

    The factored dH/dq has no cancellation near the cusp at a = 0, and shows
    that it vanishes at q_max for every a: the boundary curve is a fold of
    the map.  Returns three arrays broadcast from ``alpha`` and ``q``.
    """
    e = np.exp(1j * np.asarray(alpha, np.float64))
    q = np.asarray(q, np.float64)
    a = 1.0 + (e - 1.0) * q
    b = 1.0 - (1.0 - 1.0 / e) * q / (n - 1.0)
    b_pow = _ipow(b, n - 2)
    return (
        a * b * b_pow,
        1j * q * b_pow * (e * b - a / e),
        (e - 1.0) ** 2 / e * b_pow * (1.0 - q * n / (n - 1.0)),
    )


def build_u_z(n: int, z) -> np.ndarray:
    """Unitary (not special) n x n matrix whose diagonal product is z, |z| <= 1.

    A 2x2 rotation block scaled by the phase of z, direct-summed with the
    identity.  At z = 0 the phase factor collapses; a unit phase keeps the
    matrix unitary while the zero first diagonal entry still yields product 0.
    """
    n = _check_n(n, 2)
    z = _check_finite("z", complex(z))
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("|z| must not exceed 1")
    return _build_u_z_many(n, np.array([z]))[0]


def _build_u_z_many(n: int, zs: np.ndarray) -> np.ndarray:
    """:func:`build_u_z` for each point of a 1-D complex128 array with |z| <= 1,
    stacked.  np.hypot and the split division give Python's abs(z) and
    z / abs(z) bit for bit, where np.abs and complex division do not."""
    mod = np.hypot(zs.real, zs.imag)
    c = np.sqrt(np.minimum(mod, 1.0))
    s = np.sqrt(np.maximum(1.0 - mod, 0.0))
    unit = np.where(mod > 0.0, mod, 1.0)
    phase = np.where(mod > 0.0, zs.real / unit, 1.0) + 1j * (zs.imag / unit)
    u = np.tile(np.eye(n, dtype=np.complex128), (len(zs), 1, 1))
    u[:, 0, 0] = c * phase
    u[:, 0, 1] = -s
    u[:, 1, 0] = s * phase
    u[:, 1, 1] = c
    return u


def decompose_su2(z, w) -> ExtremalDecomposition:
    """Decompose the SU(2) matrix [[z, -conj(w)], [w, conj(z)]] into extremal
    data, splitting on w = 0, z = 0, and the generic case."""
    z = _check_finite("z", complex(z))
    w = _check_finite("w", complex(w))
    if abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) > 1e-12:
        raise ValueError("need |z|^2 + |w|^2 = 1")
    return _su2_decomposition(z, w)


def _su2_decomposition(z: complex, w: complex) -> ExtremalDecomposition:
    """The core of :func:`decompose_su2`, for a pair already known to be a
    finite unit vector."""
    if w == 0:
        phases = np.array([math.atan2(z.imag, z.real), -math.atan2(z.imag, z.real)])
        v = np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128)
        return ExtremalDecomposition(0.0, v, phases)
    if z == 0:
        v = np.array([1.0, w], dtype=np.complex128) / math.sqrt(2.0)
        return ExtremalDecomposition(math.pi, v, np.array([math.pi, 0.0]))
    sz = z / abs(z)
    sw = w / abs(w)
    lift = complex(abs(z), abs(w))
    a1 = np.angle(lift * sz)
    a2 = np.angle(lift * sz.conjugate())
    v = np.array([sz, 1j * sw]) / math.sqrt(2.0)
    return ExtremalDecomposition(float(_wrap_angle(a1 + a2)), v, np.array([a1, a2]))


def recognize_extremal(u, tol: float = 1e-9) -> ExtremalDecomposition | None:
    """Recover the extremal decomposition of a special unitary matrix whose
    diagonal product lies on the boundary; None for interior products.

    For n >= 3 the data are read off in closed form.  Dividing each column
    by its diagonal entry gives r_jk = u_jk / u_kk = -n s v_j conj(v_k) off
    the diagonal, with s = (1 - e^{-i alpha}) / (n - 1 + e^{-i alpha}), so
    s = -r_12 r_20 / r_10 (every |v_j|^2 = 1/n), e^{-i alpha} =
    (1 - (n-1) s) / (1 + s), and v_j is proportional to -r_j0 / s.  A matrix
    whose off-diagonal part is within ``tol`` is the degenerate case
    alpha = 0.  The result is accepted only when it rebuilds ``u`` within
    ``tol`` in the max-entry norm.  For n = 2 the diagonal entries vanish at
    the half-turn, so the closed-form SU(2) split is used instead.
    """
    u = np.asarray(_square(u), np.complex128)
    n, tol = _check_n(len(u), 2), _check_tol(tol)
    if not _unitarity_errors(u).max() <= tol:
        raise ValueError("matrix is not special unitary within tolerance")

    if n == 2:
        # the SU(2) image [0, 1] is entirely boundary
        z = complex(_diag_products(u))
        if abs(z.imag) > tol or not (-tol <= z.real <= 1.0 + tol):
            return None
        if abs(z - 1.0) <= tol:
            return _with_diagonal_phases(u, 0.0, np.full(n, 1.0 / math.sqrt(n), np.complex128))
        # at the half-turn the diagonal entries vanish, so the generic
        # phase-stripping route degenerates; the closed-form SU(2) split
        # covers every case (and yields alpha = 2 arccos sqrt(product)),
        # and every |v_k| is 1/sqrt(2), so v is gauged by its first entry
        nrm = math.hypot(abs(u[0, 0]), abs(u[1, 0]))
        d = _su2_decomposition(complex(u[0, 0] / nrm), complex(u[1, 0] / nrm))
        v = d.v * (d.v[0].conjugate() / abs(d.v[0]))
        return ExtremalDecomposition(d.alpha, v, d.diag_phases)

    if np.abs(u - np.diag(np.diagonal(u))).max() <= tol:
        d = _with_diagonal_phases(u, 0.0, np.full(n, 1.0 / math.sqrt(n), np.complex128))
    else:
        d = _closed_form_decomposition(u, n)
    if d is None or not np.abs(_extremal_matrix(d) - u).max() <= tol:
        return None
    return d


def _closed_form_decomposition(u: np.ndarray, n: int) -> ExtremalDecomposition | None:
    """Extremal data read off three off-diagonal ratios and the first column
    of ``u`` (n >= 3); None when s or v is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = u / np.diagonal(u)[None, :]
        s = -r[1, 2] * r[2, 0] / r[1, 0]
        e = (1.0 - (n - 1.0) * s) / (1.0 + s)
        x = -r[:, 0] / s
        x[0] = 1.0
        v = x / np.abs(x) / math.sqrt(n)
    if not (np.isfinite(e) and np.isfinite(v).all()):
        return None
    alpha = -math.atan2(e.imag, e.real)
    if alpha == -math.pi:
        # only an alpha of exactly -pi is reported as +pi; a half-turn that
        # rounds to the float above -pi keeps that value
        alpha = math.pi
    return _with_diagonal_phases(u, alpha, v)


def _with_diagonal_phases(u: np.ndarray, alpha: float, v: np.ndarray) -> ExtremalDecomposition:
    """The decomposition (alpha, v) with the diagonal phases read off ``u``:
    each is the angle of a diagonal entry minus psi(alpha), the angle of the
    reflection's diagonal entry 1 - (1 - e^{-i alpha}) / n, and the first
    absorbs the remainder, so that the phases sum to alpha.  Recognition
    calls it with alpha = 0 and every v_k = 1/sqrt(n) for a diagonal product
    at the cusp value 1, where the reflection term vanishes and any
    equal-modulus v is admissible."""
    psi = np.angle(1.0 - (1.0 - np.exp(-1j * alpha)) / len(u))
    phases = _wrap_angle(np.angle(np.diagonal(u)) - psi)
    phases[0] += float(_wrap_angle(alpha - phases.sum()))
    return ExtremalDecomposition(alpha, v, phases)


def random_extremal(n: int, seed: int = 0, alpha: float | None = None) -> ExtremalDecomposition:
    """Seeded random valid decomposition; ``alpha`` is drawn uniformly when
    not given."""
    n = _check_n(n, 1)
    rng = np.random.default_rng(_check_n(seed, name="seed") & _MASK64)
    if alpha is None:
        alpha = rng.uniform(-math.pi, math.pi)
    alpha = float(_wrap_angle(_check_finite("alpha", alpha)))
    v = np.exp(1j * rng.uniform(-math.pi, math.pi, n)) / math.sqrt(n)
    head = rng.uniform(-math.pi, math.pi, n - 1)
    phases = np.append(head, _wrap_angle(alpha - head.sum()))
    return ExtremalDecomposition(alpha, v, phases)
