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

from .boundary import alpha_of_theta, wrap_angle, _ipow, _radius_from_alpha
from .matrices import diag_product, is_special_unitary, _MASK64

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
        object.__setattr__(self, "alpha", float(wrap_angle(self.alpha)))
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "diag_phases", phases)

    @property
    def n(self) -> int:
        return len(self.v)

    def violations(self, tol: float = 1e-10) -> list[str]:
        """Human-readable list of violated constraints (empty when valid)."""
        problems = []
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
    n = d.n
    reflect = np.eye(n, dtype=np.complex128)
    reflect -= (1.0 - np.exp(-1j * d.alpha)) * np.outer(d.v, d.v.conj())
    return reflect * np.exp(1j * d.diag_phases)[None, :]


def build_u_theta(n: int, theta) -> np.ndarray:
    """Equal-weight boundary representative at polar angle ``theta`` (n >= 3).

    Its diagonal product is e^{i theta} r(theta), i.e. the boundary point at
    that angle.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    a = alpha_of_theta(n, wrap_angle(theta))
    u = np.full((n, n), -(1.0 - np.exp(-1j * a)) / n, dtype=np.complex128)
    u[np.diag_indices(n)] += 1.0
    return np.exp(1j * a / n) * u


def omega_max(n: int) -> float:
    """Upper end of the homotopy mixing angle, arctan(sqrt(n-1))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return math.atan(math.sqrt(n - 1.0))


def build_homotopy_matrix(n: int, alpha, omega: float) -> np.ndarray:
    """Member of the two-parameter special unitary family connecting the
    constant diagonal product 1 (omega = 0) to the boundary curve
    (omega = arctan sqrt(n-1)).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    w_hi = omega_max(n)
    omega = float(omega)
    if not (-1e-12 <= omega <= w_hi + 1e-12):
        raise ValueError(f"omega must lie in [0, arctan(sqrt(n-1))] = [0, {w_hi!r}]")
    return _homotopy_matrix(n, alpha, math.sin(omega) ** 2)


def _homotopy_matrix(n: int, alpha, q: float) -> np.ndarray:
    """Homotopy member at mixing weight q = sin^2(omega) in [0, 1]: the
    reflection I - (1 - e^{-i a}) v v^T along the unit vector
    v = (sqrt(1-q), sqrt(q/(n-1)), ...), with its first column turned by
    e^{i a}.  Every such member is special unitary, also past the boundary
    weight q = (n-1)/n."""
    a = float(wrap_angle(alpha))
    v = np.full(n, math.sqrt(q / (n - 1.0)))
    v[0] = math.sqrt(1.0 - q)
    u = np.eye(n, dtype=np.complex128) - (1.0 - np.exp(-1j * a)) * np.outer(v, v)
    u[:, 0] *= np.exp(1j * a)
    return u


def homotopy_diag_product(n: int, alpha, omega):
    """Closed-form diagonal product of :func:`build_homotopy_matrix`:

        e^{i a} [1 - (1-e^{-i a}) cos^2 w] [1 - (1-e^{-i a}) sin^2 w / (n-1)]^{n-1}.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    out = _homotopy_product(n, alpha, np.sin(np.asarray(omega, np.float64)) ** 2)[0]
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
    if n < 2:
        raise ValueError("n must be at least 2")
    z = complex(z)
    mod = abs(z)
    if mod > 1.0 + 1e-12:
        raise ValueError("|z| must not exceed 1")
    c = math.sqrt(min(mod, 1.0))
    s = math.sqrt(max(1.0 - mod, 0.0))
    phase = z / mod if mod > 0.0 else 1.0
    u = np.eye(n, dtype=np.complex128)
    u[0, 0] = c * phase
    u[0, 1] = -s
    u[1, 0] = s * phase
    u[1, 1] = c
    return u


def decompose_su2(z, w) -> ExtremalDecomposition:
    """Decompose the SU(2) matrix [[z, -conj(w)], [w, conj(z)]] into extremal
    data, splitting on w = 0, z = 0, and the generic case."""
    z = complex(z)
    w = complex(w)
    if abs(abs(z) ** 2 + abs(w) ** 2 - 1.0) > 1e-12:
        raise ValueError("need |z|^2 + |w|^2 = 1")
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
    return ExtremalDecomposition(float(wrap_angle(a1 + a2)), v, np.array([a1, a2]))


def _dominant_unit_vector(p: np.ndarray, tol: float) -> np.ndarray | None:
    """Leading eigenvector of a near-rank-one projector by power iteration,
    started from the largest-diagonal column."""
    j = int(np.argmax(np.real(np.diagonal(p))))
    x = np.array(p[:, j], np.complex128)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        return None
    x /= nrm
    for _ in range(100):
        y = p @ x
        nrm = np.linalg.norm(y)
        if nrm < 1e-12:
            return None
        y /= nrm
        done = np.linalg.norm(y - x) < min(tol, 1e-12)
        x = y
        if done:
            break
    return x


def recognize_extremal(u, tol: float = 1e-9) -> ExtremalDecomposition | None:
    """Recover the extremal decomposition of a special unitary matrix whose
    diagonal product lies on the boundary; None for interior products.

    The reflection angle is seeded by the polar angle of the diagonal product
    and sharpened from its modulus (which is far better conditioned near the
    cusp at 1).  The rank-one projector is reconstructed by stripping the
    diagonal phases and checked for Hermiticity, idempotence, unit trace and
    flat diagonal before the vector is extracted; any structural failure
    returns None.
    """
    u = np.asarray(u, np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    n = u.shape[0]
    if n < 2:
        raise ValueError("n must be at least 2")
    if not float(tol) > 0.0:
        raise ValueError("tolerance must be positive")
    if not is_special_unitary(u, tol):
        raise ValueError("matrix is not special unitary within tolerance")
    z = diag_product(u)

    if n == 2:
        # the SU(2) image [0, 1] is entirely boundary
        if abs(z.imag) > tol or not (-tol <= z.real <= 1.0 + tol):
            return None
        if abs(z - 1.0) <= tol:
            return _degenerate_decomposition(u, n)
        # at the half-turn the diagonal entries vanish, so the generic
        # phase-stripping route degenerates; the closed-form SU(2) split
        # covers every case (and yields alpha = 2 arccos sqrt(product))
        nrm = math.hypot(abs(u[0, 0]), abs(u[1, 0]))
        d = decompose_su2(u[0, 0] / nrm, u[1, 0] / nrm)
        lead = d.v[np.flatnonzero(np.abs(d.v) > 1e-12)[0]]
        v = d.v * (lead.conjugate() / abs(lead))
        return ExtremalDecomposition(d.alpha, v, d.diag_phases)
    else:
        alpha = alpha_of_theta(n, math.atan2(z.imag, z.real))
        if abs(abs(z) - float(_radius_from_alpha(n, alpha))) > tol:
            return None
        if abs(z - 1.0) <= tol:
            return _degenerate_decomposition(u, n)
        # sharpen |alpha| from the product modulus: the angle map is cubically
        # flat at 0, the modulus only quadratically, so this is the
        # well-conditioned route near the cusp
        q = (z.real**2 + z.imag**2) ** (1.0 / n)
        s = min(max(n**2 * (1.0 - q) / (4.0 * (n - 1.0)), 0.0), 1.0)
        alpha = math.copysign(2.0 * math.asin(math.sqrt(s)), alpha)

    shrink = 1.0 - np.exp(-1j * alpha)
    psi = np.angle(1.0 - shrink / n)
    phases = np.angle(np.diagonal(u)) - psi
    m = u * np.exp(-1j * phases)[None, :]
    p = (np.eye(n) - m) / shrink
    flat = 1.0 / n
    if np.abs(p - p.conj().T).max() > tol:
        return None
    if abs(np.trace(p) - 1.0) > tol:
        return None
    if np.abs(p @ p - p).max() > tol:
        return None
    if np.abs(np.real(np.diagonal(p)) - flat).max() > tol:
        return None
    x = _dominant_unit_vector(p, tol)
    if x is None:
        return None
    nz = np.flatnonzero(np.abs(x) > 1e-12)
    if len(nz) == 0 or np.abs(np.abs(x) - math.sqrt(flat)).max() > tol:
        return None
    lead = x[nz[0]]
    x = x * (lead.conjugate() / abs(lead))
    v = x / np.abs(x) * math.sqrt(flat)
    phases = _wrap_each(phases)
    phases[0] += float(wrap_angle(alpha - phases.sum()))
    return ExtremalDecomposition(alpha, v, phases)


def _wrap_each(phases: np.ndarray) -> np.ndarray:
    return np.asarray(wrap_angle(np.asarray(phases, np.float64)))


def _degenerate_decomposition(u: np.ndarray, n: int) -> ExtremalDecomposition:
    # diagonal product at the cusp value 1: the reflection term vanishes and
    # any equal-modulus vector is admissible
    phases = _wrap_each(np.angle(np.diagonal(u)))
    phases[0] += float(wrap_angle(-phases.sum()))
    v = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    return ExtremalDecomposition(0.0, v, phases)


def random_extremal(n: int, seed: int = 0, alpha: float | None = None) -> ExtremalDecomposition:
    """Seeded random valid decomposition; ``alpha`` is drawn uniformly when
    not given."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(int(seed) & _MASK64)
    if alpha is None:
        alpha = rng.uniform(-math.pi, math.pi)
    alpha = float(wrap_angle(alpha))
    v = np.exp(1j * rng.uniform(-math.pi, math.pi, n)) / math.sqrt(n)
    if n == 1:
        phases = np.array([alpha])
    else:
        head = rng.uniform(-math.pi, math.pi, n - 1)
        phases = np.append(head, wrap_angle(alpha - head.sum()))
    return ExtremalDecomposition(alpha, v, phases)
