"""Dense complex matrix primitives.

Diagonal products, unitary/special-unitary/special-orthogonal predicates,
the skew-Hermitian generator basis, guaranteed-unitary matrix exponentials,
and seeded Haar sampling of U(n), SU(n) and SO(n).

A Haar sample is the Q factor with a real positive R diagonal of a Gaussian
matrix.  One Householder core computes it for a whole batch at once, on
batch-last real and imaginary float64 planes, and reads det Q off the same
reflectors, so the special groups need no LU pass.  It uses only real
elementwise operations and explicitly ordered sums, so slice i of a batch
equals the single sample bit for bit.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "derive_seed",
    "diag_product",
    "is_unitary",
    "is_special_unitary",
    "is_special_orthogonal",
    "generator_x",
    "generator_y",
    "exp_skew_hermitian",
    "haar_unitary",
    "haar_special_unitary",
    "haar_special_orthogonal",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = np.uint64(0x9E3779B97F4A7C15)
_MIX64 = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, applied in place to a ``uint64`` array.

    numpy's ``uint64`` array arithmetic wraps modulo 2**64, which is exactly
    the arithmetic the mixer is defined in.
    """
    t = x >> 30
    x ^= t
    x *= _MIX64[0]
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _MIX64[1]
    np.right_shift(x, 31, out=t)
    x ^= t
    return x


def _stream_keys(seed: int, first: int, count: int) -> np.ndarray:
    """``derive_seed(seed, first + i)`` for ``i`` in ``range(count)``, as ``uint64``."""
    x = np.arange(count, dtype=np.uint64)
    x += np.uint64((first + 1) & _MASK64)
    x *= _GOLDEN64
    x += np.uint64(seed & _MASK64)
    return _splitmix64(x)


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a stream index into a fresh 64-bit seed.

    SplitMix64: the finalizer applied to ``seed + (index + 1) * golden`` modulo
    2**64.  The map is pure, so substreams may be drawn in any order (or
    concurrently) and still coincide with a serial run.  Both arguments may
    be any integers.
    """
    return int(_stream_keys(_check_n(seed, name="seed"), _check_n(index, name="index"), 1)[0])


def _standard_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """``count`` standard normals per stream key, batch-last: shape
    ``(count, len(keys))``.

    Counter-based: draw ``j`` of stream ``k`` is ``derive_seed(k, j)``, the
    ``j``-th output of a SplitMix64 generator seeded with ``k`` (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Its top 53 bits
    ``b`` give ``u = (b + 1/2) / 2**53`` in ``[2**-54, 1]``, so ``log u`` and
    every normal are finite.  Box-Muller turns draw ``j`` (radius) and draw
    ``pairs + j`` (angle) into normals ``2j`` (``r cos``) and ``2j + 1``
    (``r sin``), so rows ``0::2`` and ``1::2`` are the two halves as computed.
    """
    pairs = (count + 1) // 2
    x = np.arange(1, 2 * pairs + 1, dtype=np.uint64)[:, None] * _GOLDEN64
    x = _splitmix64(x + keys)
    np.right_shift(x, 11, out=x)
    u = x.astype(np.float64)
    del x
    u += 0.5
    u *= 2.0**-53
    radius = np.log(u[:pairs])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[pairs:]
    angle *= 2.0 * np.pi
    out = np.empty((pairs, 2, len(keys)))
    np.multiply(radius, np.cos(angle), out=out[:, 0])
    np.multiply(radius, np.sin(angle), out=out[:, 1])
    return out.reshape(2 * pairs, len(keys))[:count]


def _square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    return tol


def _check_n(value, minimum: int | None = None, name: str = "matrix size n") -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer
    (numpy's too, but not a bool) and at least ``minimum`` (if given).  Every
    integer argument of the package is checked here, at its public entry."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or (minimum is not None and value < minimum):
        least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{least}, got {value!r}")
    return int(value)


def _diag_products(mats: np.ndarray) -> np.ndarray:
    """Product of the diagonal entries of each matrix of a stack."""
    return np.multiply.reduce(mats.diagonal(0, -2, -1), axis=-1)


def diag_product(m) -> complex:
    """Product of the diagonal entries of a square matrix."""
    return complex(_diag_products(_square(m)))


def is_unitary(m, tol: float = 1e-10) -> bool:
    """True iff the max-entry norm of  m†m - I  is at most ``tol``."""
    tol = _check_tol(tol)
    a = _square(m).astype(np.complex128, copy=False)
    gram = a.conj().T @ a
    gram[np.diag_indices_from(gram)] -= 1.0
    return bool(np.abs(gram).max() <= tol)


def is_special_unitary(m, tol: float = 1e-10) -> bool:
    """Unitary with determinant 1 within ``tol`` (LU-based determinant)."""
    tol = _check_tol(tol)
    a = _square(m).astype(np.complex128, copy=False)
    if not is_unitary(a, tol):
        return False
    return bool(abs(np.linalg.det(a) - 1.0) <= tol)


def is_special_orthogonal(m, tol: float = 1e-10) -> bool:
    """Real (all imaginary parts within ``tol``) and special unitary."""
    tol = _check_tol(tol)
    a = _square(m)
    if np.abs(np.asarray(a).imag).max() > tol:
        return False
    return is_special_unitary(a, tol)


def _check_pair(n: int, j: int, k: int) -> int:
    n, j, k = _check_n(n, 2), _check_n(j, name="j"), _check_n(k, name="k")
    if not (1 <= j < k <= n):
        raise ValueError(f"indices must satisfy 1 <= j < k <= n, got j={j}, k={k}, n={n}")
    return n


def generator_x(n: int, j: int, k: int) -> np.ndarray:
    """Real rotation generator: entry (j,k) is -1 and (k,j) is +1 (1-based)."""
    n = _check_pair(n, j, k)
    m = np.zeros((n, n), np.complex128)
    m[j - 1, k - 1] = -1.0
    m[k - 1, j - 1] = 1.0
    return m


def generator_y(n: int, j: int, k: int) -> np.ndarray:
    """Imaginary mixing generator: entries (j,k) and (k,j) are both i (1-based)."""
    n = _check_pair(n, j, k)
    m = np.zeros((n, n), np.complex128)
    m[j - 1, k - 1] = 1.0j
    m[k - 1, j - 1] = 1.0j
    return m


def exp_skew_hermitian(a, tol: float = 1e-10) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian matrix.

    Diagonalizes the Hermitian matrix iA and exponentiates its eigenvalues, so
    the result is unitary up to roundoff.  Rejects input whose max-entry
    deviation from skew-Hermiticity exceeds ``tol``.
    """
    tol = _check_tol(tol)
    m = _square(a).astype(np.complex128, copy=False)
    if np.abs(m + m.conj().T).max() > tol:
        raise ValueError("matrix is not skew-Hermitian within tolerance")
    w, v = np.linalg.eigh(1j * m)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _one_key(seed: int) -> np.ndarray:
    return np.array([_check_n(seed, name="seed") & _MASK64], np.uint64)


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """``rows[0] + rows[1] + ...`` left to right, for at least two rows.

    An explicit loop of elementwise adds rounds every entry the same way
    wherever it sits in the batch; numpy's reductions do not.
    """
    total = rows[0] + rows[1]
    for row in rows[2:]:
        total += row
    return total


def _reflect(beta, vr, vi, br, bi, work: np.ndarray) -> None:
    """Apply ``I - beta v v^H`` in place to every column of a block.

    ``v = vr + i vi`` has shape ``(p, m)`` and the block ``br + i bi`` shape
    ``(p, c, m)``, ``p >= 2``; ``vi`` and ``bi`` are None for a real
    reflector.  ``work`` holds two scratch planes of at least the block's
    shape, so no block-sized temporary is allocated.
    """
    p, c = br.shape[:2]
    s, t = work[0, :p, :c], work[1, :p, :c]
    vr = vr[:, None]
    np.multiply(vr, br, out=s)
    if bi is not None:
        vi = vi[:, None]
        s += np.multiply(vi, bi, out=t)
    wr = _ordered_sum(s)
    wr *= beta
    if bi is not None:
        np.multiply(vr, bi, out=s)
        s -= np.multiply(vi, br, out=t)
        wi = _ordered_sum(s)
        wi *= beta
    br -= np.multiply(vr, wr, out=s)
    if bi is not None:
        br += np.multiply(vi, wi, out=s)
        bi -= np.multiply(vr, wi, out=s)
        bi -= np.multiply(vi, wr, out=s)


def _householder_q(ar: np.ndarray, ai: np.ndarray | None):
    """Q with a real nonnegative R diagonal, and det Q, for a batch-last stack.

    ``ar + i ai`` holds ``m`` matrices as ``(n, n, m)`` real and imaginary
    planes (``ai`` None for real input); both are overwritten.  Step ``k``
    reflects ``x = A[k:, k]`` with ``v = x + ph |x| e1``, ``ph`` the phase of
    ``x[0]`` (1 where it is 0), so ``R_kk = -ph |x|``.  The Haar-fixed factor
    is the backward-accumulated ``H_0 ... H_{n-2} diag(f)`` with ``f_k = -ph_k``
    (``ph_k`` where ``x = 0`` and ``H_k = I``) and ``f_{n-1} = ph_{n-1}``, so
    ``det Q = ph_0 ... ph_{n-1}`` comes from the reflectors.  Only real
    elementwise operations are used, so each matrix of a batch gets the same
    bits as it would alone.  Returns ``(qr, qi, dr, di)``; ``qi`` and ``di``
    are None for real input.
    """
    n, _, m = ar.shape
    cplx = ai is not None
    ph = np.empty((2 if cplx else 1, n, m))
    phr, phi = ph[0], (ph[1] if cplx else None)
    beta = np.zeros((n - 1, m))
    work = np.empty((2, n, n, m))
    for k in range(n):
        xr = ar[k:, k]
        xi = ai[k:, k] if cplx else None
        sq = xr * xr
        if cplx:
            sq += xi * xi
        x0 = np.sqrt(sq[0])
        nonzero = x0 > 0.0
        safe = np.where(nonzero, x0, 1.0)
        phr[k] = np.where(nonzero, xr[0] / safe, 1.0)
        if cplx:
            phi[k] = xi[0] / safe
        if k == n - 1:
            break
        norm = np.sqrt(_ordered_sum(sq))
        scale = x0 + norm
        xr[0] = phr[k] * scale
        if cplx:
            xi[0] = phi[k] * scale
        scale *= norm  # |v|^2 / 2, zero only for a zero column, where H_k = I
        np.divide(1.0, scale, out=beta[k], where=scale > 0.0)
        _reflect(beta[k], xr, xi, ar[k:, k + 1 :], ai[k:, k + 1 :] if cplx else None, work)
    diag = np.arange(n)
    q = np.zeros((len(ph), n, n, m))
    q[:, diag, diag] = ph
    q[:, diag[:-1], diag[:-1]] *= np.where(beta > 0.0, -1.0, 1.0)
    qr, qi = q[0], (q[1] if cplx else None)
    for k in range(n - 2, -1, -1):
        _reflect(
            beta[k], ar[k:, k], ai[k:, k] if cplx else None,
            qr[k:, k:], qi[k:, k:] if cplx else None, work,
        )
    dr, di = phr[0], (phi[0] if cplx else None)
    for k in range(1, n):
        if cplx:
            dr, di = dr * phr[k] - di * phi[k], dr * phi[k] + di * phr[k]
        else:
            dr = dr * phr[k]
    return qr, qi, dr, di


def _unitary_planes(n: int, keys: np.ndarray):
    """Householder Q and det Q of the complex Ginibre matrices whose entries
    are consecutive Box-Muller pairs (QR is scale-free, so the entry variance
    does not matter), one per stream key: the ``r cos`` and ``r sin`` halves
    of the normals are the real and imaginary planes."""
    n = _check_n(n, 1)
    g = _standard_normals(keys, 2 * n * n).reshape(n, n, 2, len(keys))
    return _householder_q(g[:, :, 0], g[:, :, 1])


def _batch_first(qr: np.ndarray, qi: np.ndarray) -> np.ndarray:
    """The ``(m, n, n)`` complex stack of batch-last ``(n, n, m)`` planes."""
    out = np.empty(qr.shape[2:] + qr.shape[:2], np.complex128)
    planes = out.transpose(1, 2, 0)
    planes.real, planes.imag = qr, qi
    return out


def _haar_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar U(n) sample per stream key: the Q factor of the Ginibre
    matrix with a real positive R diagonal (Mezzadri 2007)."""
    qr, qi, _, _ = _unitary_planes(n, keys)
    return _batch_first(qr, qi)


def _haar_special_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """The U(n) sample with column 1 divided by det Q: multiplied by its
    conjugate, since det Q is a unit phase."""
    qr, qi, dr, di = _unitary_planes(n, keys)
    cr, ci = qr[:, 0], qi[:, 0]
    cr[...], ci[...] = cr * dr + ci * di, ci * dr - cr * di
    return _batch_first(qr, qi)


def _haar_special_orthogonal_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar SO(n) sample per stream key: the Q factor of a real Gaussian
    matrix with a positive R diagonal, column 1 flipped where det Q = -1."""
    n = _check_n(n, 1)
    g = _standard_normals(keys, n * n).reshape(n, n, len(keys))
    q, _, d, _ = _householder_q(g, None)
    q[:, 0] *= d
    return np.ascontiguousarray(q.transpose(2, 0, 1))


def _haar_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Stack of ``count`` Haar unitaries; slice ``i`` is seeded by
    ``derive_seed(seed, start + i)`` and equals ``haar_unitary(n, that_seed)``."""
    return _haar_unitary_keys(n, _stream_keys(seed, start, count))


def _haar_special_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    return _haar_special_unitary_keys(n, _stream_keys(seed, start, count))


def _haar_special_orthogonal_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    return _haar_special_orthogonal_keys(n, _stream_keys(seed, start, count))


def haar_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed U(n) sample: the Q factor with a real positive R
    diagonal (Householder reflections on real and imaginary planes) of a
    complex Ginibre matrix.  The Ginibre entries are Box-Muller normals from
    the counter-based SplitMix64 stream keyed by ``seed``, so the sample is
    deterministic in ``seed``."""
    return _haar_unitary_keys(n, _one_key(seed))[0]


def haar_special_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar SU(n) sample: ``haar_unitary(n, seed)`` with column 1 divided by
    its determinant, a unit phase read off the Householder reflectors."""
    return _haar_special_unitary_keys(n, _one_key(seed))[0]


def haar_special_orthogonal(n: int, seed: int = 0) -> np.ndarray:
    """Haar SO(n) sample: the Q factor with a positive R diagonal
    (Householder reflections) of a real Gaussian matrix, column 1 flipped if
    the determinant, read off the reflectors, is -1.  The Gaussian entries are
    Box-Muller normals from the counter-based SplitMix64 stream keyed by
    ``seed``."""
    return _haar_special_orthogonal_keys(n, _one_key(seed))[0]
