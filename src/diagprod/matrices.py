"""Dense complex matrix primitives.

Diagonal products, unitary/special-unitary/special-orthogonal predicates,
the skew-Hermitian generator basis, guaranteed-unitary matrix exponentials,
and seeded Haar sampling of U(n), SU(n) and SO(n).
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
    x += np.uint64((int(first) + 1) & _MASK64)
    x *= _GOLDEN64
    x += np.uint64(int(seed) & _MASK64)
    return _splitmix64(x)


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a stream index into a fresh 64-bit seed.

    SplitMix64: the finalizer applied to ``seed + (index + 1) * golden`` modulo
    2**64.  The map is pure, so substreams may be drawn in any order (or
    concurrently) and still coincide with a serial run.
    """
    return int(_stream_keys(seed, index, 1)[0])


def _standard_normals(keys: np.ndarray, count: int) -> np.ndarray:
    """``count`` standard normals per stream key, shape ``(len(keys), count)``.

    Counter-based: draw ``j`` of stream ``k`` is ``derive_seed(k, j)``, the
    ``j``-th output of a SplitMix64 generator seeded with ``k`` (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Its top 53 bits
    ``b`` give ``u = (b + 1/2) / 2**53`` in ``[2**-54, 1]``, so ``log u`` and
    every normal are finite.  Box-Muller turns draw ``j`` (radius) and draw
    ``pairs + j`` (angle) into normals ``2j`` and ``2j + 1``.
    """
    pairs = (count + 1) // 2
    x = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN64
    x = _splitmix64(x + keys[:, None])
    np.right_shift(x, 11, out=x)
    u = x.astype(np.float64)
    del x
    u += 0.5
    u *= 2.0**-53
    radius = np.log(u[:, :pairs])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[:, pairs:]
    angle *= 2.0 * np.pi
    out = np.empty((len(keys), 2 * pairs))
    np.multiply(radius, np.cos(angle), out=out[:, 0::2])
    np.multiply(radius, np.sin(angle), out=out[:, 1::2])
    return out[:, :count]


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


def _check_n(n, minimum: int) -> int:
    """``n`` as an int; ValueError unless it is an integer (numpy's too) >= ``minimum``."""
    if not isinstance(n, numbers.Integral) or n < minimum:
        raise ValueError(f"matrix size n must be an integer >= {minimum}, got {n!r}")
    return int(n)


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
    n = _check_n(n, 2)
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
    return np.array([int(seed) & _MASK64], np.uint64)


def _haar_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar U(n) sample per stream key: QR of the complex Ginibre matrix
    whose entries are consecutive Box-Muller pairs (QR is scale-free, so the
    entry variance does not matter), with the R-diagonal phase fix of
    Mezzadri (2007)."""
    n = _check_n(n, 1)
    g = _standard_normals(keys, 2 * n * n).view(np.complex128).reshape(len(keys), n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phase = np.where(mod > 0.0, d / np.where(mod > 0.0, mod, 1.0), 1.0)
    return q * phase[:, None, :]


def _haar_special_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    u = _haar_unitary_keys(n, keys)
    u[:, :, 0] /= np.linalg.det(u)[:, None]
    return u


def _haar_special_orthogonal_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar SO(n) sample per stream key: QR of a real Gaussian matrix with
    the R-diagonal sign fix, column 1 flipped where the determinant is -1."""
    n = _check_n(n, 1)
    g = _standard_normals(keys, n * n).reshape(len(keys), n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * np.where(d < 0.0, -1.0, 1.0)[:, None, :]
    q[np.linalg.det(q) < 0.0, :, 0] *= -1.0
    return q


def _haar_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Stack of ``count`` Haar unitaries; slice ``i`` is seeded by
    ``derive_seed(seed, start + i)`` and equals ``haar_unitary(n, that_seed)``."""
    return _haar_unitary_keys(n, _stream_keys(seed, start, count))


def _haar_special_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    return _haar_special_unitary_keys(n, _stream_keys(seed, start, count))


def _haar_special_orthogonal_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    return _haar_special_orthogonal_keys(n, _stream_keys(seed, start, count))


def haar_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed U(n) sample: QR of a complex Ginibre matrix with the
    R-diagonal phase normalization.  The Ginibre entries are Box-Muller
    normals from the counter-based SplitMix64 stream keyed by ``seed``, so the
    sample is deterministic in ``seed``."""
    return _haar_unitary_keys(n, _one_key(seed))[0]


def haar_special_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar SU(n) sample: ``haar_unitary(n, seed)`` with column 1 divided by
    the determinant's phase."""
    return _haar_special_unitary_keys(n, _one_key(seed))[0]


def haar_special_orthogonal(n: int, seed: int = 0) -> np.ndarray:
    """Haar SO(n) sample: QR of a real Gaussian matrix with sign
    normalization, column 1 flipped if the determinant is -1.  The Gaussian
    entries are Box-Muller normals from the counter-based SplitMix64 stream
    keyed by ``seed``."""
    return _haar_special_orthogonal_keys(n, _one_key(seed))[0]
