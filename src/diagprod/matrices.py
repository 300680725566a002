"""Dense complex matrix primitives.

Diagonal products, unitary/special-unitary/special-orthogonal predicates,
the skew-Hermitian generator basis, guaranteed-unitary matrix exponentials,
and seeded Haar sampling of U(n), SU(n) and SO(n).

A Haar sample is Stewart's (1980) product of Householder reflectors, each
built from its own fresh Gaussian vector: the law of the Q factor with a
real positive R diagonal of a Gaussian matrix, from n(n+1)/2 normals per
real plane and no QR pass.  One core accumulates it for a whole batch at
once, on batch-last real and imaginary float64 planes, and reads det Q off
the same reflectors, so the special groups need no LU pass.  It uses only
real elementwise operations and explicitly ordered sums, so slice i of a
batch equals the single sample bit for bit.
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


def _check_finite(name: str, x):
    """Return ``x``; raise ValueError naming its first non-finite entry."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.asarray(x)[~finite]
        raise ValueError(f"{name} must be finite, got {bad.flat[0].item()!r}")
    return x


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
    deviation from skew-Hermiticity exceeds ``tol``, or any non-finite entry.
    """
    tol = _check_tol(tol)
    m = _check_finite("a", _square(a)).astype(np.complex128, copy=False)
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


def _reflect(beta, v: np.ndarray, b: np.ndarray, work: np.ndarray) -> None:
    """Apply ``I - beta v v^H`` in place to every column of a block.

    ``v`` holds the reflector as ``(P, p, m)`` planes and ``b`` the block as
    ``(P, p, c, m)`` planes, ``p >= 2``: ``P = 1`` for a real reflector and 2
    (real, imaginary) for a complex one.  ``work`` holds two scratch stacks of
    at least the block's shape, so no block-sized temporary is allocated.
    """
    p, c = b.shape[1:3]
    s, t = work[0, :, :p, :c], work[1, :, :p, :c]
    vr = v[0, :, None]
    np.multiply(vr, b, out=s)  # vr br, vr bi
    if len(v) == 2:
        vi = v[1, :, None]
        np.multiply(vi, b[::-1], out=t)  # vi bi, vi br
        s[0] += t[0]
        s[1] -= t[1]
    w = _ordered_sum(s.swapaxes(0, 1))  # v^H b: (wr, wi)
    w *= beta
    b -= np.multiply(vr, w[:, None], out=s)
    if len(v) == 2:
        np.multiply(vi, w[::-1, None], out=t)  # vi wi, vi wr
        b[0] += t[0]
        b[1] -= t[1]


def _householder_q(v: np.ndarray):
    """Q = H_0 ... H_{n-2} diag(f) and det Q, for a batch-last stack.

    ``v`` holds ``m`` lower-triangular ``(n, n, m)`` matrices as ``P`` planes,
    shape ``(P, n, n, m)``: ``P = 1`` for real input, 2 (real, imaginary) for
    complex.  Column ``k``, rows ``k..n-1``, is the vector ``x`` of reflector
    ``k``; the strict upper triangle must be zero, so the norms of all columns
    come from one ordered sum (leading zeros add exactly).  ``H_k = I -
    beta_k u u^H`` on rows ``k..n-1`` with ``u = x + ph_k |x| e1``, ``ph_k`` the
    phase of ``x[0]`` (1 where it is 0); ``u`` is written over ``x``.  ``f_k =
    -ph_k`` (``ph_k`` where ``x = 0`` and ``H_k = I``) and ``f_{n-1} =
    ph_{n-1}``, so ``det Q = ph_0 ... ph_{n-1}``.  Only real elementwise
    operations are used, so each matrix of a batch gets the same bits as it
    would alone.  Returns Q as ``(P, n, n, m)`` planes and det Q as ``(P, m)``.
    """
    cplx = len(v) == 2
    n, m = v.shape[2:]
    diag = np.arange(n)
    sq = v[0] * v[0]
    if cplx:
        sq += v[1] * v[1]
    x0 = np.sqrt(sq[diag, diag])
    nonzero = x0 > 0.0
    ph = v[:, diag, diag] / np.where(nonzero, x0, 1.0)
    ph[0, ~nonzero] = 1.0
    beta = np.zeros((n - 1, m))
    if n > 1:
        norm = np.sqrt(_ordered_sum(sq[:, :-1]))
        scale = x0[:-1] + norm
        v[:, diag[:-1], diag[:-1]] = ph[:, :-1] * scale
        scale *= norm  # |u|^2 / 2, zero only for a zero vector, where H_k = I
        np.divide(1.0, scale, out=beta, where=scale > 0.0)
    q = np.zeros(v.shape)
    q[:, diag, diag] = ph
    q[:, diag[:-1], diag[:-1]] *= np.where(beta > 0.0, -1.0, 1.0)
    work = np.empty((2,) + v.shape)
    for k in range(n - 2, -1, -1):
        _reflect(beta[k], v[:, k:, k], q[:, k:, k:], work)
    d = ph[:, 0]
    for k in range(1, n):
        if cplx:
            (dr, di), (pr, pi) = d, ph[:, k]
            d = np.array([dr * pr - di * pi, dr * pi + di * pr])
        else:
            d = d * ph[:, k]
    return q, d


def _reflector_vectors(n: int, keys: np.ndarray, planes: int) -> np.ndarray:
    """Stewart's (1980) reflector vectors, one set per stream key, for
    ``_householder_q``: each key's ``planes * n (n + 1) / 2`` normals, taken
    ``planes`` at a time (the ``r cos`` and ``r sin`` halves of a Box-Muller
    pair are the real and imaginary parts of a complex entry), fill the lower
    triangle column by column, so column ``k``, rows ``k..n-1``, is reflector
    ``k``'s fresh Gaussian vector.  In a QR of a Gaussian matrix, reflector
    ``k`` sees exactly such a vector, independent of the earlier ones, so no
    forward pass is needed; the reflectors are scale-free, so the entry
    variance does not matter."""
    n = _check_n(n, 1)
    g = _standard_normals(keys, planes * (n * (n + 1) // 2)).reshape(-1, planes, len(keys))
    cols, rows = np.triu_indices(n)
    v = np.zeros((planes, n, n, len(keys)))
    v[:, rows, cols] = g.transpose(1, 0, 2)
    return v


def _batch_first(q: np.ndarray) -> np.ndarray:
    """The ``(m, n, n)`` complex stack of batch-last ``(2, n, n, m)`` planes."""
    out = np.empty(q.shape[3:] + q.shape[1:3], np.complex128)
    planes = out.transpose(1, 2, 0)
    planes.real, planes.imag = q
    return out


def _haar_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar U(n) sample per stream key: Stewart's Householder Q, which
    has the law of the Q factor of a complex Ginibre matrix with a real
    positive R diagonal (Mezzadri 2007)."""
    return _batch_first(_householder_q(_reflector_vectors(n, keys, 2))[0])


def _haar_special_unitary_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """The U(n) sample with column 1 divided by det Q: multiplied by its
    conjugate, since det Q is a unit phase."""
    q, (dr, di) = _householder_q(_reflector_vectors(n, keys, 2))
    cr, ci = q[:, :, 0]
    cr[...], ci[...] = cr * dr + ci * di, ci * dr - cr * di
    return _batch_first(q)


def _haar_special_orthogonal_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """One Haar SO(n) sample per stream key: Stewart's Q from real reflector
    vectors, column 1 flipped where det Q = -1."""
    (q,), (d,) = _householder_q(_reflector_vectors(n, keys, 1))
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
    """Haar-distributed U(n) sample: Stewart's product of Householder
    reflectors, reflector ``k`` built from ``n - k`` fresh complex normals,
    times the phase fix that makes it the law of the Q factor with a real
    positive R diagonal of a complex Ginibre matrix.  The normals are
    Box-Muller pairs from the counter-based SplitMix64 stream keyed by
    ``seed``, so the sample is deterministic in ``seed``."""
    return _haar_unitary_keys(n, _one_key(seed))[0]


def haar_special_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar SU(n) sample: ``haar_unitary(n, seed)`` with column 1 divided by
    its determinant, a unit phase read off the Householder reflectors."""
    return _haar_special_unitary_keys(n, _one_key(seed))[0]


def haar_special_orthogonal(n: int, seed: int = 0) -> np.ndarray:
    """Haar SO(n) sample: Stewart's product of real Householder reflectors,
    reflector ``k`` built from ``n - k`` fresh Box-Muller normals of the
    counter-based SplitMix64 stream keyed by ``seed``, times the sign fix of
    a positive R diagonal, with column 1 flipped if the determinant, read off
    the reflectors, is -1."""
    return _haar_special_orthogonal_keys(n, _one_key(seed))[0]
