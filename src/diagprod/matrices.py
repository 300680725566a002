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


def _splitmix64(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, applied in place to a ``uint64`` array, with
    ``t`` (if given) a scratch array of its shape.

    numpy's ``uint64`` array arithmetic wraps modulo 2**64, which is exactly
    the arithmetic the mixer is defined in.
    """
    t = np.right_shift(x, 30, out=t)
    x ^= t
    x *= _MIX64[0]
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _MIX64[1]
    np.right_shift(x, 31, out=t)
    x ^= t
    return x


def _draws(keys, first: int, count: int, out=None, t=None) -> np.ndarray:
    """Draws ``first`` to ``first + count - 1`` of the stream of each key (a
    1-D array or one scalar), as ``uint64`` of shape ``(count, len(keys))``
    (``(count, 1)`` for a scalar): row ``j`` holds draw ``d = first + j``, the
    SplitMix64 finalizer of ``k + (d + 1) golden`` modulo 2**64 for key ``k``,
    that is ``derive_seed(k, d)``.  The one place a draw is computed; written
    into ``out``, with ``t`` the mixer's scratch, when they are given."""
    j = (np.arange(count, dtype=np.uint64) + np.uint64((first + 1) & _MASK64)) * _GOLDEN64
    return _splitmix64(np.add(j[:, None], keys, out=out), t)


def _stream_keys(seed: int, first: int, count: int) -> np.ndarray:
    """``derive_seed(seed, first + i)`` for ``i`` in ``range(count)``, as ``uint64``."""
    return _draws(np.uint64(seed & _MASK64), first, count)[:, 0]


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a stream index into a fresh 64-bit seed.

    SplitMix64: the finalizer applied to ``seed + (index + 1) * golden`` modulo
    2**64.  The map is pure, so substreams may be drawn in any order (or
    concurrently) and still coincide with a serial run.  Both arguments may
    be any integers.
    """
    return int(_stream_keys(_check_n(seed, name="seed"), _check_n(index, name="index"), 1)[0])


def _standard_normals(keys: np.ndarray, count: int, work: np.ndarray) -> np.ndarray:
    """``count`` standard normals per stream key, batch-last: shape
    ``(count, len(keys))``, a view of ``work``, a float64 buffer of at least
    ``4 ((count + 1) // 2) len(keys)`` entries: its halves hold the draws and
    the mixer's scratch, then the uniforms and the normals.

    Counter-based: draw ``j`` of stream ``k`` is ``derive_seed(k, j)``, the
    ``j``-th output of a SplitMix64 generator seeded with ``k`` (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC'11).  Its top 53 bits
    ``b`` give ``u = (b + 1/2) / 2**53`` in ``[2**-54, 1]``, so ``log u`` and
    every normal are finite.  Box-Muller turns draw ``j`` (radius ``r =
    sqrt(-2 log u)``) and draw ``pairs + j`` (angle ``2 pi u``) into normals
    ``2j`` (``r cos``) and ``2j + 1`` (``r sin``), so rows ``0::2`` and
    ``1::2`` are the two halves as computed.  Stream version 4 takes the pair
    from ``t = tan(pi u)``, the tangent of the half angle, as ``k (1 - t^2)``
    and ``2 k t`` with ``k = r / (1 + t^2)``: one ``tan`` costs a fraction of
    a ``cos`` and a ``sin``, and the pair is within about ``5e-16 r`` of
    theirs.  ``t`` overwrites the angle uniforms and ``k`` the radii.
    """
    pairs, m = (count + 1) // 2, len(keys)
    first, second = work[: 4 * pairs * m].reshape(2, 2 * pairs, m)
    x = _draws(keys, 0, 2 * pairs, first.view(np.uint64), second.view(np.uint64))
    np.right_shift(x, 11, out=x)
    u = np.add(x, 0.5, out=second)  # exact: the 53 bits convert exactly
    u *= 2.0**-53
    radius = np.log(u[:pairs], out=u[:pairs])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    t = u[pairs:]
    t *= np.pi
    np.tan(t, out=t)  # finite, as no float is an odd multiple of pi/2
    out = first.reshape(pairs, 2, m)
    even, odd = out[:, 0], out[:, 1]
    np.multiply(t, t, out=even)
    np.add(even, 1.0, out=odd)
    k = np.divide(radius, odd, out=radius)
    np.subtract(1.0, even, out=even)
    even *= k
    k += k
    np.multiply(k, t, out=odd)
    return out.reshape(2 * pairs, m)[:count]


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
    """Product of the diagonal entries of a square matrix; ValueError naming
    the first non-finite entry, if any."""
    return complex(_diag_products(_check_finite("m", _square(m))))


def _unitarity_errors(mats: np.ndarray) -> np.ndarray:
    """The Gram error, the max-entry norm of  m†m - I, and |det m - 1| of each
    matrix of a stack (or of one matrix), along a last axis of length 2.  A
    matrix with a non-finite entry has a non-finite diagonal Gram entry, so
    its Gram error is inf or NaN and fails every bound, and no floating-point
    warning is raised for it."""
    a = np.asarray(mats, np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = a.conj().swapaxes(-1, -2) @ a
        gram -= np.eye(a.shape[-1])
        return np.stack([np.abs(gram).max(axis=(-2, -1)), np.abs(np.linalg.det(a) - 1.0)], -1)


def is_unitary(m, tol: float = 1e-10) -> bool:
    """True iff the max-entry norm of  m†m - I  is at most ``tol``."""
    tol, a = _check_tol(tol), _square(m)
    return bool(_unitarity_errors(a)[0] <= tol)


def is_special_unitary(m, tol: float = 1e-10) -> bool:
    """Unitary with determinant 1 within ``tol`` (LU-based determinant)."""
    tol, a = _check_tol(tol), _square(m)
    return bool(_unitarity_errors(a).max() <= tol)


def is_special_orthogonal(m, tol: float = 1e-10) -> bool:
    """Real (all imaginary parts within ``tol``) and special unitary."""
    tol, a = _check_tol(tol), _square(m)
    return bool(np.abs(a.imag).max() <= tol and _unitarity_errors(a).max() <= tol)


def _generator(n: int, j: int, k: int, upper: complex, lower: complex) -> np.ndarray:
    """The n x n matrix with entry (j, k) ``upper`` and (k, j) ``lower``
    (1-based), zero elsewhere; ValueError unless 1 <= j < k <= n."""
    n, j, k = _check_n(n, 2), _check_n(j, name="j"), _check_n(k, name="k")
    if not (1 <= j < k <= n):
        raise ValueError(f"indices must satisfy 1 <= j < k <= n, got j={j}, k={k}, n={n}")
    m = np.zeros((n, n), np.complex128)
    m[j - 1, k - 1] = upper
    m[k - 1, j - 1] = lower
    return m


def generator_x(n: int, j: int, k: int) -> np.ndarray:
    """Real rotation generator: entry (j,k) is -1 and (k,j) is +1 (1-based)."""
    return _generator(n, j, k, -1.0, 1.0)


def generator_y(n: int, j: int, k: int) -> np.ndarray:
    """Imaginary mixing generator: entries (j,k) and (k,j) are both i (1-based)."""
    return _generator(n, j, k, 1.0j, 1.0j)


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
    (real, imaginary) for a complex one.  ``work`` holds ``2 P - 1`` scratch
    planes of at least the block's ``(p, c, m)`` shape, so no block-sized
    temporary is allocated.
    """
    planes, p, c = b.shape[:3]
    s = work[:planes, :p, :c]
    vr = v[0, :, None]
    np.multiply(vr, b, out=s)  # vr br, vr bi
    if planes == 2:
        t, vi = work[2, :p, :c], v[1, :, None]
        s[0] += np.multiply(vi, b[1], out=t)  # vi bi
        s[1] -= np.multiply(vi, b[0], out=t)  # vi br
    w = _ordered_sum(s.swapaxes(0, 1))  # v^H b: (wr, wi)
    w *= beta
    b -= np.multiply(vr, w[:, None], out=s)
    if planes == 2:
        b[0] += np.multiply(vi, w[1], out=t)  # vi wi
        b[1] -= np.multiply(vi, w[0], out=t)  # vi wr


def _householder_q(v: np.ndarray, work: np.ndarray):
    """Q = H_0 ... H_{n-2} diag(f) and det Q, for a batch-last stack.

    ``v`` holds ``m`` lower-triangular ``(n, n, m)`` matrices as ``P`` planes,
    shape ``(P, n, n, m)``: ``P = 1`` for real input, 2 (real, imaginary) for
    complex.  Column ``k``, rows ``k..n-1``, is the vector ``x`` of reflector
    ``k``; the strict upper triangle must be zero, so the norms of all columns
    come from one ordered sum (leading zeros add exactly).  ``H_k = I -
    beta_k u u^H`` on rows ``k..n-1`` with ``u = x + ph_k |x| e1``, ``ph_k`` the
    phase of ``x[0]`` (1 where it is 0).  ``f_k = -ph_k`` (``ph_k`` where
    ``x = 0`` and ``H_k = I``) and ``f_{n-1} = ph_{n-1}``, so ``det Q = ph_0
    ... ph_{n-1}``.  Q is accumulated over ``v`` in place: before step ``k``,
    ``u`` moves to a spare column and column ``k`` becomes ``f_k e_k``, what
    ``H_{k+1} ... H_{n-2} diag(f)`` holds there.  Only real elementwise
    operations are used, so each matrix of a batch gets the same bits as it
    would alone.  ``work`` is scratch of shape ``(2 P - 1, n, n, m)``.
    Returns Q (that is, ``v``) as ``(P, n, n, m)`` planes and det Q as
    ``(P, m)``.
    """
    cplx = len(v) == 2
    n, m = v.shape[2:]
    diag = np.arange(n)
    sq = np.multiply(v[0], v[0], out=work[0])
    if cplx:
        sq += np.multiply(v[1], v[1], out=work[1])
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
    sign = np.where(beta > 0.0, -1.0, 1.0)
    spare = np.empty((len(v), n, m))
    v[:, -1, -1] = ph[:, -1]
    for k in range(n - 2, -1, -1):
        u = spare[:, k:]
        u[...] = v[:, k:, k]
        v[:, k:, k] = 0.0
        v[:, k, k] = ph[:, k] * sign[k]
        _reflect(beta[k], u, v[:, k:, k:], work)
    d = ph[:, 0]
    for k in range(1, n):
        if cplx:
            (dr, di), (pr, pi) = d, ph[:, k]
            d = np.array([dr * pr - di * pi, dr * pi + di * pr])
        else:
            d = d * ph[:, k]
    return v, d


def _stewart_q(n: int, keys: np.ndarray, planes: int):
    """Stewart's (1980) Q for one sample per stream key, as ``_householder_q``
    returns it, and its spent scratch, a buffer of at least Q's size for the
    caller's output.  Each key's ``planes * n (n + 1) / 2`` normals, taken
    ``planes`` at a time (the ``r cos`` and ``r sin`` halves of a Box-Muller
    pair, both from one half-angle tangent, are the real and imaginary parts
    of a complex entry), fill the lower triangle column by column, so column
    ``k``, rows ``k..n-1``, is reflector ``k``'s fresh Gaussian vector.  In a
    QR of a Gaussian matrix, reflector ``k`` sees exactly such a vector,
    independent of the earlier ones, so no forward pass is needed; the
    reflectors are scale-free, so the entry variance does not matter.  The
    normals, the reflection scratch and then the output share one buffer, and
    Q overwrites the reflectors, so a call allocates two large arrays."""
    n, m = _check_n(n, 1), len(keys)
    count = planes * (n * (n + 1) // 2)
    v = np.empty((planes, n, n, m))
    v.fill(0.0)  # written now, as a fresh np.zeros page is faulted twice
    scratch = (2 * planes - 1) * n * n * m
    work = np.empty(max(scratch, 4 * ((count + 1) // 2) * m))
    g = _standard_normals(keys, count, work).reshape(-1, planes, m)
    cols, rows = np.triu_indices(n)
    v[:, rows, cols] = g.transpose(1, 0, 2)
    q, d = _householder_q(v, work[:scratch].reshape((2 * planes - 1,) + v.shape[1:]))
    return q, d, work


def _batch_first(q: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """The ``(m, n, n)`` stack of batch-last ``(P, n, n, m)`` planes, complex
    for two planes and real for one, written over the start of ``buffer``, a
    spent float64 array of at least the planes' size."""
    dtype = np.complex128 if len(q) == 2 else np.float64
    out = buffer.reshape(-1)[: q.size].view(dtype).reshape(q.shape[:0:-1])  # (m, n, n)
    planes = out.transpose(1, 2, 0)
    planes.real = q[0]  # a real array is its own real part
    if len(q) == 2:
        planes.imag = q[1]
    return out


def _haar_keys(n: int, keys: np.ndarray, group: str) -> np.ndarray:
    """One Haar sample of ``group`` per stream key, for ``group`` "U", "SU"
    or "SO".  U(n): Stewart's Householder Q from complex reflector vectors,
    which has the law of the Q factor of a complex Ginibre matrix with a real
    positive R diagonal (Mezzadri 2007).  SU(n): that sample with column 1
    divided by det Q, that is multiplied by its conjugate, as det Q is a
    unit phase.  SO(n): Stewart's Q from real reflector vectors, column 1
    flipped where det Q = -1."""
    q, d, spent = _stewart_q(n, keys, 1 if group == "SO" else 2)
    if group == "SU":
        (dr, di), (cr, ci) = d, q[:, :, 0]
        cr[...], ci[...] = cr * dr + ci * di, ci * dr - cr * di
    elif group == "SO":
        q[0, :, 0] *= d[0]
    return _batch_first(q, spent)


def _haar_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Stack of ``count`` Haar unitaries; slice ``i`` is seeded by
    ``derive_seed(seed, start + i)`` and equals ``haar_unitary(n, that_seed)``.
    The stack is a view of the start of the call's spent scratch buffer, which
    it keeps alive: 1.5 times its size for U(n) and SU(n), and for SO(n) up to
    2 times (at n = 2).  A caller that holds a large stack long can trim it
    with ``copy``."""
    return _haar_keys(n, _stream_keys(seed, start, count), "U")


def _haar_special_unitary_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """As :func:`_haar_unitary_batch`, for SU(n), and a view of a buffer alike."""
    return _haar_keys(n, _stream_keys(seed, start, count), "SU")


def _haar_special_orthogonal_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """As :func:`_haar_unitary_batch`, for SO(n), and a view of a buffer alike."""
    return _haar_keys(n, _stream_keys(seed, start, count), "SO")


def haar_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar-distributed U(n) sample: Stewart's product of Householder
    reflectors, reflector ``k`` built from ``n - k`` fresh complex normals,
    times the phase fix that makes it the law of the Q factor with a real
    positive R diagonal of a complex Ginibre matrix.  The normals are
    Box-Muller pairs from the counter-based SplitMix64 stream keyed by
    ``seed``, each pair's cosine and sine from the tangent of its half angle
    (stream version 4), so the sample is deterministic in ``seed``."""
    return _haar_keys(n, _one_key(seed), "U")[0]


def haar_special_unitary(n: int, seed: int = 0) -> np.ndarray:
    """Haar SU(n) sample: ``haar_unitary(n, seed)``, from the same stream
    version 4 normals, with column 1 divided by its determinant, a unit phase
    read off the Householder reflectors."""
    return _haar_keys(n, _one_key(seed), "SU")[0]


def haar_special_orthogonal(n: int, seed: int = 0) -> np.ndarray:
    """Haar SO(n) sample: Stewart's product of real Householder reflectors,
    reflector ``k`` built from ``n - k`` fresh Box-Muller normals of the
    counter-based SplitMix64 stream keyed by ``seed`` (stream version 4, each
    pair from the tangent of its half angle), times the sign fix of
    a positive R diagonal, with column 1 flipped if the determinant, read off
    the reflectors, is -1."""
    return _haar_keys(n, _one_key(seed), "SO")[0]
