"""Membership oracles for the diagonal-product images.

Two independent tests for the SU(n) region: a polar comparison of |z| against
the boundary radius at arg z (the region is star-shaped about 0), and a
winding-number test that counts signed ray crossings of a polygonal
approximation of the boundary curve.  Each test has one array core returning
codes (+1 Inside, 0 OnBoundary, -1 Outside) and signed margins; a non-finite
point gets code -1 and margin -inf.  The scalar oracles run their core on a
single point and reject non-finite input with ValueError.  The unitary image
is the closed unit disk and the special orthogonal image is a real interval,
both handled by direct distance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .boundary import gamma, _radius_many
from .matrices import _check_finite, _check_n, _check_tol

__all__ = [
    "Membership",
    "MembershipVerdict",
    "su_region_contains",
    "su_region_contains_winding",
    "u_region_contains",
    "so_interval",
]


class Membership(Enum):
    INSIDE = "Inside"
    ON_BOUNDARY = "OnBoundary"
    OUTSIDE = "Outside"


_STATUS = {1: Membership.INSIDE, 0: Membership.ON_BOUNDARY, -1: Membership.OUTSIDE}


@dataclass(frozen=True)
class MembershipVerdict:
    """Three-way region verdict with a signed margin (positive = inside).

    For the polar test the margin is r(theta) - |z|; for the winding test it
    is the distance to the boundary polyline signed by the winding number; for
    the degenerate images (n = 1 point, n = 2 segment) it is tol - distance.
    """

    status: Membership
    signed_margin: float


def _verdict(codes: np.ndarray, margins: np.ndarray) -> MembershipVerdict:
    return MembershipVerdict(_STATUS[int(codes[0])], float(margins[0]))


def su_region_contains(n: int, z, tol: float = 1e-9) -> MembershipVerdict:
    """Classify z against the diagonal-product image of SU(n).

    n = 1: the image is the single point 1 (Inside iff within tol).
    n = 2: the image is the real segment [0, 1] (its own boundary).
    n >= 3: polar star-shaped test, |z| versus the boundary radius at arg z.
    """
    n = _check_n(n, 1)
    tol = _check_tol(tol)
    z = _check_finite("z", complex(z))
    return _verdict(*_classify_su_many(n, np.array([z]), tol))


@lru_cache(maxsize=32)
def _boundary_polyline(n: int, samples: int) -> np.ndarray:
    alphas = np.linspace(-np.pi, np.pi, samples, endpoint=False)
    pts = gamma(n, alphas)
    pts.flags.writeable = False
    return pts


def su_region_contains_winding(
    n: int, z, samples: int = 8192, tol: float = 1e-9
) -> MembershipVerdict:
    """Independent SU(n) membership oracle via the winding number of a
    polygonal boundary approximation around z, counted as signed crossings of
    a horizontal ray.

    Points within ``tol`` of the polyline (including its vertices) classify as
    OnBoundary; otherwise Inside iff the winding number is nonzero.
    """
    n, samples = _check_n(n, 3), _check_n(samples, 1024, "samples")
    tol = _check_tol(tol)
    z = _check_finite("z", complex(z))
    return _verdict(*_winding_codes_many(n, np.array([z]), samples, tol))


def u_region_contains(n: int, z, tol: float = 1e-9) -> MembershipVerdict:
    """Classify z against the diagonal-product image of U(n): the closed unit
    disk for every n >= 2."""
    n = _check_n(n, 2)
    tol = _check_tol(tol)
    z = _check_finite("z", complex(z))
    with np.errstate(over="ignore"):  # |z| past the largest float is inf
        margin = 1.0 - float(np.hypot(z.real, z.imag))  # libm's hypot, as Python's abs
    return MembershipVerdict(_STATUS[(margin > tol) - (margin < -tol)], margin)


def so_interval(n: int) -> tuple[float, float]:
    """Endpoints of the diagonal-product image of SO(n): [-(1-2/n)^n, 1].

    The formula degenerates gracefully: n = 1 gives (1, 1) and n = 2 gives
    (0, 1).
    """
    n = _check_n(n, 1)
    lo = -((1.0 - 2.0 / n) ** n) + 0.0
    return (lo, 1.0)


# consecutive polyline segments that share one bounding box: a run is the
# first level of the winding core's pruning, a sub-box of a run the second.
# One level of shorter runs is slower: on 128-point blocks, 16- or 32-segment
# runs without sub-boxes took about 1.5 times as long as the two levels.
_RUN = 64
_SUB = 8
_OFFSETS = np.arange(_RUN + 1)  # of a run's vertices, or of a box's segments
_SUB_POINTS = 16  # the fewest points of a block that also tests sub-boxes


@lru_cache(maxsize=64)
def _polyline_boxes(n: int, samples: int, size: int) -> np.ndarray:
    """Rows xmin, xmax, ymin, ymax of the bounding box of each ``size``
    consecutive segments of the boundary polyline (the last box that holds a
    segment may hold fewer), ``_RUN // size`` boxes per run: where the last
    run is short, the boxes past the end are NaN, which no predicate keeps."""
    pts = _boundary_polyline(n, samples)
    first = np.arange(-(-samples // _RUN) * (_RUN // size)) * size
    v = pts[np.minimum(first[:, None] + np.arange(size + 1), samples) % samples]
    boxes = np.stack([v.real.min(1), v.real.max(1), v.imag.min(1), v.imag.max(1)])
    boxes[:, first >= samples] = np.nan
    boxes.flags.writeable = False
    return boxes


def _gap2(zx: np.ndarray, zy: np.ndarray, boxes, out: np.ndarray) -> np.ndarray:
    """Squared distance from each point to each box (0 inside it), written
    into ``out``, three scratch arrays of the broadcast shape; returns out[0]."""
    xmin, xmax, ymin, ymax = boxes
    gx, gy, other = out
    np.maximum(np.subtract(xmin, zx, out=gx), np.subtract(zx, xmax, out=other), out=gx)
    np.maximum(gx, 0.0, out=gx)
    gx *= gx
    np.maximum(np.subtract(ymin, zy, out=gy), np.subtract(zy, ymax, out=other), out=gy)
    np.maximum(gy, 0.0, out=gy)
    gy *= gy
    gx += gy
    return gx


def _kept(gap2, reach2, zx, zy, boxes) -> np.ndarray:
    """The boxes no farther than the reach (which may hold the nearest
    segment) or spanning the point's height at or right of it (which may
    cross its rightward ray), with the rounding slack of
    ``_winding_codes_many``."""
    _, xmax, ymin, ymax = boxes
    ray = (ymin - 1e-12 <= zy) & (zy <= ymax + 1e-12) & (xmax >= zx - 1e-12)
    return (gap2 <= reach2) | ray


@np.errstate(over="ignore")
def _winding_codes_many(n: int, zs: np.ndarray, samples: int, tol: float, block: int = 512):
    """Winding-number classification of an array of points: the core of
    :func:`su_region_contains_winding`.

    Returns (codes, margins); points are processed in blocks to bound memory,
    and the first level's temporaries of all blocks share one buffer.  The
    winding number is counted through signed horizontal-ray crossings
    (multiplication-only, exact for points off the polyline).

    Each point tests only the segments of the boxes that can matter, with
    the same per-segment arithmetic as a test of every segment, so codes and
    margins equal that test bit for bit.  The boxes come in two levels: runs
    of ``_RUN`` segments, and the ``_SUB``-segment sub-boxes of the runs a
    point keeps.  A block of fewer than ``_SUB_POINTS`` points (a scalar
    query) stops at the runs, as the second level's fixed cost per block
    exceeds what its fewer segments save there.  At both levels a box is
    kept when it is no farther than the reach, the distance to the nearest
    vertex of the nearest run (any polyline vertex bounds the nearest-segment
    distance from above, so the vertices after a short last run serve too),
    or when it spans the point's height and reaches the right of it.  That
    is exact at each level for the same two reasons: the nearest segment
    lies in a box no farther than that vertex, so its run and its sub-box are
    both kept, and a segment that crosses the rightward ray has an end on
    each side of the point's height, right of the point, so both its boxes
    span the ray.  The slack
    constants keep the pruning exact under rounding: the crossing predicates
    compare rounded differences, which can misplace a segment's end by an ulp
    of the unit disk (1e-12 covers it), and a computed distance is off by an
    ulp of the point's coordinates, which the relative 1e-9 and the absolute
    1e-12 on the reach cover.
    """
    zs = np.asarray(zs, np.complex128).reshape(-1)
    finite = np.isfinite(zs)
    zs = np.where(finite, zs, 0.0)
    pts = _boundary_polyline(n, samples)
    run_boxes = _polyline_boxes(n, samples, _RUN)
    codes = np.empty(len(zs), np.int8)
    margins = np.empty(len(zs))
    scratch = np.empty((3, min(block, len(zs)), run_boxes.shape[1]))
    for start in range(0, len(zs), block):
        z = zs[start : start + block]
        zx = z.real[:, None]
        zy = z.imag[:, None]
        lb2 = _gap2(zx, zy, run_boxes, scratch[:, : len(z)])
        v = pts.take(lb2.argmin(axis=1)[:, None] * _RUN + _OFFSETS, mode="wrap")
        vx = zx - v.real
        vy = zy - v.imag
        vx *= vx
        vy *= vy
        vx += vy
        reach = np.sqrt(vx.min(axis=1, keepdims=True))
        reach *= 1.0 + 1e-9
        reach += 1e-12
        reach *= reach
        rows, boxes = np.nonzero(_kept(lb2, reach, zx, zy, run_boxes))
        size = _RUN
        if len(z) >= _SUB_POINTS:  # the sub-boxes of the kept runs
            subs = boxes[:, None] * (_RUN // _SUB) + _OFFSETS[: _RUN // _SUB]
            sub = _polyline_boxes(n, samples, _SUB)[:, subs]
            bx, by = z.real[rows, None], z.imag[rows, None]
            gap2 = _gap2(bx, by, sub, np.empty((3,) + subs.shape))
            pairs, which = np.nonzero(_kept(gap2, reach[rows], bx, by, sub))
            rows, boxes, size = rows[pairs], subs[pairs, which], _SUB
        seg = (boxes[:, None] * size + _OFFSETS[:size]).reshape(-1)
        row = np.repeat(rows, size)
        real = seg < samples  # the last box may be shorter
        seg, row = seg[real], row[real]
        p = pts[seg]
        s = pts.take(seg + 1, mode="wrap") - p
        px, py = p.real, p.imag
        sx, sy = s.real, s.imag
        inv_seg2 = 1.0 / (sx**2 + sy**2)
        dx = z.real[row] - px
        dy = z.imag[row] - py
        # signed horizontal-ray crossings: an upward edge with z strictly to
        # its left adds one turn, a downward edge with z strictly to its
        # right removes one
        is_left = sx * dy
        is_left -= sy * dx
        up = (dy >= 0.0) & (sy > dy) & (is_left > 0.0)
        down = (dy < 0.0) & (sy <= dy) & (is_left < 0.0)
        winding = np.bincount(row[up], minlength=len(z)) - np.bincount(
            row[down], minlength=len(z)
        )
        # nearest-segment distance, reusing the offset buffers
        t = dx * sx
        t += dy * sy
        t *= inv_seg2
        np.clip(t, 0.0, 1.0, out=t)
        dx -= t * sx
        dy -= t * sy
        dx *= dx
        dy *= dy
        dx += dy
        dist2 = np.full(len(z), np.inf)
        np.minimum.at(dist2, row, dx)
        # the polyline lies in the unit disk, so a point this far out is |z|
        # from it to rounding (from about 1e154 on, dist2 overflows)
        dist = np.where(dist2 >= 1e300, np.abs(z), np.sqrt(dist2))
        on_edge = dist <= tol
        inside = winding != 0
        codes[start : start + block] = np.where(on_edge, 0, np.where(inside, 1, -1))
        margins[start : start + block] = np.where(on_edge | inside, dist, -dist)
    codes[~finite] = -1
    margins[~finite] = -np.inf
    return codes, margins


def _polar_margins(n: int, zs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, r(theta) - |z|) per point for n >= 3: the curve parameter of
    the boundary point at the polar angle theta of z, and the signed polar
    margin, positive inside.  theta is taken as 0 where |z| <= tol (no
    reliable angle) or z is not finite.  The one polar verdict: the polar
    oracle and the preimage solver's outside test and boundary seed read it."""
    mod = np.abs(zs)
    theta = np.where(np.isfinite(zs) & (mod > tol), np.angle(zs), 0.0)
    alpha, radius = _radius_many(n, theta)
    return alpha, radius - mod


def _classify_su_many(n: int, zs: np.ndarray, tol: float):
    """Polar classification of an array of points: the core of
    :func:`su_region_contains`.

    Returns (codes, margins) with codes +1 Inside, 0 OnBoundary, -1 Outside.
    """
    zs = np.asarray(zs, np.complex128)
    finite = np.isfinite(zs)
    if n <= 2:
        # distance to the nearest point of the image: the point 1 (n = 1) or
        # the segment [0, 1] (n = 2); the point is Inside, the segment is its
        # own boundary
        margins = tol - np.abs(zs - np.clip(zs.real, 2.0 - n, 1.0))
        codes = np.where(margins >= 0.0, int(n == 1), -1)
    else:
        margins = _polar_margins(n, zs, tol)[1]
        codes = np.where(margins > tol, 1, np.where(margins < -tol, -1, 0))
    # a non-finite point has no margin: it is outside, as the worst possible one
    codes = np.where(finite, codes, -1).astype(np.int8)
    margins = np.where(finite, margins, -np.inf)
    return codes, margins
