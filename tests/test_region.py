"""Membership oracle tests: polar test, winding test, their agreement, the
unit-disk image, and the special orthogonal interval."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagprod import (
    Membership,
    gamma,
    so_interval,
    su_region_contains,
    su_region_contains_winding,
    u_region_contains,
)
from diagprod.region import (
    _boundary_polyline,
    _classify_su_many,
    _RUN,
    _SUB,
    _SUB_POINTS,
    _polyline_boxes,
    _winding_codes_many,
)

STATUS_CODE = {"Inside": 1, "OnBoundary": 0, "Outside": -1}


def winding_by_angle_sum(n, z, samples, tol):
    """Reference winding oracle, independent of the crossing-count core: the
    turning angle of the polyline seen from z, summed and rounded to whole
    turns.  Returns (code, margin) in the core's conventions."""
    pts = _boundary_polyline(n, samples)
    nxt = np.roll(pts, -1)
    seg = nxt - pts
    rel = z - pts
    seg2 = seg.real**2 + seg.imag**2
    t = np.clip((rel.real * seg.real + rel.imag * seg.imag) / seg2, 0.0, 1.0)
    dist = float(np.abs(z - (pts + t * seg)).min())
    if dist <= tol:
        return 0, dist
    winding = round(float(np.angle((nxt - z) / (pts - z)).sum()) / (2.0 * math.pi))
    return (1, dist) if winding != 0 else (-1, -dist)


def winding_by_broadcast(n, zs, samples, tol, block):
    """Reference for the pruned winding core: every point against every
    segment, with the core's crossing predicate and distance expression.
    Returns (codes, margins) as the core does."""
    zs = np.asarray(zs, np.complex128).reshape(-1)
    finite = np.isfinite(zs)
    zs = np.where(finite, zs, 0.0)
    pts = _boundary_polyline(n, samples)
    nxt = np.roll(pts, -1)
    px, py = pts.real[None, :], pts.imag[None, :]
    sx, sy = (nxt - pts).real[None, :], (nxt - pts).imag[None, :]
    inv_seg2 = 1.0 / (sx**2 + sy**2)
    codes = np.empty(len(zs), np.int8)
    margins = np.empty(len(zs))
    for start in range(0, len(zs), block):
        zx = zs[start : start + block].real[:, None]
        zy = zs[start : start + block].imag[:, None]
        dx = zx - px
        dy = zy - py
        is_left = sx * dy
        is_left -= sy * dx
        up = (dy >= 0.0) & (sy > dy) & (is_left > 0.0)
        down = (dy < 0.0) & (sy <= dy) & (is_left < 0.0)
        winding = up.sum(axis=1) - down.sum(axis=1)
        t = dx * sx
        t += dy * sy
        t *= inv_seg2
        np.clip(t, 0.0, 1.0, out=t)
        dx -= t * sx
        dy -= t * sy
        dx *= dx
        dy *= dy
        dx += dy
        dist = np.sqrt(dx.min(axis=1))
        on_edge = dist <= tol
        inside = (winding != 0) & ~on_edge
        codes[start : start + block] = np.where(on_edge, 0, np.where(inside, 1, -1))
        margins[start : start + block] = np.where(
            on_edge, dist, np.where(inside, dist, -dist)
        )
    codes[~finite] = -1
    margins[~finite] = -np.inf
    return codes, margins


coords = st.floats(-1.5, 1.5, allow_nan=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
finite_coord = st.floats(allow_nan=False, allow_infinity=False)
bad_points = st.one_of(
    st.builds(complex, non_finite, finite_coord),
    st.builds(complex, finite_coord, non_finite),
    st.builds(complex, non_finite, non_finite),
)


class TestPolarTest:
    def test_origin_inside(self):
        assert su_region_contains(3, 0.0).status is Membership.INSIDE

    def test_one_on_boundary(self):
        for n in (3, 4, 5, 6):
            assert su_region_contains(n, 1.0).status is Membership.ON_BOUNDARY

    def test_left_endpoint(self):
        assert su_region_contains(3, -1.0 / 27.0).status is Membership.ON_BOUNDARY
        v = su_region_contains(3, -1.0 / 27.0 - 1e-3)
        assert v.status is Membership.OUTSIDE
        assert v.signed_margin < 0

    def test_boundary_samples_classify_on_boundary(self):
        for n in (3, 6):
            for a in np.linspace(-3.0, 3.0, 17):
                assert su_region_contains(n, gamma(n, a)).status is Membership.ON_BOUNDARY

    def test_margin_is_radial_gap(self):
        v = su_region_contains(4, 0.0)
        assert v.signed_margin == pytest.approx(1.0)  # r(0) = 1 along theta = 0


class TestDegenerateSizes:
    def test_point_image(self):
        assert su_region_contains(1, 1.0).status is Membership.INSIDE
        assert su_region_contains(1, 1.0 + 5e-10).status is Membership.INSIDE
        assert su_region_contains(1, 1.5).status is Membership.OUTSIDE

    def test_segment_image(self):
        assert su_region_contains(2, 0.5).status is Membership.ON_BOUNDARY
        assert su_region_contains(2, 0.0).status is Membership.ON_BOUNDARY
        assert su_region_contains(2, 1.0).status is Membership.ON_BOUNDARY
        assert su_region_contains(2, 0.5 + 1e-3j).status is Membership.OUTSIDE
        assert su_region_contains(2, -0.1).status is Membership.OUTSIDE

    def test_degenerate_margin_convention(self):
        tol = 1e-9
        assert su_region_contains(1, 1.0, tol).signed_margin == pytest.approx(tol)
        assert su_region_contains(2, 2.0, tol).signed_margin == pytest.approx(tol - 1.0)


class TestWindingTest:
    def test_origin_inside(self):
        assert su_region_contains_winding(3, 0.0, 4096).status is Membership.INSIDE

    def test_far_point_outside(self):
        assert su_region_contains_winding(3, 2.0, 4096).status is Membership.OUTSIDE

    def test_vertex_proximity_is_boundary(self):
        z = gamma(3, 1.0)  # not an exact polyline vertex, but within tol of it
        assert su_region_contains_winding(3, z, 4096, tol=1e-3).status is Membership.ON_BOUNDARY

    def test_rejects_small_inputs(self):
        with pytest.raises(ValueError):
            su_region_contains_winding(2, 0.0)
        with pytest.raises(ValueError):
            su_region_contains_winding(3, 0.0, samples=512)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(2048.9)
    @example(2048.0)
    @settings(max_examples=60, deadline=None)
    def test_rejects_non_integral_samples(self, samples):
        # a float sample count used to be truncated with int() and run
        with pytest.raises(ValueError, match="integer"):
            su_region_contains_winding(3, 0.5, samples=samples)

    def test_numpy_integer_samples_are_accepted(self):
        got = su_region_contains_winding(3, 0.5, samples=np.int64(2048))
        assert got == su_region_contains_winding(3, 0.5, samples=2048)

    def test_agreement_with_polar_on_grid(self):
        tol = 1e-9
        for n in (3, 5, 8):
            xs = np.linspace(-1.1, 1.1, 41)
            pts = np.array([complex(x, y) for x in xs for y in xs])
            codes, margins = _classify_su_many(n, pts, tol)
            for z, c, m in zip(pts, codes, margins):
                if abs(m) <= 2 * tol:
                    continue
                w = su_region_contains_winding(n, z, 8192, tol)
                assert STATUS_CODE[w.status.value] == c, (n, z)


class TestVectorizedClassifier:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.1, 1.1, 200) + 1j * rng.uniform(-1.1, 1.1, 200)
        for n in (1, 2, 4):
            codes, margins = _classify_su_many(n, pts, 1e-9)
            for z, c, m in zip(pts, codes, margins):
                v = su_region_contains(n, z, 1e-9)
                assert STATUS_CODE[v.status.value] == c
                assert v.signed_margin == pytest.approx(m, abs=1e-12)

    def test_winding_batch_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.1, 1.1, 120) + 1j * rng.uniform(-1.1, 1.1, 120)
        for n in (3, 5):
            codes, margins = _winding_codes_many(n, pts, 4096, 1e-9, block=37)
            for z, c, m in zip(pts, codes, margins):
                want_code, want_margin = winding_by_angle_sum(n, z, 4096, 1e-9)
                assert want_code == c
                assert want_margin == pytest.approx(m, abs=1e-12)


@st.composite
def winding_cases(draw):
    """(n, samples, block, points): points drawn where the pruning is
    tightest: polyline vertices, points on segments, points at vertex
    heights, a band of 1e-13..1e-3 across a segment, and non-finite points,
    mixed with uniform ones."""
    n = draw(st.integers(3, 30))
    samples = draw(st.integers(1024, 8192))
    block = draw(st.integers(1, 600))
    pts = _boundary_polyline(n, samples)
    seg = np.roll(pts, -1) - pts
    index = st.integers(0, samples - 1)
    fraction = st.floats(0.0, 1.0)
    offset = st.builds(
        lambda sign, power: sign * 10.0**power, st.sampled_from([-1.0, 1.0]), st.floats(-13, -3)
    )
    point = st.one_of(
        st.builds(complex, coords, coords),
        index.map(lambda k: pts[k]),
        st.builds(lambda k, t: pts[k] + t * seg[k], index, fraction),
        st.builds(lambda k, x: complex(x, pts[k].imag), index, coords),
        st.builds(
            lambda k, t, d: pts[k] + t * seg[k] + d * 1j * seg[k] / abs(seg[k]),
            index, fraction, offset,
        ),
        bad_points,
    )
    return n, samples, block, draw(st.lists(point, min_size=1, max_size=80))


class TestPrunedWinding:
    """The winding core prunes segments by run bounding boxes and, for blocks
    of at least ``_SUB_POINTS`` points, by the sub-boxes of the kept runs;
    codes and margins must equal the all-segments reference bit for bit."""

    @given(winding_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_broadcast_reference(self, case):
        n, samples, block, points = case
        zs = np.array(points, np.complex128)
        codes, margins = _winding_codes_many(n, zs, samples, 1e-9, block)
        want_codes, want_margins = winding_by_broadcast(n, zs, samples, 1e-9, block)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(margins, want_margins)

    def test_boxes_hold_every_segment(self):
        # 1027, 1500 and 8190 are multiples of neither 8 nor 64, so the last
        # box of each level holds fewer segments
        for size in (_RUN, _SUB):
            for n, samples in ((3, 1024), (7, 1500), (4, 8192), (5, 1027), (3, 8190)):
                pts = _boundary_polyline(n, samples)
                boxes = _polyline_boxes(n, samples, size)
                xmin, xmax, ymin, ymax = boxes
                box = np.arange(samples) // size
                for end in (pts, np.roll(pts, -1)):
                    assert np.all((xmin[box] <= end.real) & (end.real <= xmax[box]))
                    assert np.all((ymin[box] <= end.imag) & (end.imag <= ymax[box]))
                # whole runs of boxes; those past the last segment are NaN
                assert boxes.shape == (4, -(-samples // _RUN) * (_RUN // size))
                assert np.isnan(boxes[:, box[-1] + 1 :]).all()
                assert not np.isnan(boxes[:, : box[-1] + 1]).any()

    @pytest.mark.parametrize("samples", [8192, 1027, 1500])
    def test_both_levels_match_broadcast_reference(self, samples):
        # blocks below _SUB_POINTS prune by runs only, larger ones by
        # sub-boxes as well; both equal the all-segments test bit for bit
        rng = np.random.default_rng(samples)
        zs = rng.uniform(-1.1, 1.1, 300) + 1j * rng.uniform(-1.1, 1.1, 300)
        for n in (3, 4, 6):
            want = winding_by_broadcast(n, zs, samples, 1e-9, 512)
            for block in (1, _SUB_POINTS - 1, _SUB_POINTS, 128, 512):
                codes, margins = _winding_codes_many(n, zs, samples, 1e-9, block)
                assert np.array_equal(codes, want[0])
                assert np.array_equal(margins, want[1])


class TestSingleCodePath:
    """Each scalar oracle is its array core run on one point."""

    @given(st.integers(1, 8), coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_polar_scalar_is_core(self, n, x, y):
        z = complex(x, y)
        codes, margins = _classify_su_many(n, np.array([z]), 1e-9)
        v = su_region_contains(n, z, 1e-9)
        assert STATUS_CODE[v.status.value] == codes[0]
        assert v.signed_margin == margins[0]

    @given(st.integers(3, 8), st.integers(1024, 8192), coords, coords)
    @settings(max_examples=60, deadline=None)
    def test_winding_scalar_is_core(self, n, samples, x, y):
        z = complex(x, y)
        codes, margins = _winding_codes_many(n, np.array([z]), samples, 1e-9)
        v = su_region_contains_winding(n, z, samples, 1e-9)
        assert STATUS_CODE[v.status.value] == codes[0]
        assert v.signed_margin == margins[0]


class TestHugePoints:
    @given(st.integers(3, 8), st.floats(154.0, 300.0), st.floats(-math.pi, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_winding_margin_is_the_polar_margin(self, n, power, phi):
        z = 10.0**power * complex(math.cos(phi), math.sin(phi))
        w = su_region_contains_winding(n, z, 1024)
        p = su_region_contains(n, z)
        assert w.status is Membership.OUTSIDE
        assert math.isfinite(w.signed_margin)
        assert w.signed_margin == p.signed_margin


class TestNonFiniteInput:
    @given(bad_points)
    @settings(max_examples=50, deadline=None)
    def test_scalar_oracles_reject(self, z):
        for oracle in (
            lambda: su_region_contains(3, z),
            lambda: su_region_contains(1, z),
            lambda: su_region_contains_winding(3, z, 1024),
            lambda: u_region_contains(3, z),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                oracle()

    @given(bad_points, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_cores_classify_outside_with_worst_margin(self, z, n):
        pts = np.array([0.1 + 0.1j, z])
        cores = [_classify_su_many(n, pts, 1e-9)]
        if n >= 3:
            cores.append(_winding_codes_many(n, pts, 1024, 1e-9))
        for codes, margins in cores:
            assert codes[1] == -1
            assert margins[1] == -np.inf
            assert np.isfinite(margins[0])


class TestUnitDisk:
    def test_basic_verdicts(self):
        assert u_region_contains(4, 0.0).status is Membership.INSIDE
        for phi in (0.0, 1.3, -2.2):
            assert u_region_contains(3, np.exp(1j * phi)).status is Membership.ON_BOUNDARY
        assert u_region_contains(2, 1.0 + 1e-6, 1e-9).status is Membership.OUTSIDE

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            u_region_contains(1, 0.5)

    huge = st.builds(
        lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]), st.floats(1e154, 1.79e308)
    )

    @given(st.integers(2, 8), huge, huge)
    @example(3, 1.5e308, 1.5e308)
    @settings(max_examples=60, deadline=None)
    def test_huge_finite_points_are_outside(self, n, x, y):
        # a modulus past the largest float overflows abs(); it reads as -inf
        v = u_region_contains(n, complex(x, y))
        assert v.status is Membership.OUTSIDE
        assert v.signed_margin < 0.0


class TestSOInterval:
    def test_small_sizes(self):
        assert so_interval(3) == pytest.approx((-1.0 / 27.0, 1.0))
        assert so_interval(2) == (0.0, 1.0)
        assert so_interval(1) == (1.0, 1.0)

    def test_n12(self):
        lo, hi = so_interval(12)
        assert lo == pytest.approx(-((5.0 / 6.0) ** 12))
        assert lo == pytest.approx(-0.1122, abs=5e-5)
        assert hi == 1.0

    def test_endpoints_match_curve(self):
        for n in range(2, 13):
            lo, hi = so_interval(n)
            assert abs(lo - gamma(n, np.pi).real) <= 1e-12
            assert abs(hi - gamma(n, 0.0).real) <= 1e-12

    def test_endpoints_inside_su_region(self):
        for n in range(2, 9):
            lo, hi = so_interval(n)
            for x in (lo, hi):
                status = su_region_contains(n, x).status
                assert status in (Membership.INSIDE, Membership.ON_BOUNDARY)


class TestNesting:
    def test_regions_grow_with_n(self):
        # boundary samples of the n-curve stay inside the (n+1)-region
        alphas = np.linspace(-np.pi, np.pi, 181)
        for n in range(3, 13):
            for z in gamma(n, alphas):
                status = su_region_contains(n + 1, z).status
                assert status in (Membership.INSIDE, Membership.ON_BOUNDARY), (n, z)
