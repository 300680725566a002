"""The four workloads of the diagprod benchmark.

A workload turns a seed into an endless stream of cycles.  A cycle is a fixed
list of operations (ops): each op is one call into diagprod with inputs drawn
here, a count of the work units it completes, and a check of its output.
Cycles repeat the same op kinds in the same order, so each kind's share of
the ops is fixed and the latency percentiles do not move with a random draw
of kinds.

The benchmark draws every input (points, alpha values, targets, theta values,
program seeds) from its own seed; diagprod receives only those inputs.  Calls
go through attributes of the imported package at call time, so a traced run
sees them through its wrappers.

Known defects: the timed ops draw no input from a domain where the roadmap
lists a known defect, so no timed op is expected to fail and any failure
marks the run incorrect.  Each defect domain is measured instead by a fixed
number of untimed probes per run (``Workload.probes``), drawn from the seed;
their failures are counted and reported per defect class, and a probe that
fails with anything but the defect's documented symptoms marks the run
incorrect.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

import checks
from checks import TOL

# fixed op sizes: each op takes some tens of milliseconds, so a 25-second run
# holds hundreds of ops and its p95 has at least ten samples above it
MC_TRIALS = 2048
DISK_TRIALS = 2048
DISK_GRID = 41
SO_TRIALS = 2048
SO_SWEEP = 10000
AGREE_POINTS = 128
WINDING_SAMPLES = 8192
BOUNDARY_SAMPLES = 4096
IMAGE_ALPHA = 64
IMAGE_Y = 64

# a near-cusp target just inside the boundary that sends preimage through its
# deepest fallback (the 4096 x 1024 grid, about 0.5 GB); every solve run
# starts with it, so that route and its memory peak are measured in each run
# rather than in the runs whose seed happens to draw such a target
CUSP_STRESS_TARGET = (3, -0.0164, 4.6e-3)  # n, alpha, depth below the boundary

QUERY_NEAR_CUSP_SHARE = 0.25
CUSP_SMALLEST = 1e-6  # smallest |alpha| a query draws
RECOGNITION_DOMAIN = 1e-3  # smallest |alpha| of the c05 acceptance range
OVERSHOOT_BAND = 0.1  # |theta| below which c07 loosens its gap bound
# untimed probes per run of each known-defect domain
RECOGNITION_PROBES = 32  # |alpha| log-uniform on [CUSP_SMALLEST, RECOGNITION_DOMAIN]
OVERSHOOT_PROBES = (3, 4)  # one constrained max per n, |theta| in OVERSHOOT_PROBE_THETA
OVERSHOOT_PROBE_THETA = (5e-3, 3e-2)
# the documented symptoms of the two roadmap defects; a non-finite output is
# never one of them
KNOWN_DEFECTS = {
    "near_cusp_recognition": ("recognition: None", "recognition: alpha error",
                              "recognition: projector error"),
    "near_cusp_overshoot": ("constrained max: overshoot",),
}


@dataclass
class Op:
    """One call into diagprod.

    ``run`` makes the call and returns its output; ``check`` returns the
    problems found in that output.  A probe names in ``known_defect`` the
    roadmap defect class its input lies in: its failure is that defect only
    if every problem starts with one of the class's symptoms in
    KNOWN_DEFECTS.  ``notes`` holds flags for the check and the counters it
    sets.
    """

    kind: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    known_defect: str | None = None
    notes: dict = field(default_factory=dict)

    def is_known_defect(self, problems: list[str]) -> bool:
        return self.known_defect is not None and all(
            p.startswith(KNOWN_DEFECTS[self.known_defect]) for p in problems
        )


@dataclass
class Workload:
    name: str
    unit: str
    warm_up: Callable
    cycles: Callable[..., Iterator[list[Op]]]
    probes: Callable[..., list[Op]] = lambda dp, seed: []


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _log_uniform_signed(rng, lo: float, hi: float) -> float:
    mag = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    return math.copysign(mag, rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------- containment


def _mc_op(dp, n, seed):
    return Op(
        f"mc:n={n}",
        MC_TRIALS,
        lambda: dp.monte_carlo_containment(n, MC_TRIALS, seed, TOL),
        lambda rep: checks.check_report(rep, MC_TRIALS),
    )


def _disk_op(dp, seed):
    def check(rep):
        problems = checks.check_report(rep, DISK_TRIALS)
        if not rep.worst_margin >= 0.0:
            problems.append(f"unit_disk: worst margin {rep.worst_margin!r} < 0")
        return problems

    return Op(
        "disk:n=4",
        DISK_TRIALS,
        lambda: dp.verify_unit_disk(4, DISK_TRIALS, seed, DISK_GRID),
        check,
    )


def _so_op(dp, n, seed):
    return Op(
        f"so:n={n}",
        SO_TRIALS,
        lambda: dp.verify_so_interval(n, SO_SWEEP, SO_TRIALS, seed),
        lambda rep: checks.check_report(rep, SO_TRIALS),
    )


def _agreement_op(dp, n, pts):
    def run():
        return (
            dp.region._classify_su_many(n, pts, TOL),
            dp.region._winding_codes_many(n, pts, WINDING_SAMPLES, TOL),
        )

    def check(out):
        problems, op.notes["disagreements"] = checks.check_agreement(*out, len(pts))
        return problems

    # a point classified by both oracles counts twice
    op = Op(f"agree:n={n}", 2 * len(pts), run, check)
    return op


def containment_warm_up(dp, ctx):
    for n in (3, 4, 5, 6):
        dp.region._boundary_polyline(n, WINDING_SAMPLES)
    dp.monte_carlo_containment(3, 64, 0, TOL)
    dp.verify_unit_disk(4, 64, 0, 5)
    dp.verify_so_interval(3, 100, 64, 0)
    pts = np.linspace(-1.1, 1.1, 8) * (1.0 + 0.5j)
    dp.region._classify_su_many(3, pts, TOL)
    dp.region._winding_codes_many(3, pts, WINDING_SAMPLES, TOL)


def containment_cycles(dp, seed, ctx):
    """c06, c09 and c10 in batch: Haar Monte-Carlo over n = 2..6, the U(n)
    disk and SO(n) interval checks, and polar-against-winding agreement on
    points drawn uniformly over the c06 square [-1.1, 1.1]^2."""
    rng = np.random.default_rng([seed, 1])
    while True:
        ops = [_mc_op(dp, n, _seed(rng)) for n in (2, 3, 4, 5, 6)]
        ops.append(_disk_op(dp, _seed(rng)))
        ops += [_so_op(dp, n, _seed(rng)) for n in (3, 4, 5, 6)]
        for n in (3, 4, 5, 6):
            xy = rng.uniform(-1.1, 1.1, (AGREE_POINTS, 2))
            ops.append(_agreement_op(dp, n, xy[:, 0] + 1j * xy[:, 1]))
        yield ops


# -------------------------------------------------------------------- queries


def _query_alpha(rng, smallest: float = CUSP_SMALLEST) -> float:
    """Uniform on smallest <= |alpha| <= pi, except a share of
    QUERY_NEAR_CUSP_SHARE log-uniform on it, toward the cusp."""
    if rng.uniform() < QUERY_NEAR_CUSP_SHARE:
        return _log_uniform_signed(rng, smallest, math.pi)
    return math.copysign(rng.uniform(smallest, math.pi), rng.uniform(-1.0, 1.0))


def _point_ops(dp, n, alpha, factor, off_band):
    """Polar and winding ops on z = factor * gamma(alpha), a point built on a
    known side of the boundary (the region is star-shaped about 0)."""
    g = checks.gamma_closed(n, alpha)
    z = factor * g
    margin = abs(g) * (1.0 - factor)
    truth = None if abs(margin) <= 2.0 * TOL else (1 if margin > 0 else -1)
    seen = {}

    def run_polar():
        seen["polar"] = dp.su_region_contains(n, z, TOL)
        return seen["polar"]

    def check_winding(v):
        problems, winding.notes["disagreements"] = checks.check_winding(
            v, seen.get("polar"), off_band
        )
        return problems

    polar = Op(f"polar:n={n}", 1, run_polar, lambda v: checks.check_polar(dp, v, truth))
    winding = Op(
        f"winding:n={n}",
        1,
        lambda: dp.su_region_contains_winding(n, z, WINDING_SAMPLES, TOL),
        check_winding,
    )
    return [polar, winding]


def _radius_op(dp, n, alpha):
    theta = checks.theta_closed(n, alpha)
    r_true = abs(checks.gamma_closed(n, alpha))
    return Op(
        f"radius:n={n}",
        1,
        lambda: dp.radius_of_theta(n, theta),
        lambda p: checks.check_radius(p, theta, r_true),
    )


def _recognition_op(dp, n, alpha, seed):
    def run():
        d = dp.random_extremal(n, seed, alpha=alpha)
        return d, dp.recognize_extremal(dp.build_extremal(d))

    def check(out):
        d, rec = out
        return checks.check_recognition(rec, d)

    near_cusp = abs(alpha) < RECOGNITION_DOMAIN
    return Op(
        f"recognize:n={n}",
        1,
        run,
        check,
        known_defect="near_cusp_recognition" if near_cusp else None,
    )


def queries_warm_up(dp, ctx):
    for n in (3, 4, 5, 6):
        dp.region._boundary_polyline(n, WINDING_SAMPLES)
    dp.su_region_contains(4, 0.3 + 0.2j, TOL)
    dp.su_region_contains_winding(4, 0.3 + 0.2j, WINDING_SAMPLES, TOL)
    dp.radius_of_theta(4, 0.7)
    dp.recognize_extremal(dp.build_extremal(dp.random_extremal(4, 0, alpha=0.7)))


def queries_cycles(dp, seed, ctx):
    """Single-point calls as the CLI membership and extremal commands make
    them: per cycle, one point inside, one outside and one in a thin band
    around the boundary (polar and winding call each), one radius_of_theta
    and one recognition round trip, for n rotating over 3..6.  Recognition
    draws |alpha| from the c05 range only; below it lie the probes."""
    rng = np.random.default_rng([seed, 2])
    for cycle in itertools.count():
        n = 3 + cycle % 4
        ops = []
        ops += _point_ops(dp, n, _query_alpha(rng), rng.uniform(0.05, 0.98), True)
        ops += _point_ops(dp, n, _query_alpha(rng), rng.uniform(1.02, 1.5), True)
        band = 10.0 ** rng.uniform(-8.0, -4.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        ops += _point_ops(dp, n, _query_alpha(rng), 1.0 + band, False)
        ops.append(_radius_op(dp, n, _query_alpha(rng)))
        alpha = _query_alpha(rng, RECOGNITION_DOMAIN)
        ops.append(_recognition_op(dp, n, alpha, _seed(rng)))
        yield ops


def queries_probes(dp, seed):
    """Recognition round trips below the c05 range, where recognition reads
    alpha from the flat diagonal product (roadmap item 3)."""
    rng = np.random.default_rng([seed, 5])
    return [
        _recognition_op(dp, 3 + i % 4,
                        _log_uniform_signed(rng, CUSP_SMALLEST, RECOGNITION_DOMAIN),
                        _seed(rng))
        for i in range(RECOGNITION_PROBES)
    ]


# ---------------------------------------------------------------------- solve


def _preimage_op(dp, n, z, kind):
    return Op(
        f"preimage-{kind}:n={n}",
        1,
        lambda: dp.preimage(n, z, checks.PREIMAGE_TOL),
        lambda u: checks.check_preimage(dp, u, n, z),
    )


def _constrained_max_op(dp, n, theta, seed):
    return Op(
        f"cmax:n={n}",
        1,
        lambda: dp.constrained_max_numeric(n, theta, seed=seed),
        lambda rep: checks.check_constrained_max(dp, rep, n, theta),
        known_defect="near_cusp_overshoot" if abs(theta) < OVERSHOOT_BAND else None,
    )


def solve_warm_up(dp, ctx):
    dp.preimage(3, 0.5 * checks.gamma_closed(3, 1.0), checks.PREIMAGE_TOL)
    dp.constrained_max_numeric(
        3, 0.5, dp.OptimizerConfig(restarts=1, max_iterations=20)
    )


def solve_cycles(dp, seed, ctx):
    """c08 and c07: preimage for n = 3..5 of one general interior target, one
    real target (the half-turn route) and one target just inside the
    boundary, then constrained_max_numeric for n = 3 and 4 at a theta
    uniform on OVERSHOOT_BAND <= |theta| <= pi; below that band lie the
    probes.  The first cycle also solves CUSP_STRESS_TARGET."""
    rng = np.random.default_rng([seed, 3])
    n, alpha, depth = CUSP_STRESS_TARGET
    ops = [_preimage_op(dp, n, (1.0 - depth) * checks.gamma_closed(n, alpha), "cusp")]
    while True:
        for n in (3, 4, 5):
            g = checks.gamma_closed(n, rng.uniform(-math.pi, math.pi))
            ops.append(_preimage_op(dp, n, 0.98 * math.sqrt(rng.uniform()) * g, "interior"))
            lo = -((1.0 - 2.0 / n) ** n)
            ops.append(_preimage_op(dp, n, complex(rng.uniform(lo, 1.0), 0.0), "real"))
            g = checks.gamma_closed(n, rng.uniform(-math.pi, math.pi))
            eps = 10.0 ** rng.uniform(-6.0, -2.0)
            ops.append(_preimage_op(dp, n, (1.0 - eps) * g, "near-boundary"))
        for n in (3, 4):
            theta = math.copysign(rng.uniform(OVERSHOOT_BAND, math.pi), rng.uniform(-1.0, 1.0))
            ops.append(_constrained_max_op(dp, n, theta, _seed(rng)))
        yield ops
        ops = []


def solve_probes(dp, seed):
    """Constrained maxima near theta = 0, where the penalty's slight
    constraint violation lets the best value overshoot (roadmap item 3)."""
    rng = np.random.default_rng([seed, 6])
    return [
        _constrained_max_op(dp, n, _log_uniform_signed(rng, *OVERSHOOT_PROBE_THETA), _seed(rng))
        for n in OVERSHOOT_PROBES
    ]


# --------------------------------------------------------------------- export


def _export_op(dp, ctx, command, n, fmt, seed, index):
    if command == "boundary":
        size_args = ["--samples", str(BOUNDARY_SAMPLES)]
        rows = BOUNDARY_SAMPLES
        columns = ["alpha", "re", "im", "theta", "r"]
    else:
        size_args = ["--alpha-samples", str(IMAGE_ALPHA), "--y-samples", str(IMAGE_Y)]
        rows = IMAGE_ALPHA * IMAGE_Y
        columns = ["alpha", "y", "re", "im", "jacobian"]

    def argv(path):
        return [command, "--n", str(n), *size_args, "--format", fmt,
                "--seed", str(seed), "--out", path]

    path = os.path.join(ctx["tmp"], f"{index}.{fmt}")

    def check(code):
        if code != 0:
            return [f"export: exit code {code}"]
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        if command == "boundary":
            expected = checks.expected_boundary(dp, n, BOUNDARY_SAMPLES)
        else:
            expected = checks.expected_gamma_image(dp, n, IMAGE_ALPHA, IMAGE_Y)
        problems = checks.check_export(data.decode("ascii"), fmt, expected, columns, seed)
        if op.notes.get("rerun"):
            again = path + ".rerun"
            code = dp.cli.main(argv(again))
            with open(again, "rb") as fh:
                if code != 0 or fh.read() != data:
                    problems.append("export: rerun with the same seed differs")
            os.remove(again)
        return problems

    op = Op(f"{command}-{fmt}", rows, lambda: dp.cli.main(argv(path)), check)
    return op


def export_warm_up(dp, ctx):
    tmp = ctx["tmp"]
    for fmt in ("csv", "json"):
        dp.cli.main(["boundary", "--n", "4", "--samples", "64", "--format", fmt,
                     "--out", os.path.join(tmp, "warm." + fmt)])
        dp.cli.main(["gamma-image", "--n", "4", "--alpha-samples", "8", "--y-samples", "8",
                     "--format", fmt, "--out", os.path.join(tmp, "warm." + fmt)])
        os.remove(os.path.join(tmp, "warm." + fmt))


def export_cycles(dp, seed, ctx):
    """In-process CLI runs writing files: boundary in csv (twice, at two n)
    and json, and gamma-image in csv and json.  Each cycle also reruns one of
    its ops, rotating, and compares the bytes."""
    rng = np.random.default_rng([seed, 4])
    for cycle in itertools.count():
        n1, n2 = (int(k) for k in rng.integers(3, 9, 2))
        plan = [
            ("boundary", n1, "csv"),
            ("boundary", n2, "csv"),
            ("boundary", n1, "json"),
            ("gamma-image", n2, "csv"),
            ("gamma-image", n1, "json"),
        ]
        ops = [
            _export_op(dp, ctx, cmd, n, fmt, int(rng.integers(0, 2**31)), i)
            for i, (cmd, n, fmt) in enumerate(plan)
        ]
        ops[cycle % len(ops)].notes["rerun"] = True
        yield ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("containment", "classified points", containment_warm_up, containment_cycles),
        Workload("queries", "calls", queries_warm_up, queries_cycles, queries_probes),
        Workload("solve", "solves", solve_warm_up, solve_cycles, solve_probes),
        Workload("export", "rows written", export_warm_up, export_cycles),
    )
}
