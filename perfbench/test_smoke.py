"""Smoke test of the diagprod benchmark.

Runs every workload briefly in both modes and checks the result line against
BENCHMARK.json, checks that the benchmark refuses to run without the
program's sources, and checks that the output checks flag deliberately
corrupted outputs.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import diagprod as dp  # noqa: E402
import diagprod.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, "queries", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -------------------------------------------------------- corrupted outputs


def test_nan_product_in_containment_report_is_flagged():
    report = dp.monte_carlo_containment(3, 64, 1, checks.TOL)
    assert checks.check_report(report, 64) == []
    # a NaN product classifies as on the boundary, so failures stay 0 while
    # the worst margin turns NaN
    zs = np.array([0.2 + 0.1j, complex("nan+0j")])
    codes, margins = dp.region._classify_su_many(3, zs, checks.TOL)
    bad = dataclasses.replace(report, worst_margin=float(np.min(margins)))
    assert bad.failures == 0
    assert checks.check_report(bad, 64)


def test_oracle_disagreement_is_flagged():
    pts = np.array([0.1 + 0.1j, 0.9 + 0.9j, 0.3 - 0.2j])
    polar = dp.region._classify_su_many(4, pts, checks.TOL)
    winding = dp.region._winding_codes_many(4, pts, 8192, checks.TOL)
    assert checks.check_agreement(polar, winding, 3) == ([], 0)
    flipped = (-winding[0], winding[1])
    problems, disagreements = checks.check_agreement(polar, flipped, 3)
    assert problems and disagreements == 3


def test_wrong_scalar_verdicts_are_flagged():
    inside = dp.su_region_contains(4, 0.1 + 0.1j)
    outside = dp.su_region_contains(4, 0.9 + 0.9j)
    assert checks.check_polar(dp, inside, 1) == []
    assert checks.check_polar(dp, outside, 1)
    assert checks.check_winding(inside, outside, True)[1] == 1
    assert checks.check_winding(inside, outside, False) == ([], 0)
    nan = dp.MembershipVerdict(dp.Membership.ON_BOUNDARY, float("nan"))
    assert checks.check_polar(dp, nan, None)


def test_perturbed_radius_is_flagged():
    alpha = 0.8
    theta = checks.theta_closed(5, alpha)
    r = abs(checks.gamma_closed(5, alpha))
    point = dp.radius_of_theta(5, theta)
    assert checks.check_radius(point, theta, r) == []
    assert checks.check_radius(dp.PolarPoint(point.theta, point.r + 1e-9), theta, r)


def test_wrong_recognition_is_flagged():
    d = dp.random_extremal(5, 3, alpha=0.4)
    rec = dp.recognize_extremal(dp.build_extremal(d))
    assert checks.check_recognition(rec, d) == []
    assert checks.check_recognition(None, d)
    off = dp.ExtremalDecomposition(rec.alpha + 1e-7, rec.v, rec.diag_phases)
    assert checks.check_recognition(off, d)


def test_perturbed_preimage_is_flagged():
    z = 0.5 * checks.gamma_closed(4, 1.2)
    u = dp.preimage(4, z, checks.PREIMAGE_TOL)
    assert checks.check_preimage(dp, u, 4, z) == []
    bad = u.copy()
    bad[0, 0] *= 1.0 + 1e-6
    assert checks.check_preimage(dp, bad, 4, z)
    bad = u.copy()
    bad[1, 2] = np.nan
    assert checks.check_preimage(dp, bad, 4, z)


def test_wrong_constrained_max_is_flagged():
    cfg = dp.OptimizerConfig(restarts=2)
    report = dp.constrained_max_numeric(3, 1.5, cfg, seed=1)
    assert checks.check_constrained_max(dp, report, 3, 1.5) == []
    bad = dataclasses.replace(report, best_matrix=np.eye(3, dtype=complex))
    assert checks.check_constrained_max(dp, bad, 3, 1.5)


def test_corrupted_export_is_flagged(tmp_path):
    for fmt in ("csv", "json"):
        path = tmp_path / f"b.{fmt}"
        code = dp.cli.main(["boundary", "--n", "5", "--samples", "64", "--format", fmt,
                            "--seed", "9", "--out", str(path)])
        assert code == 0
        text = path.read_text()
        expected = checks.expected_boundary(dp, 5, 64)
        columns = ["alpha", "re", "im", "theta", "r"]
        assert checks.check_export(text, fmt, expected, columns, 9) == []
        assert checks.check_export(text, fmt, expected, columns, 8)
        value = float(checks.parse_table(text, fmt)[2][10, 3])
        cell = format(value, ".17g") if fmt == "csv" else repr(value)
        assert cell in text
        shifted = text.replace(cell, repr(value + 1e-9), 1)
        assert checks.check_export(shifted, fmt, expected, columns, 9)
        assert checks.check_export(text.replace(cell, "NaN", 1), fmt, expected, columns, 9)


def test_only_listed_defects_are_excused():
    near = workloads._recognition_op(dp, 5, 1e-5, 1)
    far = workloads._recognition_op(dp, 5, 0.5, 1)
    problem = ["recognition: None for alpha=1e-05"]
    assert near.is_known_defect(problem)
    assert near.is_known_defect(["recognition: alpha error 1.000e-05 at alpha=1e-05"])
    assert not near.is_known_defect(["recognize:n=5: ValueError: boom"])
    assert not far.is_known_defect(problem)
    cmax = workloads._constrained_max_op(dp, 3, 0.01, 1)
    assert cmax.is_known_defect(["constrained max: overshoot 2.000e-06 at theta=0.01"])
    assert not cmax.is_known_defect(["constrained max: non-finite output"])


def test_non_finite_near_cusp_recognition_is_not_excused():
    d = dp.random_extremal(5, 3, alpha=1e-5)
    bad = dp.ExtremalDecomposition(float("nan"), d.v, d.diag_phases)
    problems = checks.check_recognition(bad, d)
    assert problems
    assert not workloads._recognition_op(dp, 5, 1e-5, 1).is_known_defect(problems)


@pytest.mark.parametrize("name", ["queries", "solve"])
def test_timed_ops_avoid_defect_domains_and_probes_cover_them(name):
    workload = workloads.WORKLOADS[name]
    cycles = workload.cycles(dp, 7, {})
    ops = [op for _ in range(200) for op in next(cycles)]
    assert not any(op.known_defect for op in ops)
    probes = workload.probes(dp, 7)
    assert probes and all(op.known_defect for op in probes)
