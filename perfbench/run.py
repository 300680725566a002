"""diagprod benchmark: one workload, one process, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload containment --seed 1 --seconds 25 --trace 0

Workloads: containment, queries, solve, export (see workloads.py and
design.json).  The benchmark imports diagprod from ``src/`` of the checkout,
sets the BLAS thread count before numpy loads, times the import and warm-up
as ``setup_s`` (the median of several fresh imports), then runs the
workload's op cycles for ``--seconds`` and checks every output.  After
the timed ops it runs the workload's untimed known-defect probes (see
workloads.py) and reports how many of them show the defect; probes are not
counted in ``attempted`` or ``failed``.

``--trace 0`` reports the end-to-end metrics with diagprod unwrapped.
``--trace 1`` runs half the time unwrapped, then the same cycles (same
inputs) traced, and reports the per-layer metrics of the traced cycles per
cycle, the tracing overhead and, where they overlap, the roadmap baseline
timings next to the traced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record (environment, per-kind timings, failures) goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``, and a traced run
also writes its spans next to it as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread (at most nproc), set before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import importlib  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
TAIL_SAMPLES = 10  # samples a tail percentile must keep beyond it
# calibrated times are in units of this fixed scale: roughly the reference
# kernel's duration on an uncontended core of the 2-CPU machine the benchmark
# was defined on (11-13 ms measured)
REF_NOMINAL_S = 0.012
REF_EVERY_S = 0.25
_REF_X = np.linspace(0.0, 1.0, 512)
# per-layer metric -> known-defect class whose probes it reports
PROBE_METRICS = {
    "constructors.recognize.cusp_miss_ratio": "near_cusp_recognition",
    "verify.constrained_max.cusp_overshoot_ratio": "near_cusp_overshoot",
}

# ROADMAP re-anchor timings on 2 CPUs (Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31), each with the layer and op kind that measure the same work here:
# (workload, timing, layer, traced op kind, untraced op kind, seconds,
#  "call" or "item" as the unit the timing scales, scale)
BASELINE = [
    ("containment", "monte_carlo_containment(4, 1e5)", "verify.monte_carlo", "mc:n=4",
     "mc:n=4", 4.0, "item", 1e5),
    ("queries", "scalar theta inversion, per call", "boundary.invert_scalar", "",
     "radius:", 1.3e-3, "call", 1),
    ("queries", "recognize_extremal at n=5, per call", "constructors.recognize",
     "recognize:n=5", "recognize:n=5", 3.7e-3, "call", 1),
    ("solve", "constrained_max_numeric n=3", "verify.constrained_max", "cmax:n=3",
     "cmax:n=3", 0.14, "call", 1),
    ("solve", "constrained_max_numeric n=4", "verify.constrained_max", "cmax:n=4",
     "cmax:n=4", 0.27, "call", 1),
    ("solve", "constrained_max_numeric n=6", None, "", "", 0.79, "call", 1),
    ("export", "CLI boundary --samples 1e6 (csv)", "cli.command", "boundary-csv",
     "boundary-csv", 6.9, "item", 1e6),
]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import():
    """Import diagprod from the checkout as if for the first time."""
    for name in [m for m in sys.modules if m == "diagprod" or m.startswith("diagprod.")]:
        del sys.modules[name]
    dp = importlib.import_module("diagprod")
    importlib.import_module("diagprod.cli")
    return dp


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and small-numpy work that does not
    touch diagprod.  On a shared machine the core's speed swings by up to 2x
    within seconds; this kernel slows with it, so dividing op times by its
    current duration, relative to REF_NOMINAL_S, removes the swing."""
    start = perf_counter()
    for i in range(300):
        x = _REF_X * (1.0 + i * 1e-3)
        np.sin(x).sum()
        math.atan2(i, 7.0)
        np.linalg.qr(np.outer(x[:24], x[:24]))
    return perf_counter() - start


class Stats:
    """Outcome of every op in one measurement phase, with the reference
    kernel samples taken between its ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.mids: list[float] = []  # op midpoints, for the calibration
        self.kinds: list[str] = []
        self.cycles: list[int] = []
        self.done_items: list[int] = []  # items of ops that passed, else 0
        self.refs: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.disagreements = 0  # oracle disagreements off the band

    def sample_reference(self) -> None:
        start = perf_counter()
        seconds = reference_kernel()
        self.refs.append((start + seconds / 2, seconds))

    def record(self, op, cycle: int, start: float, seconds: float, problems: list[str]) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        self.mids.append(start + seconds / 2)
        self.kinds.append(op.kind)
        self.cycles.append(cycle)
        self.done_items.append(0 if problems else op.items)
        self.disagreements += op.notes.get("disagreements", 0)
        if problems:
            self.failed += 1
            self.unexpected += problems

    def speed_factors(self) -> np.ndarray:
        """Reference duration at each op, interpolated, over REF_NOMINAL_S."""
        t, d = zip(*self.refs)
        return np.interp(self.mids, t, d) / REF_NOMINAL_S

    def calibrated(self) -> np.ndarray:
        return np.asarray(self.latencies) / self.speed_factors()

    def cycle_rates(self, latencies) -> np.ndarray:
        """Items completed per second of op time, cycle by cycle."""
        cycles = np.asarray(self.cycles)
        time = np.bincount(cycles, weights=latencies)
        items = np.bincount(cycles, weights=self.done_items)
        return items / time

    @property
    def cycle_count(self) -> int:
        return self.cycles[-1] + 1

    def kind_items(self, prefix: str) -> int:
        return sum(i for k, i in zip(self.kinds, self.done_items) if k.startswith(prefix))


def run_ops(workload, dp, seed: int, seconds: float, ctx: dict, tracer=None,
            cycles: int | None = None) -> Stats:
    """Run whole cycles until ``seconds`` have passed (at least one cycle),
    or exactly ``cycles`` cycles if given, sampling the reference kernel
    between ops every REF_EVERY_S."""
    stats = Stats()
    deadline = perf_counter() + seconds
    stats.sample_reference()
    for number, cycle in enumerate(workload.cycles(dp, seed, ctx)):
        for op in cycle:
            if perf_counter() - stats.refs[-1][0] >= REF_EVERY_S:
                stats.sample_reference()
            if tracer is not None:
                tracer.begin_op(op.kind)
                tracer.active = True
            error = None
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                error = exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            if error is not None:
                problems = [f"{op.kind}: {type(error).__name__}: {error}"]
            else:
                try:
                    problems = op.check(out)
                except Exception as exc:  # malformed output the check cannot read
                    problems = [f"{op.kind}: check raised {type(exc).__name__}: {exc}"]
            stats.record(op, number, start, elapsed, problems)
        if number + 1 == cycles or (cycles is None and perf_counter() >= deadline):
            break
    stats.sample_reference()
    return stats


def run_probes(workload, dp, seed: int) -> tuple[dict, list[str]]:
    """The workload's untimed known-defect probes.  Returns, per defect
    class, [probes that failed, probes run], and every problem that is not
    one of the class's documented symptoms."""
    counts, unexpected = {}, []
    for op in workload.probes(dp, seed):
        try:
            problems = op.check(op.run())
        except Exception as exc:  # a raising probe is never the known defect
            problems = [f"{op.kind}: {type(exc).__name__}: {exc}"]
        tally = counts.setdefault(op.known_defect, [0, 0])
        tally[0] += bool(problems)
        tally[1] += 1
        if not op.is_known_defect(problems):
            unexpected += problems
    return counts, unexpected


def kind_summary(stats: Stats) -> dict:
    """Op count and median raw latency of each op kind."""
    by_kind = {}
    for seconds, kind in zip(stats.latencies, stats.kinds):
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    return {k: {"ops": len(v), "median_ms": statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def tail_percentile(count: int) -> float:
    """Highest percentile up to 95 that keeps TAIL_SAMPLES samples beyond it."""
    return max(50.0, min(95.0, 100.0 * (1.0 - TAIL_SAMPLES / count)))


def measure_setups(workload, ctx):
    """Fresh import plus warm-up, SETUP_REPEATS times, each calibrated by the
    reference kernel samples taken before and after it."""
    raw, calibrated = [], []
    ref = reference_kernel()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        dp = fresh_import()
        workload.warm_up(dp, ctx)
        seconds = perf_counter() - start
        after = reference_kernel()
        raw.append(seconds)
        calibrated.append(seconds / ((ref + after) / 2 / REF_NOMINAL_S))
        ref = after
    return dp, raw, calibrated


def end_to_end(stats: Stats, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from calibrated times, and a note per metric."""
    lat_ms = stats.calibrated() * 1e3
    raw_ms = np.asarray(stats.latencies) * 1e3
    q = tail_percentile(len(lat_ms))
    rates = stats.cycle_rates(lat_ms / 1e3)
    metrics = {
        "items_per_s": (float(np.median(rates)), "items/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p95_ms": (float(np.percentile(lat_ms, q)), "ms"),
        "ok_ratio": (1.0 - stats.failed / stats.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_rate = np.median(stats.cycle_rates(raw_ms / 1e3))
    notes = {
        "items_per_s": f"median of {len(rates)} cycles; raw {raw_rate:.6g}",
        "op_p50_ms": f"p50 of {len(lat_ms)} ops; raw {np.percentile(raw_ms, 50):.6g}",
        "op_p95_ms": f"p{q:g} of {len(lat_ms)} ops; raw {np.percentile(raw_ms, q):.6g}"
        + ("" if q == 95.0 else " (too few ops for p95)"),
        "ok_ratio": f"fail_ratio {stats.failed / stats.attempted:.6g}: "
        f"{stats.failed} of {stats.attempted} ops failed",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "ru_maxrss of the process",
    }
    return metrics, notes


def per_layer(tracer: Tracer, traced: Stats, untraced: Stats, probes: dict) -> dict:
    """Layer metrics of the traced cycles, per cycle, so they measure the work
    of a fixed input set and not how many cycles fit in the time, and the
    share of the known-defect probes that showed their defect."""
    cycles = traced.cycle_count
    metrics = tracer.layer_metrics(cycles)
    metrics["region.oracle_disagreements"] = (traced.disagreements / cycles, "count/cycle")
    preimages = tracer.calls_of("verify.preimage")
    homotopy = tracer.calls_of("constructors.homotopy_product")
    metrics["constructors.homotopy_product.calls_per_target"] = (
        homotopy / preimages if preimages else 0.0, "calls/target")
    for name, defect in PROBE_METRICS.items():
        missed, tried = probes.get(defect, (0, 0))
        metrics[name] = (missed / tried if tried else 0.0, "ratio")
    metrics["verify.preimage.unconverged"] = (
        tracer.errors_of("verify.preimage", "PreimageConvergenceError") / cycles,
        "count/cycle")
    rate = [float(np.median(s.cycle_rates(s.calibrated()))) for s in (untraced, traced)]
    metrics["trace.overhead_ratio"] = (rate[0] / rate[1], "ratio")
    return metrics


def baseline_table(name: str, tracer: Tracer, untraced: Stats, traced: Stats) -> list[dict]:
    """ROADMAP timings next to the traced layer time and the untraced op time,
    both raw and scaled to the ROADMAP's call or item count."""
    rows = []
    for workload, label, layer, kind, op_kind, roadmap_s, unit, scale in BASELINE:
        if workload != name:
            continue
        row = {"timing": label, "roadmap_s": roadmap_s}
        if layer is None:
            row["note"] = "not run by this workload"
            rows.append(row)
            continue
        seconds, calls = tracer.by_kind(layer, kind)
        per = calls if unit == "call" else traced.kind_items(kind)
        row["traced_s"] = seconds / per * scale if per else None
        picked = [t for t, k in zip(untraced.latencies, untraced.kinds) if k.startswith(op_kind)]
        per = len(picked) if unit == "call" else untraced.kind_items(op_kind)
        row["untraced_op_s"] = sum(picked) / per * scale if per else None
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not (SRC / "diagprod" / "__init__.py").is_file():
        fail(f"no diagprod sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ctx = {"tmp": tempfile.mkdtemp(prefix="tmp-", dir=OUT)}
    try:
        dp, raw_setups, setups = measure_setups(workload, ctx)
        if Path(dp.__file__).resolve().parent != (SRC / "diagprod").resolve():
            fail(f"diagprod imported from {dp.__file__}, not from {SRC}")

        env = environment(args.seed)
        record = {"workload": args.workload, "unit": workload.unit, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "setup_s_raw": raw_setups, "setup_s_calibrated": setups}
        if args.trace:
            untraced = run_ops(workload, dp, args.seed, args.seconds / 2, ctx)
            tracer = Tracer()
            tracer.install()
            traced = run_ops(workload, dp, args.seed, args.seconds / 2, ctx, tracer,
                             cycles=untraced.cycle_count)
            phases = (untraced, traced)
            probes, probe_problems = run_probes(workload, dp, args.seed)
            metrics = per_layer(tracer, traced, untraced, probes)
            notes = {}
            record["baseline"] = baseline_table(args.workload, tracer, untraced, traced)
            record["spans"] = {"recorded": len(tracer.spans), "dropped": tracer.dropped}
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            with open(spans_path, "w") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
        else:
            stats = run_ops(workload, dp, args.seed, args.seconds, ctx)
            phases = (stats,)
            probes, probe_problems = run_probes(workload, dp, args.seed)
            metrics, notes = end_to_end(stats, setups)
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    attempted = sum(s.attempted for s in phases)
    failed = sum(s.failed for s in phases)
    unexpected = [p for s in phases for p in s.unexpected] + probe_problems
    known = {defect: {"failed": f, "probes": n} for defect, (f, n) in probes.items()}
    correct = not unexpected and all(math.isfinite(v) for v, _ in metrics.values())

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"unit={workload.unit!r} cycles={phases[0].cycle_count} ops={attempted} "
          f"failed={failed}")
    for defect, (missed, tried) in probes.items():
        print(f"  known-defect probes {defect}: {missed} of {tried} failed "
              "(untimed, not in ops or failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<12} {notes.get(name, '')}")
    for row in record.get("baseline", []):
        if "note" in row:
            print(f"  baseline {row['timing']}: roadmap {row['roadmap_s']:g} s, {row['note']}")
            continue
        traced_s, op_s = (f"{v:.4g} s" if v is not None else "n/a"
                          for v in (row["traced_s"], row["untraced_op_s"]))
        print(f"  baseline {row['timing']}: roadmap {row['roadmap_s']:g} s, "
              f"traced layer {traced_s}, untraced ops {op_s} (raw)")
    for problem in unexpected[:10]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, known_defects=known, unexpected=unexpected[:100],
                  op_kinds=kind_summary(phases[0]),
                  speed_factor_median=float(np.median(phases[0].speed_factors())))
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
