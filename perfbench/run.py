"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 25 --trace 0

Run from the repository root.  With ``--trace 0`` it measures the
workload untraced and prints every end-to-end metric; with ``--trace 1``
it runs an untraced pass and then a traced pass, prints the per-layer
metrics and ``tracing_overhead``, and writes the spans to
``perfbench/out/``.  Both modes check the workload's outputs first: a
failing gate exits non-zero without printing a result.  Every end-to-end
time is scaled to a fixed host speed with the reference job timed next to
it (see ``reference.py``); the unscaled times are recorded.  The last line of
standard output is the JSON result; the lines before it are a readable
table, the run's manifest and the recorded (unbounded) extras.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh processes timed for ``setup_s`` before and again after the
#: measured units (the host's speed drifts over seconds); the median of
#: all of them is reported.
SETUP_PROBES = 3

#: Samples that must lie beyond the reported tail percentile, at least.
#: A tenth of the samples must too: a burst of host contention covering a
#: handful of units would otherwise set the tail on its own.
TAIL_BEYOND = 10

def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest whole percentile, at least p75, with ``TAIL_BEYOND``
    samples and a tenth of all samples beyond it (nearest rank); the
    maximum when there are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 10)
    for q in range(99, 74, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= beyond:
            return ordered[rank - 1], f"p{q}"
    return ordered[-1], "max"


def measure(workload, seconds: float, tracer=None) -> List[Any]:
    """Run timed units until about *seconds* have passed (at least one).

    The reference job runs before the first unit and after each unit, so
    every unit has a reference time on each side; their mean, on the
    unit's ``ref_s``, is the host's speed while the unit ran.  With a
    *tracer*, each unit runs inside a root frame named ``unit``.
    """
    from perfbench.reference import reference

    run_unit = workload.run_unit
    if tracer is not None:
        run_unit = tracer.wrap(run_unit, "unit", "unattributed", span=True)
    gc.collect()
    units = []
    started = time.perf_counter()
    before = reference()
    while True:
        index = len(units)
        if workload.fresh_heap and units:
            gc.collect()
        if tracer is not None:
            tracer.unit = index
        begin = time.perf_counter()
        unit = run_unit(index)
        end = time.perf_counter()
        after = reference()
        unit.wall = end - begin
        unit.ref_s = (before + after) / 2
        units.append(unit)
        before = after
        # Stop at the unit boundary nearest the budget.
        if end - started + unit.wall / 2 >= seconds:
            return units


def setup_seconds(name: str, seed: int, probes: int) -> List[Tuple[float, float]]:
    """Wall time from spawning a fresh interpreter to the first timed
    unit, once per probe process, each with the mean reference time
    measured just before and just after it."""
    from perfbench.reference import reference

    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        before = reference()
        begin = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            wall = time.perf_counter() - begin
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append((wall, (before + reference()) / 2))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, read directly
    from ``.git`` (never from a parent directory)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(workload, seconds: float, trace: int) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


Metrics = Dict[str, Tuple[float, str]]


def end_to_end(workload, seconds: float) -> Tuple[Metrics, List[Any], Dict]:
    """Untraced units plus fresh-process set-up probes: every
    end-to-end metric as ``name -> (value, unit)``."""
    setup = setup_seconds(workload.name, workload.seed, SETUP_PROBES)
    workload.setup()
    units = measure(workload, seconds)
    setup += setup_seconds(workload.name, workload.seed, SETUP_PROBES)
    from perfbench.reference import at_reference_speed
    from perfbench.workloads import nearest_rank

    workload.check(units)
    scaled_ms = [at_reference_speed(u.wall, u.ref_s) * 1000 for u in units]
    tail_ms, tail_label = tail(scaled_ms)
    metrics = {
        "setup_s": (statistics.median(
            at_reference_speed(wall, ref_s) for wall, ref_s in setup), "s"),
        "throughput_per_s": (workload.throughput(units), "1/s"),
        "latency_p50_ms": (statistics.median(scaled_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    walls_ms = [u.wall * 1000 for u in units]
    refs_ms = [u.ref_s * 1000 for u in units]
    extra = {
        "latency_tail": {"percentile": tail_label, "samples": len(units)},
        # As measured, before scaling to reference speed.
        "unit_wall_ms": {f"p{q}": nearest_rank(walls_ms, q)
                         for q in (0, 25, 50, 75, 90, 100)},
        "reference_ms": {f"p{q}": nearest_rank(refs_ms, q)
                         for q in (0, 25, 50, 75, 100)},
        "setup_samples_s": [wall for wall, _ref_s in setup],
        **workload.extra_metrics(units),
    }
    return metrics, units, extra


def per_layer(workload, seconds: float) -> Tuple[Metrics, List[Any], Dict]:
    """An untraced pass, then a traced pass of the same length: every
    per-layer metric, ``tracing_overhead`` included."""
    from perfbench.layers import install, layer_metrics, unit_of
    from perfbench.tracing import Tracer

    workload.setup()
    untraced = measure(workload, seconds / 2)
    tracer = Tracer()
    install(tracer)
    try:
        workload.setup()  # fresh objects, so handlers bind the wrappers
        tracer.clear()
        traced = measure(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    workload.check(untraced)
    workload.check(traced)
    workload.check(untraced + traced)  # tracing must not change outputs

    wall = tracer.total_s["unit"]
    attributed = sum(tracer.self_s.values())
    if abs(attributed - wall) > 1e-6 * wall + 1e-6:
        raise RuntimeError(f"layer self times sum to {attributed}s, "
                           f"traced units took {wall}s")
    reports = [u.report for u in traced
               if u.report is not None and "scheduler" in u.report]
    layer = layer_metrics(tracer, len(traced), reports, workload.lanes)
    layer["tracing_overhead"] = (workload.throughput(untraced)
                                 / workload.throughput(traced))
    unit_wall = wall / len(traced)
    extra = {
        "traced_units": len(traced),
        "untraced_units": len(untraced),
        "unit_wall_s": unit_wall,
        # On exchange the phases are the unit's only traced children, so
        # these shares and the remainder add up to the unit's wall time.
        "phase_share": {
            phase: layer[f"kerberos.phase.{phase}_s"] / unit_wall
            for phase in ("as", "tgs", "ap", "priv")
        },
        "remainder_share": layer["unattributed_s"] / unit_wall,
        "spans": len(tracer.spans),
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write(str(spans_path), {"workload": workload.name,
                                   "seed": workload.seed})
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return metrics, untraced + traced, extra


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SOURCE}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, GateFailure

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    try:
        if args.trace:
            metrics, units, extra = per_layer(workload, args.seconds)
        else:
            metrics, units, extra = end_to_end(workload, args.seconds)
    except GateFailure as failure:
        print(f"perfbench: correctness gate failed: {failure}",
              file=sys.stderr)
        return 1

    print(f"perfbench {workload.name} seed={args.seed} "
          f"units={len(units)} trace={args.trace}")
    result_metrics = {}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
        result_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"manifest": manifest(workload, args.seconds, args.trace)},
                     sort_keys=True))
    print(json.dumps({"recorded": extra}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(SOURCE)]
    sys.exit(main())
