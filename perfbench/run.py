"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sssp_twitter64 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs one untraced pass, then the same pass again with the
per-layer wrappers of ``spans.py`` installed, asserts that both give the
same answers, modeled seconds and wire bytes, and reports the per-layer
metrics.  The metric names and units are those of ``BENCHMARK.json``.

Every answer is checked against an oracle outside the timed region.  The
human-readable report, including ``failed_frac`` and the run context
(git SHA, versions, ``nproc``, load average, calibration kernel time),
goes to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (and, when traced, its spans) is written under ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
RECORDS = ROOT / ".perfbench-runs"
#: Input preparations per untraced run: at least SETUP_REPS, and more
#: until SETUP_MIN_S is spent, so that a set-up of a few milliseconds
#: still gives a steady median.  ``setup_s`` is that median plus the one
#: ``start`` (live_update's initial converge), which is too slow to
#: repeat within the run budget.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
#: Rows of the fixed calibration block.
CALIBRATION_ROWS = 1_000_000
#: Ledger phases reported as ``modeled.<phase>_s`` (the engine's phases
#: plus checkpointing); any other phase is summed into
#: ``modeled.unlisted_s``.
PHASES = (
    "vote", "intra_bucket", "local_join", "comm", "dedup_agg", "other",
    "incremental_seed", "checkpoint",
)


def _use_program_sources() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end" | "per_layer": {name: unit}}`` from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s() -> float:
    """Median time of ``lex_group`` over a fixed 1 M-row block."""
    import numpy as np
    from repro.kernels.block import lex_group

    block = np.random.default_rng(0).integers(0, 1 << 20, (CALIBRATION_ROWS, 2))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        lex_group(block)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_context() -> Dict[str, object]:
    """Where and on what the run happened; recorded, never gated."""
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_lex_group_1m_s": calibration_s(),
    }


@dataclass
class Outcome:
    metrics: Dict[str, float]
    details: Dict[str, object]
    attempted: int
    failed: int
    #: Passes agreed (untraced) or traced equalled untraced (traced).
    consistent: bool
    recorder: object = None

    @property
    def correct(self) -> bool:
        return self.consistent and self.failed == 0


def _timed_pass(wl):
    gc.collect()  # leave no set-up garbage for the timed region to collect
    return wl.run_pass()


def measure(wl, seconds: float) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    import workloads

    prepares: List[float] = []
    while len(prepares) < SETUP_REPS or sum(prepares) < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.prepare()
        prepares.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.start()
    start_s = time.perf_counter() - t0
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(_timed_pass(wl))
        if not wl.repeatable or time.perf_counter() - t_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = failed = 0
    for p in passes:
        a, f = wl.failures(p)
        attempted, failed = attempted + a, failed + f
    # Every pass of one run does the same work: the modeled clock and the
    # wire counter must agree exactly.
    first = passes[0]
    agree = all(
        (p.modeled_s, p.wire_bytes) == (first.modeled_s, first.wire_bytes)
        for p in passes
    )
    walls = [w for p in passes for w in p.op_walls]
    tail_s, tail_pct = workloads.tail(walls)
    metrics = {
        "setup_s": statistics.median(prepares) + start_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "modeled_s": first.modeled_s,
        "wire_bytes": first.wire_bytes,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "prepares": len(prepares),
        "start_s": start_s,
        "op_samples": len(walls),
        "op_tail_percentile": tail_pct,
        "passes": len(passes),
        "passes_agree": agree,
    }
    return Outcome(metrics, details, attempted, failed, agree)


def measure_traced(wl, run_id: str) -> Outcome:
    """Traced run: the per-layer metrics, from a second, traced pass."""
    import spans

    wl.prepare()
    wl.start()
    plain = _timed_pass(wl)
    wl.start()
    rec = spans.Recorder(run_id)
    gc.collect()
    with spans.traced(rec):
        traced = wl.run_pass()
    attempted = failed = 0
    for p in (plain, traced):
        a, f = wl.failures(p)
        attempted, failed = attempted + a, failed + f
    same = (
        traced.answers == plain.answers
        and traced.modeled_s == plain.modeled_s
        and traced.wire_bytes == plain.wire_bytes
    )
    metrics = spans.layer_metrics(rec)
    for phase in PHASES:
        metrics[f"modeled.{phase}_s"] = traced.phases.get(phase, 0.0)
    metrics["modeled.unlisted_s"] = sum(
        v for k, v in traced.phases.items() if k not in PHASES
    )
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    details = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(rec),
        "traced_equals_untraced": same,
    }
    return Outcome(metrics, details, attempted, failed, same, rec)


def main(argv: Optional[List[str]] = None) -> int:
    _use_program_sources()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True,
                    help="draws the vertex relabeling of the inputs")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int, default=workloads.GRAPH_SEED,
                    help="seed of the twitter_like graph")
    ap.add_argument("--holdout-seed", type=int, default=workloads.HOLDOUT_SEED,
                    help="seed of live_update's held-out edges "
                         f"({workloads.CLAIM_HOLDOUT_SEED} is kept for "
                         "checking claims)")
    args = ap.parse_args(argv)

    declared = declared_metrics()
    run_id = uuid.uuid4().hex[:12]
    context = run_context()
    wl = workloads.make(
        args.workload, args.seed, seconds=args.seconds,
        graph_seed=args.graph_seed, holdout_seed=args.holdout_seed,
    )
    if args.trace:
        out = measure_traced(wl, run_id)
        units = declared["per_layer"]
    else:
        out = measure(wl, args.seconds)
        units = declared["end_to_end"]
    if set(out.metrics) != set(units):
        raise SystemExit(
            "perfbench: emitted metrics differ from BENCHMARK.json: "
            f"extra {sorted(set(out.metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(out.metrics))}"
        )
    context["loadavg_end"] = list(os.getloadavg())

    print(f"perfbench {args.workload} seed={args.seed} "
          f"graph_seed={args.graph_seed} holdout_seed={args.holdout_seed} "
          f"seconds={args.seconds} trace={args.trace} run_id={run_id}")
    print("context " + json.dumps(context))
    for name in sorted(out.metrics):
        print(f"  {name:<40} {out.metrics[name]!r:>24} {units[name]}")
    print(f"  {'failed_frac':<40} {out.failed / out.attempted!r:>24} ratio "
          f"({out.failed} of {out.attempted})")
    for key, value in out.details.items():
        print(f"  [{key}] {value}")

    RECORDS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}"
    (RECORDS / f"{stem}.json").write_text(json.dumps({
        "run_id": run_id,
        "args": vars(args),
        "context": context,
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
        "details": out.details,
    }, indent=1))
    if out.recorder is not None:
        out.recorder.save(RECORDS / f"{stem}.spans.npz")

    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out.metrics.items()
        },
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
