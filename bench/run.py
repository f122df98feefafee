"""designcount benchmark: one closed-loop client running a fixed op list.

Run from the root of a source checkout:

    python3 bench/run.py --workload {search,montecarlo,exact} --seed N \
        --seconds S --trace {0,1}

Each op waits for the previous one, as a CLI user does; process pools
inside the library get at most min(2, cpu count) workers.  The run
imports designcount from ``src/``, runs one warm-up pass, then repeats
the workload's op list until ``--seconds`` are used, at least twice.

The host's speed drifts (see calibration.py), so the times are
normalized: while an untraced pass runs, a sampler times a fixed slice of
work every 50 ms of CPU time, and each op's time, less the slices, is
divided by the mean time of the slices it saw (of the pass's, if it saw
fewer than five).
norm_wall_s sums each op's median normalized time over the untraced
passes.  Before every pass the run times ``import designcount.cli`` in
two fresh interpreters, each with its own sampler; setup_s is the median
of those normalized import times.  The times as measured are printed
too.

With ``--trace 1`` untraced and traced passes alternate: the per-layer
metrics come from the traced passes, which run without the sampler so
that no slice lands inside a span; the difference of the two passes'
times as measured is the tracing overhead, and the spans are written to
``bench/traces/`` when the run ends.  Every op's result is checked.  The last stdout line
is one JSON object with the verdict, the op counts and the metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from calibration import MIN_SAMPLES, Sampler, normalized

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 2
IMPORT_SAMPLE_INTERVAL = 0.01

# Runs in a fresh interpreter: times the import with the sampler on and
# prints the import's own seconds and the slice times seen during it.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import calibration
with calibration.Sampler({interval!r}) as sampler:
    t0 = time.perf_counter()
    import designcount.cli
    t1 = time.perf_counter()
inside = sampler.between(t0, t1)
while len(inside) < calibration.MIN_SAMPLES:
    inside.append(calibration.slice_seconds())
print(t1 - t0 - sum(sampler.between(t0, t1)), *inside)
"""


def _import_designcount() -> None:
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "designcount" / "__init__.py").is_file():
        sys.exit(f"error: no designcount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import designcount
    if Path(designcount.__file__).resolve().parent != SRC / "designcount":
        sys.exit(f"error: imported designcount from {designcount.__file__}")


def import_seconds() -> tuple[float, float]:
    """Time to import designcount.cli in a fresh interpreter, raw and normalized.

    The fresh interpreter samples the calibration slice during the import
    (topped up with slices after it if it saw fewer than MIN_SAMPLES), so
    the normalized time is read at the speed the import saw.
    """
    probe = _IMPORT_PROBE.format(src=str(SRC), bench=str(ROOT / "bench"),
                                 interval=IMPORT_SAMPLE_INTERVAL)
    out = subprocess.run([sys.executable, "-c", probe],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    raw, *slices = map(float, out.stdout.split())
    return raw, normalized(raw, statistics.fmean(slices))


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Pass:
    """One run through the op list: its times, op counts and spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.op_seconds: list[float] = []
        self.op_normalized: list[float] = []
        self.op_samples: list[list[float]] = []   # slice times seen by each op
        self.attempted = 0
        self.failed: dict[str, int] = {}
        self.spans: list = []


def run_pass(ops, ctx, traced: bool, op_ids) -> Pass:
    result = Pass(traced)
    tracer = ctx.tracer
    first_span = len(tracer.spans)
    state: dict = {}          # what earlier ops of this pass hand to later ones
    gc.collect()
    tracer.enabled = traced
    sampler = Sampler()
    start = perf_counter()
    with sampler if not traced else contextlib.nullcontext():
        for op in ops:
            tracer.op, tracer.op_id = op.name, next(op_ids)
            t0 = perf_counter()
            result.attempted += 1
            try:
                op.run(ctx, state)
            except Exception:     # the run goes on and reports the op as failed
                result.failed[op.layer] = result.failed.get(op.layer, 0) + 1
                sys.stderr.write(f"FAILED op {op.name!r}\n{traceback.format_exc()}")
            t1 = perf_counter()
            inside = sampler.between(t0, t1)
            result.op_seconds.append(t1 - t0 - sum(inside))
            result.op_samples.append(inside)
    result.wall = perf_counter() - start
    tracer.enabled = False
    result.spans = tracer.spans[first_span:]
    if not traced:
        every = [d for _, d in sampler.samples]
        for seconds, inside in zip(result.op_seconds, result.op_samples):
            speed = inside if len(inside) >= MIN_SAMPLES else every
            result.op_normalized.append(normalized(seconds, statistics.fmean(speed)))
    return result


def _median_of(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def op_medians(passes: list[Pass], field: str) -> list[float]:
    """Each op's median over the passes of one of its per-op time lists."""
    return [statistics.median(getattr(p, field)[k] for p in passes)
            for k in range(len(getattr(passes[0], field)))]


def group_seconds(ops, per_op: list[float]) -> dict[str, float]:
    groups: dict[str, float] = {}
    for op, secs in zip(ops, per_op):
        if op.group:
            groups[op.group] = groups.get(op.group, 0.0) + secs
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "montecarlo", "exact"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_designcount()
    import layers
    import workloads
    from tracing import Tracer

    ops = workloads.WORKLOADS[args.workload]()
    jobs = min(2, os.cpu_count() or 1)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # still remove tmpdir
    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    ctx = workloads.Ctx(args.seed, jobs, tmpdir, Tracer())
    op_ids = itertools.count(1)
    imports: list[tuple[float, float]] = []
    try:
        imports += [import_seconds() for _ in range(SETUP_PROBES_PER_PASS)]
        runs = [run_pass(ops, ctx, False, op_ids)]          # warm-up, not timed
        passes: list[Pass] = []
        t0 = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            imports += [import_seconds() for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(run_pass(ops, ctx, traced, op_ids))
            typical = statistics.median(p.wall for p in passes)
            if len(passes) >= MIN_PASSES and perf_counter() - t0 + typical > args.seconds:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    runs += passes
    setup = statistics.median(norm for _, norm in imports)

    attempted = sum(p.attempted for p in runs)
    failed_by_layer: dict[str, int] = {}
    for p in runs:
        for layer, k in p.failed.items():
            failed_by_layer[layer] = failed_by_layer.get(layer, 0) + k
    failed = sum(failed_by_layer.values())
    untraced = [p for p in passes if not p.traced]
    normalized_ops = op_medians(untraced, "op_normalized")
    raw_wall = sum(op_medians(untraced, "op_seconds"))

    print(f"workload={args.workload} seed={args.seed} jobs={jobs} passes={len(passes)} "
          f"(traced {len(passes) - len(untraced)})")
    print(f"warm-up pass {runs[0].wall:.4f} s; untraced pass walls (s): "
          + " ".join(f"{p.wall:.4f}" for p in untraced))
    print(f"as measured: one pass {raw_wall:.4f} s, import "
          f"{statistics.median(raw for raw, _ in imports):.4f} s (sums and medians as below)")
    for group, value in group_seconds(ops, normalized_ops).items():
        print(f"{group}_s = {value:.4f} s (its ops' share of norm_wall_s)")
    print(f"error_rate = {failed / attempted:.4g} ({failed} failed of {attempted} ops attempted)")

    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        values = _median_of([layers.layer_metrics(p.spans, failed_by_layer)
                             for p in traced_passes])
        values["trace.overhead_s"] = sum(op_medians(traced_passes, "op_seconds")) - raw_wall
        declared = spec["per_layer"]
        out_dir = ROOT / "bench" / "traces"
        out_dir.mkdir(exist_ok=True)
        ctx.tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {"norm_wall_s": sum(normalized_ops), "setup_s": setup,
                  "peak_rss_mb": peak_rss_mb()}
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        sys.exit(f"error: metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
