"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a graphonlab checkout: graphonlab is imported from
``./src`` and the metric names and units come from ``./BENCHMARK.json``.
Jobs run in whole cycles (see ``workloads.py``) until ``--seconds`` have
passed, so a run ends within one cycle after that. Each job is timed
alone; its output check, the digest and the bookkeeping run outside the
timed interval.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
cycle twice, untraced and with the layer wrappers installed (alternating
which goes first), and reports the per-layer metrics from the traced pass
plus ``trace.overhead_frac``, the traced pass's extra job time as a share
of the untraced pass's.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). A run record with
every job's time and size and the spans of a traced run are written under
``./.perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5

#: the layer each workload exists to exercise (the cli one: process start
#: plus file I/O)
TARGETS = {"certify": ("core",), "patterns": ("densities",), "geometry": ("metrics",),
           "cli": ("process", "fileio")}


def run_job(wl, item, idx, tracer, digest):
    """Run, time and check one job; returns its record."""
    if tracer is not None:
        tracer.job = idx
        span = tracer.open("job")
    start = time.perf_counter()
    try:
        out, error = wl.run(item, tracer), None
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.job = None
    if error is None:
        try:
            wl.check(item, out)
        except checks.CheckError as exc:
            error = f"check failed: {exc}"
    if error is not None:
        print(f"perfbench: job {idx} ({wl.size(item)}) failed: {error}", file=sys.stderr)
    if digest is not None and out is not None:
        wl.digest(out, digest)
    return {"job": idx, "size": wl.size(item), "seconds": elapsed,
            "traced": tracer is not None, "error": error}


def measure(wl, pool, seconds, tracer):
    """Closed loop over whole cycles; returns job records and digests of
    the first cycle's outputs (untraced, and traced when tracing)."""
    n = len(wl.CYCLE)
    jobs = []
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        passes = (False,) if tracer is None else ((False, True) if cycle % 2 == 0
                                                 else (True, False))
        for traced in passes:
            if traced:
                tracer.install()
            try:
                for pos in range(n):
                    idx = cycle * n + pos
                    jobs.append(run_job(wl, pool[idx % len(pool)], idx,
                                        tracer if traced else None,
                                        digests[traced] if cycle == 0 else None))
            finally:
                if traced:
                    tracer.uninstall()
        cycle += 1
    return jobs, {k: h.hexdigest() for k, h in digests.items()}


def setup_seconds(root, workload, seed) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                   cwd=root, check=True)
    return time.perf_counter() - start


def end_to_end(jobs, setup, peak_rss_kb) -> dict:
    times = [j["seconds"] for j in jobs]
    p50, p90 = np.percentile(times, [50, 90])
    return {"jobs_per_s": len(times) / sum(times), "job_p50_ms": p50 * 1e3,
            "job_p90_ms": p90 * 1e3, "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_kb / 1024.0}


def traced_values(wl, jobs, tracer) -> dict:
    """Per-layer metrics and tracing overhead; prints the layer shares."""
    plain = sum(j["seconds"] for j in jobs if not j["traced"])
    traced = sum(j["seconds"] for j in jobs if j["traced"])
    values = tracing.per_layer_metrics(tracer.spans, set(range(len(wl.CYCLE))))
    values["trace.overhead_frac"] = (traced - plain) / plain
    shares = {k[len("layer."):-len(".share")]: v for k, v in values.items()
              if k.startswith("layer.")}
    target = TARGETS[wl.name]
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print("perfbench: layer shares of traced job time: "
          + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
    print(f"perfbench: target {'+'.join(target)} = {sum(shares[k] for k in target):.3f}, "
          f"largest other = {max(v for k, v in shares.items() if k not in target):.3f}")
    return values


def select(spec_metrics, values) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json lists metrics this run does not compute: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TARGETS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "graphonlab" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a graphonlab checkout "
              "(needs ./src/graphonlab and ./BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    out_dir = root / ".perfbench"
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    try:
        pool = wl.inputs(args.seed, workdir)
        for item in wl.warmup():
            wl.run(item)
        jobs, digests = measure(wl, pool, args.seconds, tracer)
        who = resource.RUSAGE_CHILDREN if wl.SUBPROCESS_JOBS else resource.RUSAGE_SELF
        peak_rss_kb = resource.getrusage(who).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(j["error"] is not None for j in jobs)
    correct = failed == 0
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cycle": len(wl.CYCLE), "jobs": jobs,
              "digest": digests[False]}
    if tracer is None:
        setup = [setup_seconds(root, wl.name, args.seed) for _ in range(SETUP_REPEATS)]
        values = end_to_end(jobs, setup, peak_rss_kb)
        metrics = select(spec["end_to_end"], values)
        record["setup_s"] = setup
    else:
        values = traced_values(wl, jobs, tracer)
        metrics = select(spec["per_layer"], values)
        tracer.dump(out_dir / f"spans-{tag}.jsonl")
        record["traced_digest"] = digests[True]
        if digests[True] != digests[False]:
            print("perfbench: outputs differ with tracing on", file=sys.stderr)
            correct = False
    record["metrics"] = metrics
    (out_dir / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench: {wl.name} seed={args.seed} jobs={len(jobs)} "
          f"({len(jobs) // len(wl.CYCLE)} cycle-passes) failed={failed} "
          f"digest={digests[False][:16]}")
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
