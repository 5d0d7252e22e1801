"""Run several workloads and seeds and print every metric by name and unit.

    python3 perfbench/suite.py                         # BENCHMARK.json's workloads, seed 1
    python3 perfbench/suite.py --seeds 1-10 --workloads geometry
    python3 perfbench/suite.py --seeds 1,1009 --trace 0,1 --record perfbench/baseline.json

Run from the root of a graphonlab checkout. Each (workload, seed, trace)
is one ``run.py`` process run one after another. For each metric the table
gives the median over seeds, the quartiles and the spread: the distance
between the quartiles as a share of the median (``statistics.quantiles``
with n=4), beside the bound BENCHMARK.json allows. ``--record`` adds
every run, with its output digest, to a JSON file together with the
machine and source record, and reports whether runs repeating an earlier
seed gave identical digests and computed counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(w.split("=", 1)[1] for line in lines if line.startswith("perfbench: ")
                            for w in line.split() if w.startswith("digest="))
    return result


def machine_record(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    loc = {}
    for path in sorted((root / "src" / "graphonlab").glob("*.py")):
        loc[path.stem] = sum(1 for line in path.read_text().splitlines() if line.strip())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "commit": commit,
            "source_loc": loc, "source_loc_total": sum(loc.values())}


def blas_threads():
    """OpenBLAS's thread count, read through its C API; None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's workloads")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--record", help="write machine record and results to this JSON file")
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = []
    for trace in (int(t) for t in args.trace.split(",")):
        for workload in workloads:
            results = []
            for seed in seeds:
                res = run_once(workload, seed, seconds, trace)
                results.append(res)
                runs.append({"workload": workload, "seed": seed, "trace": trace, **res})
                print(f"# {workload} seed={seed} trace={trace} attempted={res['attempted']} "
                      f"failed={res['failed']} correct={res['correct']} digest={res['digest']}",
                      flush=True)
            print(f"{workload} (trace={trace}, {len(seeds)} seeds, {seconds:g} s runs)")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                line = f"  {name:44s} {med:14.6g} {first['unit']:10s}"
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / med if med else 0.0
                    line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                    if name in bounds:
                        line += f" (bound {bounds[name]})"
                print(line, flush=True)
    if args.record:
        record(Path(args.record), root, seconds, runs)
    return 0


def record(path: Path, root: Path, seconds, runs) -> None:
    """Add runs to a record file. A run repeating an earlier (workload,
    seed, trace) must give the same output digest and, when traced, the
    same computed counters (metrics counted per job)."""
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["machine"] = machine_record(root)
    doc["seconds"] = seconds
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"])
        for old in doc["runs"]:
            if (old["workload"], old["seed"], old["trace"]) != key:
                continue
            same = old["digest"] == run["digest"] and all(
                old["metrics"][name]["value"] == m["value"]
                for name, m in run["metrics"].items() if m["unit"] == "count/job")
            print(f"# repeat of {key}: {'identical' if same else 'DIFFERENT'} "
                  "digest and counters")
            break
        doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
