"""The benchmark's workloads.

``BENCHMARK.json`` lists ``certify``, ``geometry`` and ``cli``. ``patterns``
is run by hand only (``run.py --workload patterns``): its jobs are almost
all interpreted Python (einsum path search on tiny hosts), whose speed on a
shared 2-core host drifts by 15-30% over minutes. Its ten-run spread of
median job latency was 0.16-0.33 of the median, over the 0.25 bound, and
neither longer runs nor other statistics brought it down. The densities
and setsystems layers are still traced on ``cli``, whose ``density`` and
``thinness`` steps call them.

Each workload is one client in one process running jobs in a closed loop:
the next job starts when the previous one has finished and been checked.
Jobs run in whole cycles. A cycle is a fixed list of job sizes; the seed
draws the contents of every job (graphon values, step permutations, host
sizes where stated), never the mix, so the latency distribution has the
same shape for every seed. The mix is weighted so that the median and
the 90th percentile fall inside a block of equal-size jobs, not on the
edge between two sizes, which would make them jump between runs.

``inputs`` makes a pool of ``POOL_CYCLES`` cycles up front (this is
set-up, not job time); a run that gets through the pool starts it again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import graphonlab as gl
from graphonlab import zoo
from graphonlab.core import Bigraph, Graph

K3 = Graph.complete(3)
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
GRAPHS = {"K3": K3, "C4": C4, "P4": P4}
M2 = Bigraph(2, 2, [(0, 0), (1, 1)])


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, size=n)]


def _permuted(w, rng):
    perm = rng.permutation(w.k)
    return gl.StepGraphon(w.mu, w.w[np.ix_(perm, perm)])


def feed_digest(obj, h=None) -> "hashlib._Hash":
    """Hash of a job output: exact float bits, fixed container order."""
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"d")
        for key in sorted(obj, key=str):
            h.update(repr(key).encode())
            feed_digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for v in obj:
            feed_digest(v, h)
    elif isinstance(obj, gl.PartitionReport):
        feed_digest(obj.to_dict(), h)
    elif isinstance(obj, gl.MetricView):
        feed_digest({"mu": obj.mu, "dist": obj.dist}, h)
    elif isinstance(obj, gl.StepGraphon):
        feed_digest({"mu": obj.mu, "w": obj.w}, h)
    elif isinstance(obj, gl.Partition):
        feed_digest(obj.assign, h)
    elif isinstance(obj, gl.Bigraph):
        feed_digest((obj.n1, obj.n2, sorted(obj.edges)), h)
    else:
        h.update(repr(obj).encode())
    return h


class Workload:
    """A cycle of job sizes, a pool of seeded inputs, a job and its check."""

    name: str
    CYCLE: tuple
    POOL_CYCLES: int
    #: jobs run in child processes, so peak RSS is theirs
    SUBPROCESS_JOBS = False

    def inputs(self, seed: int, workdir) -> list:
        raise NotImplementedError

    def run(self, item, tracer=None):
        raise NotImplementedError

    def check(self, item, out) -> None:
        raise NotImplementedError

    def warmup(self) -> list:
        """Small items run once, untimed, before the first job, so lazy
        set-up (BLAS threads, einsum, first allocations) is not charged to
        it. Processes in the cli workload start cold, as users' do."""
        return []

    def canonical(self, out):
        """The part of a job's output that the run digest covers."""
        return out

    def digest(self, out, h) -> None:
        feed_digest(self.canonical(out), h)

    def size(self, item) -> str:
        """Label of the job's size class, for the run record."""
        raise NotImplementedError


class Certify(Workload):
    """Regularity certificates on real-valued hosts with k <= 20 steps."""

    name = "certify"
    #: steps per job; k=20 is 2 of 10 jobs, so p90 falls inside its block
    CYCLE = (18, 14, 20, 16, 18, 14, 18, 20, 16, 18)
    POOL_CYCLES = 20

    def inputs(self, seed, workdir):
        seeds = _seeds(seed, len(self.CYCLE) * self.POOL_CYCLES)
        return [zoo.random_stepfunction(k, s)
                for k, s in zip(itertools.cycle(self.CYCLE), seeds)]

    def run(self, w, tracer=None):
        weak = gl.weak_partition_via_net(w, 0.05)
        ultra = gl.ultra_strong_partition(w, 0.3)
        return {"weak": weak, "ultra": ultra,
                "szemeredi": gl.szemeredi_error(w, weak.partition),
                "net": gl.net_from_partition(w, weak.partition)}

    def check(self, w, out):
        checks.certify(out)

    def warmup(self):
        return [zoo.random_stepfunction(12, 0)]

    def size(self, w):
        return f"k={w.k}"


def _all_bigraphs():
    """Every labelled bigraph with 1..3 nodes per side: 682 patterns."""
    out = {}
    for n1, n2 in itertools.product((1, 2, 3), repeat=2):
        cells = [(u, v) for u in range(n1) for v in range(n2)]
        out[f"{n1}x{n2}"] = [Bigraph(n1, n2, [c for i, c in enumerate(cells) if mask >> i & 1])
                             for mask in range(1 << len(cells))]
    return out


def _supergraphs(f: Graph) -> list[Graph]:
    """Graphs on V(f) whose edge set contains f's."""
    missing = [(u, v) for u in range(f.n) for v in range(u + 1, f.n) if (u, v) not in f.edges]
    return [Graph(f.n, list(f.edges) + [e for i, e in enumerate(missing) if mask >> i & 1])
            for mask in range(1 << len(missing))]


class Patterns(Workload):
    """Pattern densities and set-system dimensions on small hosts."""

    name = "patterns"
    #: (kind, size); real hosts take nearly all the time: k=3 is 4 of 10
    #: jobs, so the median falls in its middle, and p90 inside the k=5 block;
    #: the half graphon's size (None) is drawn from 12..20
    CYCLE = (("real", 3), ("half", None), ("real", 5), ("real", 3), ("large", 200),
             ("real", 4), ("real", 3), ("zero_one", 14), ("real", 5), ("real", 3))
    POOL_CYCLES = 20

    def inputs(self, seed, workdir):
        self.bigraphs = _all_bigraphs()
        seeds = _seeds(seed, len(self.CYCLE) * self.POOL_CYCLES)
        pool = []
        for (kind, n), s in zip(itertools.cycle(self.CYCLE), seeds):
            if kind == "half":
                rng = np.random.default_rng(s)
                w = _permuted(zoo.half_graphon(int(rng.integers(12, 21))), rng)
            else:
                w = zoo.random_stepfunction(n, s, zero_one=(kind == "zero_one"))
            pool.append((kind, w))
        return pool

    def run(self, item, tracer=None):
        kind, w = item
        if kind == "large":
            return {"K3": gl.density(K3, w), "C4": gl.density(C4, w)}
        if kind in ("half", "zero_one"):
            fam, counts = gl.neighborhood_family(w)
            return {"de": gl.de_dimension(fam), "vc": gl.vc_dimension(fam), "counts": counts,
                    "witness": gl.thinness_witness(w, 6)}
        b = gl.as_bigraphon(w)
        return {
            "induced": {shape: [gl.bigraph_density(f, b, induced=True) for f in fs]
                        for shape, fs in self.bigraphs.items()},
            "graphs": {name: (gl.density(g, w), gl.induced_density(g, w))
                       for name, g in GRAPHS.items()},
            "rooted": [gl.partial_density(K3, [0], {0: x}, w) for x in range(w.k)],
        }

    def warmup(self):
        return [("real", zoo.random_stepfunction(3, 0)), ("half", zoo.half_graphon(8)),
                ("large", zoo.random_stepfunction(50, 0))]

    def check(self, item, out):
        kind, w = item
        if kind == "large":
            checks.cycle_densities(w, out["K3"], out["C4"])
        elif kind in ("half", "zero_one"):
            checks.thinness(w, out["de"], out["witness"], half=(kind == "half"))
        else:
            checks.shape_sums(out["induced"])
            for name, g in GRAPHS.items():
                t_hom, t_ind = out["graphs"][name]
                others = [gl.induced_density(h, w) for h in _supergraphs(g)[1:]]
                checks.hom_from_induced(t_hom, [t_ind] + others)
            checks.rooted_average(out["rooted"], w.mu, out["graphs"]["K3"][0])

    def size(self, item):
        return f"{item[0]}:k={item[1].k}"


class Geometry(Workload):
    """Neighborhood and similarity metrics, nets and partitions at k >= 200."""

    name = "geometry"
    #: (kind, size); the real k=300 host is 4 of 8 jobs, so the median falls
    #: in its block, and n=400 is 2 of 8, so p90 falls inside that block.
    #: Sphere jobs are dominated by purify's interpreted merge loop and vary
    #: about three times as much between runs as the numpy-bound real host.
    CYCLE = (("sphere", 400), ("random", 300), ("sphere", 200), ("random", 300),
             ("sphere", 400), ("random", 300), ("sphere", 300), ("random", 300))
    POOL_CYCLES = 4
    EPS = 0.05

    def inputs(self, seed, workdir):
        seeds = _seeds(seed, len(self.CYCLE) * self.POOL_CYCLES)
        pool = []
        for (kind, n), s in zip(itertools.cycle(self.CYCLE), seeds):
            if kind == "sphere":
                # whether n random points include twins is a coin flip that
                # decides if purify merges (seconds) or returns at once; one
                # split step makes every sphere host take the merging path
                w, pts = zoo.sphere_graphon(2, n - 1, s)
                pool.append((gl.split_step(w, 0, 2), np.vstack([pts[:1], pts])))
            else:
                pool.append((zoo.random_stepfunction(n, s), None))
        return pool

    def run(self, item, tracer=None):
        w, _ = item
        r_w = gl.neighborhood_metric(w)
        r_ww = gl.similarity_metric(w)
        pure, mapping = gl.purify(w)
        centers, cost = gl.average_net(r_ww, self.EPS)
        cells = gl.voronoi_partition(r_ww, centers)
        slope, table = gl.packing_dimension_estimate(r_w, [0.4, 0.2, 0.1], mode="greedy")
        return {"r_w": r_w, "r_ww": r_ww, "purify": (pure, mapping), "net": (centers, cost),
                "voronoi": cells, "packing": (slope, table),
                "weak": gl.weak_partition_via_net(w, self.EPS),
                "ultra": gl.ultra_strong_partition(w, 0.3)}

    def warmup(self):
        w, _ = zoo.sphere_graphon(2, 60, 0)
        return [(gl.split_step(w, 0, 2), None), (zoo.random_stepfunction(60, 0), None)]

    def check(self, item, out):
        w, pts = item
        checks.metric_contraction(out["r_w"], out["r_ww"])
        if pts is not None:
            checks.sphere_distance(out["r_w"], pts)
        checks.purify(w, *out["purify"])
        centers, cost = out["net"]
        checks.average_net(out["r_ww"], centers, cost, self.EPS)
        checks.voronoi(out["r_ww"], centers, out["voronoi"])
        checks.packing_table(out["packing"][1])
        checks.partition_report(out["weak"], "cut")
        checks.partition_report(out["ultra"], "l1")

    def size(self, item):
        return f"{'sphere' if item[1] is not None else 'random'}:k={item[0].k}"


_CONSOLE_SCRIPT = "import sys; from graphonlab.cli import main; sys.exit(main())"


class Cli(Workload):
    """Command-line pipelines, one fresh process per subcommand."""

    name = "cli"
    CYCLE = ("weak", "ultra", "thin")
    SUBPROCESS_JOBS = True
    POOL_CYCLES = 8
    #: density pattern file per partition variant
    PATTERN = {"weak": "k3.graph", "ultra": "m2.bigraph", "thin": "c4.graph"}

    def inputs(self, seed, workdir):
        workdir = Path(workdir)
        gl.fileio.write_graph(workdir / "k3.graph", K3)
        gl.fileio.write_graph(workdir / "c4.graph", C4)
        gl.fileio.write_bigraph(workdir / "m2.bigraph", M2)
        sizes = np.random.default_rng(seed).integers(10, 17,
                                                      size=len(self.CYCLE) * self.POOL_CYCLES)
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(Path.cwd() / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return [(variant, int(n)) for variant, n in zip(itertools.cycle(self.CYCLE), sizes)]

    def pipeline(self, variant, n):
        partition = {"weak": ["--eps-net", "0.05"], "ultra": ["--eps", "0.3"],
                     "thin": ["--eps", "0.25", "--pattern", "m2.bigraph", "--edit"]}[variant]
        return [["zoo", "half", "--n", str(n), "-o", "host.graphon"],
                ["partition", variant, "host.graphon", *partition, "-o", "rep.json"],
                ["report", "rep.json"],
                ["thinness", "host.graphon"],
                ["density", "--graphon", "host.graphon", "--pattern", self.PATTERN[variant]]]

    def run(self, item, tracer=None):
        steps = []
        for argv in self.pipeline(*item):
            if tracer is None:
                cmd = [sys.executable, "-c", _CONSOLE_SCRIPT, *argv]
                proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                      capture_output=True, text=True)
            else:
                spans = self.workdir / "spans.json"
                cmd = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                       str(spans), *argv]
                span = tracer.open("process")
                try:
                    proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                          capture_output=True, text=True)
                finally:
                    tracer.close(span)
                _import_spans(tracer, span, spans)
            steps.append((argv, proc.returncode, proc.stdout, proc.stderr))
        return steps

    def check(self, item, steps):
        variant, n = item
        checks.cli_exit_codes(steps)
        checks.cli_report(steps[2][2])
        checks.cli_thinness(steps[3][2])
        w = zoo.half_graphon(n)
        s = np.sqrt(w.mu)
        m = s[:, None] * w.w * s[None, :]
        m2 = m @ m
        expected = {"weak": {"t": float(np.sum(m2 * m)), "t_ind": float(np.sum(m2 * m))},
                    "ultra": {"t_b": float(w.mu @ w.w @ w.mu) ** 2, "t_b_ind": 0.0},
                    "thin": {"t": float(np.sum(m2 * m2))}}[variant]
        checks.cli_density(steps[4][2], expected)

    def canonical(self, steps):
        """Command lines, exit codes, stdout and the written report."""
        return [(argv, rc, out) for argv, rc, out, _ in steps] + [
            (self.workdir / "rep.json").read_text()]

    def size(self, item):
        return f"{item[0]}:n={item[1]}"


def _import_spans(tracer, parent, path):
    """Add a launcher's spans under its process span; perf_counter is
    system-wide monotonic, so the times need no shifting."""
    doc = json.loads(Path(path).read_text())
    tracer.spans[parent][5] = {"import_s": doc["import_s"]}
    base = len(tracer.spans)
    for name, start, end, p, counters in doc["spans"]:
        tracer.add(name, start, end, parent if p < 0 else base + p, counters)


WORKLOADS = {wl.name: wl for wl in (Certify(), Patterns(), Geometry(), Cli())}
