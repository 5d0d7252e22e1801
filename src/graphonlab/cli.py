"""Command line interface.

Exit codes: 0 success with certified bounds, 1 a certified bound failed
(``CertificationError``, a thinness witness whose exact density is not 0,
or a bound ``report`` re-checks), 2 input error, 3 hypothesis-check failure
(a host that is not 0-1 included), 4 size guard, 5 internal error (any
other exception; its traceback and message go to stderr). All output is
deterministic given flags and seed: fixed key order, 17-digit floats.

At module level this imports only the standard library and ``errors``.
Each command imports the modules it calls when it runs, so a process
loads only the layers its command uses: ``report`` reads JSON and compares
its numbers with their bounds without loading numpy.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (CERTIFIED_ERROR, BasisMismatchError, CertificationError,
                     HypothesisError, InvalidInputError, SizeLimitError, within_bound)


def _emit(text: str, out: str | None) -> None:
    if out:
        from . import fileio

        fileio.write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_pattern(path: str):
    from . import fileio

    if path.endswith(".bigraph"):
        return fileio.load_bigraph(path)
    return fileio.load_graph(path)


def cmd_density(args) -> int:
    import numpy as np

    from . import fileio
    from .core import Graph, StepGraphon, as_bigraphon
    from .densities import bigraph_density, density, induced_density

    host_graphon = host_bigraphon = None
    if args.constant is not None:
        p = float(args.constant)
        if not (0.0 <= p <= 1.0):
            raise InvalidInputError("--constant must lie in [0, 1]")
        host_graphon = StepGraphon(np.array([1.0]), np.array([[p]]))
    elif args.graphon:
        host_graphon = fileio.load_graphon(args.graphon)
    elif args.bigraphon:
        host_bigraphon = fileio.load_bigraphon(args.bigraphon)
    else:
        raise InvalidInputError("need --graphon, --bigraphon or --constant")

    pattern = _load_pattern(args.pattern)
    if isinstance(pattern, Graph):
        if host_graphon is None:
            raise InvalidInputError("a graph pattern needs a graphon host")
        result = {"t": density(pattern, host_graphon),
                  "t_ind": induced_density(pattern, host_graphon)}
    else:
        host = host_bigraphon if host_bigraphon is not None else as_bigraphon(host_graphon)
        result = {"t_b": bigraph_density(pattern, host, induced=False),
                  "t_b_ind": bigraph_density(pattern, host, induced=True)}
    _emit(fileio.dumps_canonical(result) + "\n", args.output)
    return 0


def cmd_partition(args) -> int:
    from . import fileio, regularity
    from .core import Graph

    w = fileio.load_graphon(args.graphon)
    extra = {}
    if args.variant == "weak":
        if args.eps_net is None:
            raise InvalidInputError("weak mode needs --eps-net")
        report = regularity.weak_partition_via_net(w, args.eps_net)
    elif args.variant == "ultra":
        if args.eps is None:
            raise InvalidInputError("ultra mode needs --eps")
        report = regularity.ultra_strong_partition(w, args.eps)
    else:
        if args.eps is None or args.pattern is None:
            raise InvalidInputError("thin mode needs --eps and --pattern")
        pattern = _load_pattern(args.pattern)
        if isinstance(pattern, Graph):
            raise InvalidInputError("thin mode excludes a bigraph pattern (.bigraph)")
        if args.edit:
            approx = regularity.edit_blowup_approx(w, pattern, args.eps)
            report = approx.report
            extra = {"edit": {
                "edits": approx.edits,
                "changed_cells": approx.changed_cells,
                "cell_bound": args.eps * w.k * w.k,
                "sizes": list(approx.sizes),
                "internal": list(approx.internal),
                "quotient_edges": sorted(approx.quotient.edges),
            }}
        else:
            report = regularity.thin_ultra_partition(w, pattern, args.eps)
    doc = {"kind": args.variant}
    doc.update(report.to_dict())
    if args.szemeredi:
        doc["szemeredi_error"] = regularity.szemeredi_error(w, report.partition)
    doc.update(extra)
    _emit(fileio.dumps_canonical(doc) + "\n", args.output)
    return 0 if report.certified(CERTIFIED_ERROR[args.variant]) else 1


def cmd_metrics(args) -> int:
    from . import fileio, metrics

    w = fileio.load_graphon(args.graphon)
    view = metrics.similarity_metric(w) if args.similarity else metrics.neighborhood_metric(w)
    if args.packing:
        try:
            grid = [float(e) for e in args.packing.split(",")]
        except ValueError:
            raise InvalidInputError("--packing expects a comma-separated eps grid")
        mode = "greedy" if args.greedy else "exact"
        slope, table = metrics.packing_dimension_estimate(view, grid, mode=mode)
        _emit(fileio.dumps_canonical(
            {"mode": mode, "slope": slope,
             "table": [[eps, n] for eps, n in table]}) + "\n", args.output)
        return 0
    if args.format == "json":
        _emit(fileio.dumps_canonical({"mu": view.mu, "dist": view.dist}) + "\n",
              args.output)
    else:
        _emit(view.to_csv(), args.output)
    return 0


def cmd_vc(args) -> int:
    from . import fileio, setsystems

    fam = fileio.load_family(args.family)
    result = {"vc": setsystems.vc_dimension(fam)}
    if args.sym_diff:
        result["vc_sym_diff"] = setsystems.vc_dimension(setsystems.sym_diff_family(fam))
    if args.de:
        result["de"] = setsystems.de_dimension(fam)
    if args.tau:
        result["tau"] = setsystems.transversal_number(fam)
    _emit(fileio.dumps_canonical(result) + "\n", args.output)
    return 0


def cmd_thinness(args) -> int:
    from . import fileio, setsystems

    w = fileio.load_graphon(args.graphon)
    witness = setsystems.thinness_witness(w, args.kmax)
    if witness is None:
        fam, _ = setsystems.neighborhood_family(w)
        result = {"de": setsystems.de_dimension(fam), "kmax": args.kmax,
                  "witness_found": False}
    else:
        # the witness has DE-dimension + 1 left nodes, and thinness_witness
        # raises unless its induced density is exactly 0.0
        result = {"de": witness.n1 - 1, "kmax": args.kmax, "witness_found": True,
                  "n1": witness.n1, "n2": witness.n2, "t_b_ind": 0.0}
        if args.witness_out:
            fileio.write_bigraph(args.witness_out, witness)
    _emit(fileio.dumps_canonical(result) + "\n", args.output)
    return 0


def cmd_zoo(args) -> int:
    import numpy as np

    from . import fileio, zoo
    from .core import StepGraphon

    if not args.output:
        raise InvalidInputError("zoo generators need -o/--output")
    kind = args.generator
    if kind == "sphere":
        w, _ = zoo.sphere_graphon(args.dim, args.n, args.seed)
        fileio.write_graphon(args.output, w)
    elif kind == "metric":
        if not args.dist:
            raise InvalidInputError("zoo metric needs --dist")
        mu = np.atleast_1d(fileio.load_csv(args.mu).squeeze()) if args.mu else None
        fileio.write_graphon(args.output, zoo.metric_graphon(fileio.load_csv(args.dist), mu))
    elif kind == "half":
        fileio.write_graphon(args.output, zoo.half_graphon(args.n))
    elif kind == "binary":
        g = zoo.binary_graphon(args.depth, args.variant)
        if isinstance(g, StepGraphon):
            fileio.write_graphon(args.output, g)
        else:
            fileio.write_bigraphon(args.output, g)
    elif kind == "counterexample":
        fileio.write_graphon(args.output, zoo.counterexample_U())
    else:  # "random"; argparse's choices admit no other generator
        fileio.write_graphon(args.output,
                             zoo.random_stepfunction(args.k, args.seed, args.zero_one))
    return 0


def cmd_report(args) -> int:
    from . import fileio

    doc = fileio.load_report(args.report)
    cut, l1, bound = (doc[key] for key in ("cut_error", "l1_error", "certified_bound"))
    measured = cut if CERTIFIED_ERROR[doc["kind"]] == "cut" else l1
    lines = [f"kind: {doc['kind']}",
             f"classes: {len(doc['classes'])}",
             f"cut_error: {cut} (exact: {doc['exact']})",
             f"l1_error: {l1}"]
    if doc.get("net_cost") is not None:
        lines.append(f"net_cost: {doc['net_cost']}")
    atoms_ok = "atom_count" not in doc or within_bound(doc["atom_count"], doc["sauer_bound"])
    if "atom_count" in doc:
        lines.append(f"atoms: {doc['atom_count']} {'<=' if atoms_ok else '>'} {doc['sauer_bound']}")
    ok = within_bound(measured, bound)
    lines.append(f"certified: {'PASS' if ok else 'FAIL'} "
                 f"(measured {measured} vs bound {bound})")
    if "edit" in doc:
        e = doc["edit"]
        cells_ok = within_bound(e["changed_cells"], e["cell_bound"])
        ok = ok and cells_ok
        lines.append(f"edit: {'PASS' if cells_ok else 'FAIL'} "
                     f"({e['changed_cells']} cells vs {e['cell_bound']})")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok and atoms_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphonlab",
                                 description="stepfunction graphon toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="pattern densities in a (bi)graphon")
    p.add_argument("--graphon")
    p.add_argument("--bigraphon")
    p.add_argument("--constant", type=float)
    p.add_argument("--pattern", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("partition", help="regularity partitions")
    p.add_argument("variant", choices=["weak", "ultra", "thin"])
    p.add_argument("graphon")
    p.add_argument("--eps-net", type=float, dest="eps_net")
    p.add_argument("--eps", type=float)
    p.add_argument("--pattern")
    p.add_argument("--edit", action="store_true",
                   help="thin mode: also emit the blow-up edit approximation")
    p.add_argument("--szemeredi", action="store_true",
                   help="also fill the exact Szemeredi error (k <= 24)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("metrics", help="neighborhood / similarity distance matrix")
    p.add_argument("graphon")
    p.add_argument("--similarity", action="store_true")
    p.add_argument("--packing", metavar="EPS,EPS,...",
                   help="emit the packing table and dimension slope instead")
    p.add_argument("--greedy", action="store_true",
                   help="greedy packing lower bounds instead of exact")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("vc", help="VC and related dimensions of a set family")
    p.add_argument("--family", required=True)
    p.add_argument("--de", action="store_true")
    p.add_argument("--tau", action="store_true")
    p.add_argument("--sym-diff", action="store_true", dest="sym_diff")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("thinness", help="DE-dimension and exclusion witness")
    p.add_argument("graphon")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--witness-out", dest="witness_out")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_thinness)

    p = sub.add_parser("zoo", help="example graphon generators")
    p.add_argument("generator", choices=["sphere", "metric", "half", "binary",
                                         "counterexample", "random"])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--variant", choices=["sym", "asym"], default="sym")
    p.add_argument("--dist")
    p.add_argument("--mu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-one", action="store_true", dest="zero_one")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("report", help="summarize and re-check a partition report")
    p.add_argument("report")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, BasisMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis check failed: {e}", file=sys.stderr)
        return 3
    except SizeLimitError as e:
        print(f"size guard: {e}", file=sys.stderr)
        return 4
    except CertificationError as e:
        print(f"certified bound violated: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
