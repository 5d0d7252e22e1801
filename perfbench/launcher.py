"""Traced stand-in for the ``graphonlab`` console script.

    python3 perfbench/launcher.py SPANS.json <graphonlab arguments>

Imports graphonlab, installs the benchmark's wrappers, calls
``graphonlab.cli.main`` with the remaining arguments, writes the recorded
spans and the import time to SPANS.json, and exits with main's code.
Expects ``src`` of the checkout on PYTHONPATH.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import graphonlab.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.job = 0
    tracer.install()
    try:
        return graphonlab.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s,
                       "spans": [[name, t0, t1, parent, counters]
                                 for name, t0, t1, parent, _, counters in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
