"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports graphonlab from ``./src`` and makes the workload's inputs from the
seed (input files go to a scratch directory under ``./.perfbench``, removed
on exit). The caller times the whole process.
"""

import shutil
import sys
import tempfile
from pathlib import Path


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix="setup-", dir=root / ".perfbench")
    try:
        WORKLOADS[name].inputs(seed, workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
