"""One fresh start: a new interpreter imports minmaxlp and runs a workload's
first operation once.  ``run.py`` times this whole process for ``setup_s``.

    python3 perfbench/cold.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports minmaxlp from the checkout's src)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.build(name, seed, workdir, first_only=True).operations[0].run()
