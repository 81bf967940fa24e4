"""Set-up time in a fresh interpreter; run as a child of ``run.py``.

``python perfbench/probe.py setup <workload> <seed> <root> <workdir>`` prints
the seconds spent importing the library plus the first call of each op kind
of the workload, so work moved into import (or a JIT on first call) shows.

``python perfbench/probe.py import`` prints the seconds a cold
``import sympspec.cli`` takes once numpy is already imported.
"""

import sys
from time import perf_counter

t0 = perf_counter()
mode = sys.argv[1]

if mode == "import":
    import numpy  # noqa: F401

    t1 = perf_counter()
    import sympspec.cli  # noqa: F401

    print(perf_counter() - t1)
elif mode == "setup":
    name, seed, root, workdir = sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
    if name == "cli_cold":
        import sympspec.cli  # noqa: F401
    else:
        import sympspec  # noqa: F401
    elapsed = perf_counter() - t0

    import workloads

    first = {}
    for op in workloads.build(name, seed, root, workdir, n_rounds=1).rounds[0]:
        first.setdefault(op.kind, op)
    for op in first.values():
        t = perf_counter()
        (op.first_call or op.call)()
        elapsed += perf_counter() - t
    print(elapsed)
else:
    sys.exit(f"unknown probe mode {mode!r}")
