"""Benchmark entry point.

    python3 perfbench/run.py --workload dyadic-small --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    """Put the checkout's ``src/`` first on the path and check convemo comes from it."""
    package = os.path.join(SRC, "convemo")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"run.py: no convemo sources at {package}")
    sys.path.insert(0, SRC)
    import convemo

    if os.path.dirname(os.path.abspath(convemo.__file__)) != package:
        raise SystemExit(f"run.py: convemo imported from {convemo.__file__}, not {package}")


def environment() -> str:
    """nproc, numpy and BLAS versions and the thread-count variables, on one line."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            + " ".join(f"{k}={v}" for k, v in threads.items()))


def main(argv=None) -> int:
    import_program()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"environment: {environment()}", file=sys.stderr)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
