#!/usr/bin/env python3
"""Pipeline benchmark for stancegraph.

    python3 bench/run.py --workload kernel-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports stancegraph from ``src/`` of
that checkout and writes only under ``.bench_out/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Details of the run
(environment, workload make-up, per-round times, check failures, and the
spans of a traced round) go to ``.bench_out/<workload>/seed<N>-trace<T>/``.
See README.md in this directory.
"""

import argparse
import json
import os
import sys

# BLAS/OpenMP read these when numpy loads; one thread keeps timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("kernel-train", "schema-induce", "pool-query")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stancegraph", "__init__.py")):
        print(f"stancegraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import stancegraph

    if not os.path.abspath(stancegraph.__file__).startswith(SRC + os.sep):
        print(f"stancegraph imported from {stancegraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), os.path.join(ROOT, ".bench_out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
