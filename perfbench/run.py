"""espritsim benchmark: one workload per call, one JSON result line at the end.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
it reads ``peak_rss_mb`` from a child run of this script with
``--memory-probe`` (see ``measure.probe_peak_rss``);
``--trace 1`` runs the traced units (after the same units untraced) and
prints the per-layer metrics. Details, the environment and, for traced runs,
every span go to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS is pinned to one thread before numpy loads; the harness's own thread
# pool is the only parallelism a workload uses.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    """Import espritsim from this checkout's ``src``, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import espritsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import espritsim from {src}: {exc}")
    origin = os.path.realpath(os.path.dirname(espritsim.__file__))
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: espritsim resolved outside {src}: {origin}")
    return espritsim


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--memory-probe", action="store_true",
                        help="set up once, run the accuracy set on one thread and "
                             "print the peak RSS (the trace-0 run starts this itself)")
    args = parser.parse_args(argv)

    _import_program()
    import measure

    if args.workload not in measure.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(measure.WORKLOADS)}")
    if args.memory_probe:
        print(measure.memory_probe(args.workload, args.seed))
    else:
        print(measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          BLAS_THREAD_VARS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
