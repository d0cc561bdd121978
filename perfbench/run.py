"""Wall-clock benchmark of DeepER serving and training.

Run from the repository root::

    python3 perfbench/run.py --workload match_cold --seed 1 --seconds 12 --trace 0

Workloads: ``match_cold``, ``match_hot``, ``curate_loop``, ``train_lstm``
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the run context (host, versions,
seed, sample counts, outcome digests, tracing overhead); a readable
table of the metrics goes to standard error.

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One client thread and no BLAS fan-out: pin before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("match_cold", "match_hot", "curate_loop", "train_lstm")


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark

    result, context = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
