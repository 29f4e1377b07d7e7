"""critgyro benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports critgyro from `src/`.
The workloads and the metrics each reports are defined in `workloads.py`;
`BENCHMARK.json` at the repository root lists them. Every line before the
last is a human-readable report (metrics with unit and direction, the
replay record, the per-layer map); the last line is one JSON object with
the keys correct, attempted, failed and metrics.

The environment is pinned before numpy loads: the numpy kernel backend,
one BLAS thread, and no CRITGYRO_SEED (which would override the workload
seed). Exit codes: 0 on a result, 2 on a usage error or a missing source
tree, 1 on an unexpected error.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_ENV = {
    "CRITGYRO_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_environment() -> dict:
    """Pin backend and threads, drop the seed override, expose `src/`.

    Must run before numpy or critgyro is imported. Returns what it changed,
    for the replay record.
    """
    if not (SRC / "critgyro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no critgyro source tree under {SRC}")
    removed = os.environ.pop("CRITGYRO_SEED", None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    return {"critgyro_seed_env_removed": removed, "pinned_env": dict(PINNED_ENV)}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        env = prepare_environment()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # after the environment is pinned

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    for line in workloads.report_lines(result, env):
        print(line)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
