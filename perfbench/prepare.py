"""Set-up step of one benchmark run, in a process of its own.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR [--tiny]

Generates the workload's inputs under DIR from the seed and runs the CLI
stages the timed round depends on. ``run.py`` times this whole process
(interpreter start, imports, generation, prerequisite stages) as set-up.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    import workloads

    workloads.prepare(args.workload, Path(args.out), args.seed, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
