"""Command line: python3 -m perfbench --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is
the JSON result: correct, attempted, failed and metrics.
"""

import argparse
import sys
from pathlib import Path

WORKLOADS = ("text_heavy", "user_heavy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description="Benchmark of the textpersona pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="corpus seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's artifact digests in perfbench/digests.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "textpersona" / "__init__.py").is_file():
        print("perfbench: src/textpersona not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from perfbench import bench  # imports textpersona from the checkout

    return bench.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
