#!/usr/bin/env python3
"""aapsm detect/correct benchmark.

    python3 perfbench/run.py --workload comb_40 --seed 1 --seconds 30 --trace 0

Runs against the package sources in this checkout's ``src`` directory and
nothing else; without them it exits non-zero before printing a result.  The
last line of standard output is the JSON result.  See perfbench/README.md.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "aapsm" / "__init__.py").is_file():
        print(f"perfbench: no aapsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import aapsm

    if Path(aapsm.__file__).resolve().parent != SRC / "aapsm":
        print(f"perfbench: imported aapsm from {aapsm.__file__}", file=sys.stderr)
        return 2
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
