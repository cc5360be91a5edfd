"""Set-up probe: one fresh interpreter imports steerkit, builds the CLI parser
and runs the workload's tiny warm-up jobs, so that first-call costs are paid.

    python3 perfbench/probe.py WARMUP_JSON

``WARMUP_JSON`` is a file holding a JSON list of argv lists.  Prints the
seconds from before ``import steerkit`` to the end of the last warm-up job.
Only the standard library is imported before the clock starts.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    jobs = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    from steerkit import cli

    cli.build_parser()
    for argv in jobs:
        code = cli.main(argv)
        if code != 0:
            print(f"probe: warm-up job {argv} exited {code}", file=sys.stderr)
            return 1
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
