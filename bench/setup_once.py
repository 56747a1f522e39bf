"""One cold set-up of a workload in this fresh interpreter, timed.

    python3 bench/setup_once.py <workload> <seed> <work dir>

Imports genoq, generates and writes the workload's inputs under the work
directory and warms up on the first job of each kind: everything a run does
before its timed jobs. Prints the seconds taken. run.py starts this several
times, one after another, and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()

import run  # noqa: E402  (pins BLAS to one thread before numpy loads)


def main(workload: str, seed: str, work: str) -> int:
    if not run.import_genoq():
        return 2
    import workloads

    Path(work).mkdir(parents=True)
    plan = workloads.WORKLOADS[workload](int(seed), Path(work), run.cache_bytes(2) or 1)
    run.warm_up(plan)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
