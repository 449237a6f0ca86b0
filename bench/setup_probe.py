"""Time one set-up in a fresh process: importing affmv and building inputs.

    python3 bench/setup_probe.py WORKLOAD SEED SRC

run.py starts this several times and takes the median.  Before the
clock starts, only `sys`, `time` and the reference loop are loaded, so
the figure covers every import made by the library and by the building
of the inputs.
Prints the raw and the normalised seconds.
"""

import sys
import time

from clock import Clock


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    clock = Clock()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload](seed)
    raw = time.perf_counter() - t0
    print(raw, raw * clock.scale_now())


if __name__ == "__main__":
    main()
