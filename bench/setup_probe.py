"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import power_forge.cli`` plus building the workload's inputs
from the seed, with the reference kernel run just before and just after,
and prints one JSON line: {"raw_s": ..., "kernel_s": ...}.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from kernel import kernel, timed_kernel  # noqa: E402  (kernel imports nothing)


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    kernel()  # first call specialises the bytecode; time the second
    before = timed_kernel()
    t0 = perf_counter()
    import power_forge.cli  # noqa: F401
    import workloads
    workloads.build(name, seed, workdir)
    raw = perf_counter() - t0
    after = timed_kernel()
    print('{"raw_s": %r, "kernel_s": %r}' % (raw, (before + after) / 2))


if __name__ == "__main__":
    main()
