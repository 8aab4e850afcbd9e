"""One set-up, timed from outside by `run.py` to give `setup_s`.

Runs the python reference kernel, then imports selfcal from `src/`,
builds the workload's inputs and topology and runs its untimed warm-up
unit, notes CLOCK_MONOTONIC in nanoseconds, runs the kernel again, and
prints the time and both kernel durations in seconds.
"""

import argparse
import time

from run import WORKLOADS, ReferenceKernel, import_library

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=WORKLOADS)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--small", action="store_true")
args = parser.parse_args()
kernel = ReferenceKernel("python")
first = kernel()
import_library()
import workloads  # noqa: E402

workloads.make(args.workload, small=args.small).setup(args.seed)
end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
print(end, first, kernel())
