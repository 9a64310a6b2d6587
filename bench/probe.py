"""Time one workload's set-up in a fresh interpreter.

    python3 bench/probe.py --workload NAME --seed N --rundir DIR

Runs the workload's set-up and job until its first call of ``train``,
prints CLOCK_MONOTONIC at that moment and exits.  ``run.py`` starts it
several times and takes the median as ``setup_s``.
"""

import argparse
import os
import sys
import time

import tracing
from run import WORKLOAD_NAMES, import_library


class FirstUpdate(Exception):
    pass


def stop_at_first_update(*args, **kwargs):
    raise FirstUpdate(time.clock_gettime(time.CLOCK_MONOTONIC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rundir", required=True)
    args = parser.parse_args()
    package = import_library()
    import workloads
    from mflangevin import langevin
    tracing.rebind(tracing.package_modules(package),
                   {langevin.train: stop_at_first_update})
    os.makedirs(args.rundir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.rundir)
    try:
        wl.setup()
        wl.job()
    except FirstUpdate as first:
        print(repr(first.args[0]))
        return 0
    print("the job ended without a Langevin update", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
