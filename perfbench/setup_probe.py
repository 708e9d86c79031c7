"""One fresh-process set-up: start, import distill_lab, run the warm-up operation.

    python3 perfbench/setup_probe.py WORKLOAD SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process; the probe prints the seconds from then until its warm-up
operation has finished.  Linux's monotonic clock is shared by all
processes, so the interval covers interpreter start-up.
"""

import sys
import time

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads

    name, spawned_at = sys.argv[1], float(sys.argv[2])
    workloads.warm_up(workloads.WORKLOADS[name])
    print(repr(time.monotonic() - spawned_at), flush=True)
