"""One workload's set-up in a fresh interpreter, timed from outside.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports specbound and runs the workload's build step: its patterns or
manifests and its warm-up.  run.py times the whole process for setup_s.
"""

import sys

from workloads import WORKLOADS


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    import specbound

    WORKLOADS[name]().build(specbound, seed)


if __name__ == "__main__":
    main()
