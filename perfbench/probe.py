"""Set-up probe: build one workload's inputs in a fresh interpreter, then
print "ready". ``run.py`` times it from process start to that line.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

import workloads

workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
