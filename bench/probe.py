"""One cold set-up of a workload in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED [--tiny]

Set-up is starting the interpreter, importing ``symtail`` (numpy included)
and building the workload's inputs, CLI fixture files too.  ``run.py``
starts this several times, measures each child's CPU time and reports the
calibrated median as setup_s.
"""

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402  (imports symtail)

workdir = os.path.join(ROOT, "bench", "out", f"probe-{os.getpid()}")
os.makedirs(workdir)
try:
    workloads.build(sys.argv[1], int(sys.argv[2]), workdir, tiny="--tiny" in sys.argv)
finally:
    shutil.rmtree(workdir)
