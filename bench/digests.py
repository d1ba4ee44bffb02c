"""Write digests.json: the output digest of every workload on every input set.

    python3 bench/digests.py [--workload NAME ...]

Runs one untimed pass of each workload on each of the ``INPUT_SETS`` input
sets (one pass for ``sweep-family``, whose output ignores the seed) and
stores the sha256 of its outputs.  ``run.py`` marks a run incorrect when its
digest differs from the stored one, so rerun this only for a change that is
meant to alter emitted bytes.  A pass that fails an output check stops it.
Takes about ten minutes for all four workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

PATH = os.path.join(run.BENCH, "digests.json")
SEED_FREE = {"sweep-family"}


def main() -> int:
    run.import_symtail()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    names = parser.parse_args().workload or workloads.NAMES
    table = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    cache = run._binomial_cache()
    workdir = os.path.join(run.OUT, f"digests-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            digests = []
            for seed in range(1 if name in SEED_FREE else workloads.INPUT_SETS):
                result = run.run_pass(workloads.build(name, seed, workdir), cache)
                if result.failed:
                    print(f"{name} seed {seed}: {result.failed} failed items", file=sys.stderr)
                    return 1
                digests.append(result.digest)
            table[name] = digests
            print(f"{name}: {len(digests)} digests")
    finally:
        shutil.rmtree(workdir)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({name: table[name] for name in workloads.NAMES if name in table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
