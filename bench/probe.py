"""Set-up probe of the benchmark, run by ``run.py`` in a fresh interpreter.

    python3 bench/probe.py WORKLOAD

Imports huacheck.cli from this checkout and finishes the workload's warm-up
call; the parent times the whole process as set-up. Exits 1 if the warm-up
campaign does not pass.
"""

from __future__ import annotations

import sys

import harness


def main(name):
    harness.pin_threads()
    cli = harness.load_cli()
    outcome = harness.run_workload(cli.main, [list(harness.WORKLOADS[name].warmup)])
    return 0 if outcome.codes == [0] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
