"""Record the reference outputs the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the response digest of each cold-built
input and, for each (input, scheme) of the warm sweep, DR and pruned DR.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import benchlib
import cold_build
import inputs
import warm_diagnose


def main() -> int:
    sys.path.insert(0, str(inputs.SRC))
    config = inputs.experiment_config(inputs.DEFAULT_SEED)
    ledger = benchlib.Ledger()
    digests: dict = {}
    cold_build.verify(cold_build.build_cycle(config), ledger, digests)
    drs: dict = {}
    workloads = warm_diagnose.load_workloads(config)
    warm_diagnose.verify(warm_diagnose.sweep(workloads, config), ledger, drs)
    if ledger.failed:
        print(f"not recorded: {ledger.to_dict()}", file=sys.stderr)
        return 1
    reference = {"seed": inputs.DEFAULT_SEED, "faults": inputs.FAULTS,
                 "cold_build": digests, warm_diagnose.NAME: drs}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
