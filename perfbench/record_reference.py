"""Record the outputs the benchmark checks against, for seeds 0-19.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: per workload and seed, the first
REFERENCE_STEPS training losses, the output checksum of each 640x640 forward,
and map50/map5095/precision/recall of the annotation set. Re-record only when
a change is meant to alter these numbers, and say so in the change.
"""

import json

import run

SEEDS = range(20)


def main() -> None:
    run.pin_blas()
    run.import_package()
    from workloads import REFERENCE, WORKLOADS

    recorded = {}
    for name, cls in WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            workload = cls(seed, {})
            workload.setup()
            recorded[name][str(seed)] = workload.observed()
            print(name, seed, recorded[name][str(seed)], flush=True)
            del workload
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
