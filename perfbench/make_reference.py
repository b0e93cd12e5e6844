"""Write perfbench/reference.json: one untraced pass of every workload at
the reference seed, kept as the parsed output columns of each command (in
workload order) and a digest per workload.  Run from the repository root:

    python3 perfbench/make_reference.py

The reference pins the behaviour of the commit it was made on; remake it
only in a change that redefines the benchmark.
"""

import json
import sys

import run

from workloads import WORKLOADS, command_lines


def main() -> int:
    cli = run.import_package()
    import check

    reference = {"seed": check.REFERENCE_SEED, "digest": {}, "commands": {}}
    for workload in WORKLOADS:
        lines = command_lines(workload, check.REFERENCE_SEED)
        results = run.run_pass(cli.main, lines)
        for (cmd, argv), (rc, *_rest) in zip(lines, results):
            if rc != 0:
                raise SystemExit(f"error: {' '.join(argv)} exited with {rc}")
        reference["commands"][workload] = [check.reference_entry(cmd, r[1]) for (cmd, _), r in zip(lines, results)]
        reference["digest"][workload] = check.digest([(cmd.key, r[1]) for (cmd, _), r in zip(lines, results)])
        print(f"{workload}: {reference['digest'][workload]}")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
