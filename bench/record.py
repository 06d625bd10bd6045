"""Record the outcomes the benchmark's output check expects.

Run from the repository root:

    python3 bench/record.py --workload moons_gop

It runs every entry of the workload's input pool exactly as run.py would,
untimed, and stores under the entry's number in bench/expected.json its
fingerprint (layer widths, chosen op sets, params, flops, final loss and
accuracy of every split) and the sha256 of its report.  A sample of run.py
whose outcome differs from the recorded one counts as failed.  Record again
only when a change to gopnet is meant to change what it learns.
"""

import argparse
import json
import os
import sys

from run import PINNED_THREADS, add_import_paths


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    from harness import EXPECTED_PATH
    from workloads import WORKLOADS, check, digests, fingerprint

    workload = WORKLOADS[args.workload]
    recorded = {}
    for entry in range(workload.pool_size):
        dataset = workload.inputs(entry)
        net, report = workload.run(dataset)
        problems = check(workload, dataset, net, report, None)
        if problems:
            sys.exit(f"{workload.name} entry {entry}: {problems}")
        recorded[str(entry)] = dict(fingerprint(net, report),
                                    report_sha256=digests(net, report)["report"])
        print(entry, recorded[str(entry)], flush=True)
    expected = json.loads(EXPECTED_PATH.read_text())
    expected[workload.name] = recorded
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)  # before numpy is imported
    add_import_paths()
    sys.exit(main(sys.argv[1:]))
