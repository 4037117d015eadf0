"""One fresh interpreter: import dynspec.cli, then run one cold job.

Usage: python3 perfbench/child.py JOB_JSON, with ``src`` on PYTHONPATH.
JOB_JSON is a Job as a JSON list [index, problem, report, argvs]. Prints
one JSON line: the monotonic clock reading right after the import (the
parent subtracts its own reading taken before the spawn), the cold job's
per-command times and exit codes, its first error line and worst error.
"""

import json
import sys
import time

import dynspec.cli

imported = time.monotonic()

import bench  # noqa: E402  (imported after the measured import on purpose)


def main() -> None:
    index, problem, report, argvs = json.loads(sys.argv[1])
    job = bench.Job(index, problem, report, tuple(tuple(a) for a in argvs))
    record = bench.run_job(dynspec.cli.main, job)
    print(json.dumps({"imported": imported, "times": record.times, "codes": record.codes,
                      "error": record.error, "max_error": record.max_error,
                      "module": dynspec.cli.__file__}))


if __name__ == "__main__":
    main()
