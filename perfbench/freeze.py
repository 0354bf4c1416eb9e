"""Freeze the reference output of every job the workloads can draw.

    python3 perfbench/freeze.py

Rewrites references.json from the checked-out sources, so run it only on a
commit whose outputs are trusted.  Every job is solved cold (no cache), and
each output must pass its own check against itself, which also holds the
count tables and conjecture totals to OEIS A000055/A000081.
"""

from __future__ import annotations

import json
import sys

import jobs as J
import run as R


def main() -> int:
    R.import_program()
    refs = {}
    for workload in J.WORKLOADS:
        for job in J.domain(workload):
            key = J.job_key(job)
            if key in refs:
                continue
            seconds, code, out = R.run_job(list(job))
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            refs[key] = json.loads(out)["result"]
            reason = J.check(job, code, out, refs[key])
            if reason:
                raise SystemExit(f"{key}: {reason}")
            print(f"{seconds:8.3f} s  {key}", flush=True)
    J.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {J.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
