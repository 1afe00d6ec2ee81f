"""Record the exact-result digests that the benchmark checks against.

    python3 bench/record_digests.py

Runs every exact op the benchmark can draw (the whole grid, every pooled
``nu = 5`` free constant and every pooled ``delta`` on every cell, the
``nu = 8`` pencils), requires every verdict to be the expected one, and
writes a SHA-256 prefix of each op's exact results to ``digests.json``.
Record only from a commit whose
exact results are trusted; the benchmark then fails any later commit that
changes a single characteristic polynomial, root list or counterexample.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    nu5_cells = [(mu, n) for nu, mu, n in workloads.grid_cells() if nu == 5]
    ops = workloads.integrality_ops({cell: workloads.NU5_EXTRA_POOL for cell in nu5_cells})
    ops += workloads.refutation_ops(
        {cell: workloads.DELTA_POOL for cell in workloads.grid_cells()}
    )
    outcomes = [op.run() for op in ops]
    wrong = [op.digest_key for op, out in zip(ops, outcomes) if not out.ok]
    if wrong:
        print("unexpected verdicts:", *wrong, sep="\n  ", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    digests = {
        op.digest_key: workloads.record_digest(out.record) for op, out in zip(ops, outcomes)
    }
    payload = {"recorded_at": commit or "unknown", "ops": dict(sorted(digests.items()))}
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0)
        fh.write("\n")
    print(f"{len(digests)} op digests -> {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
