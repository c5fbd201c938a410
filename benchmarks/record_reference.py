"""Record the output digests that the gate benchmark compares against.

Usage (from the repository root)::

    python3 benchmarks/record_reference.py

Runs every deterministic gate once as a CLI child and writes the sha256
of its output to ``benchmarks/reference.json``.  Record only from a commit
whose outputs are known to be right: the benchmark treats any later
difference as a failure.  A gate that names an already recorded reference
(the ``--jobs 2`` queries reuse the ``--jobs 1`` digest) is not recorded
again.
"""

from __future__ import annotations

import json
import sys

from gates import REFERENCE_PATH, WORKLOADS, check_output, digest, workload_gates
from run import run_child


def main() -> int:
    reference: dict[str, str] = {}
    for workload in WORKLOADS:
        for gate in workload_gates(workload, seed=0):
            if gate.ref is None or gate.ref in reference:
                continue
            code, out, err, wall, _, _ = run_child(
                [sys.executable, "-m", "cherrymax.cli", *gate.argv], gate.stdin, 600.0
            )
            if code != 0:
                print(f"{gate.name}: exit {code}\n{err.decode(errors='replace')}", file=sys.stderr)
                return 1
            reference[gate.ref] = digest(gate.kind, out)
            problem = check_output(gate, out, reference)
            if problem:
                print(f"{gate.name}: {problem}", file=sys.stderr)
                return 1
            print(f"{gate.ref}: {len(out)} bytes in {wall:.2f} s")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
