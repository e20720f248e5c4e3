"""Write fh_digests.json: the normalised f_H digest of every fibration_g4 pool sample.

Run from the repository root: ``python3 bench/make_digests.py``.  The stored
digests are the reference the fibration_g4 workload checks each job against,
so regenerate them only when the mathematics of f_H is meant to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qplab  # noqa: E402
from workloads import DIGEST_FILE, FibrationG4, normalized_fh_digest  # noqa: E402


def main():
    p = qplab.canonical_pencil(FibrationG4.g)
    digests = []
    for index in range(FibrationG4.POOL_SIZE):
        x, xi = qplab.sample_pair(p, FibrationG4.POOL_SEED, index=index)
        digests.append(normalized_fh_digest(qplab.f_H(x, xi)))
        print(index, digests[-1], flush=True)
    payload = {
        "pencil": f"canonical_pencil({FibrationG4.g})",
        "samples": f"sample_pair(pencil, {FibrationG4.POOL_SEED}, index=i)",
        "digest": "sha256 of json.dumps([scalar_to_json(c / c0)]), first 16 hex",
        "digests": digests,
    }
    DIGEST_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
