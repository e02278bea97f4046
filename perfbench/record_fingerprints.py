"""Record the fingerprints of outputs that have no independent route.

Usage (from the repository root, on the commit whose outputs are the
reference): python3 perfbench/record_fingerprints.py

Runs every enum query in each pool and the algebra families, at the full
and the tiny sizes of ``run.py``, and writes ``fingerprints.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tasks  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    ck = tasks.Checks(recording=True)
    tr = Tracer("record")
    for tiny in (False, True):
        for kind, n, r, k in run.CLASSES[tiny]:
            spec = {"kind": kind, "n": n, "r": r, "k": k,
                    "query_indices": list(range(len(tasks.QUERY_POOLS[kind])))}
            tasks.enum_class(spec, tr, False, ck)
        tasks.algebra({"seed": 0, **run.ALGEBRA_SIZES[tiny]}, tr, False, ck)
    failed = [name for name, ok in ck.results if not ok]
    if failed:
        print("checks failed while recording:", *failed, sep="\n  ", file=sys.stderr)
        return 1
    tasks.FINGERPRINTS.write_text(json.dumps(ck.recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ck.recorded)} fingerprints to {tasks.FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
