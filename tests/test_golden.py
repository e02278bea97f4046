"""The full-profile run record is pinned.

``golden/suite_full.json`` is the output of ``suite --profile full --format
json`` with every ``elapsed`` removed.  The CLI runs in a fresh interpreter,
clear of in-process caches and monkeypatches, with the default enumeration
guard.  A change that alters a result on purpose records the file again:

    PYTHONPATH=src python -m excedance_lab.cli suite --profile full --format json

and drops each ``elapsed`` before writing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from excedance_lab.permstats import ENV_GUARD

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "suite_full.json"


def test_full_profile_matches_the_golden_record():
    env = dict(os.environ)
    env.pop(ENV_GUARD, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "excedance_lab.cli", "suite", "--profile", "full",
         "--format", "json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    for result in record["results"]:
        assert result.pop("elapsed") >= 0
    assert record == json.loads(GOLDEN.read_text())
