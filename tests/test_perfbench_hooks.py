"""perfbench's tracer still installs on the package.

The tracer (``perfbench/tracer.py``) patches library names from outside:
``gen_poly``, ``stat_distribution``, ``stirling_identities``, the
``cache_info`` of ``permstats._distribution_cached``, ``Poly`` operators and
reads ``Poly.terms``.  A change that drops one of them would pass every other
test here and fail only in a benchmark run, so this test installs the tracer
in a fresh interpreter and makes one traced call of each kind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json

import excedance_lab
import tracer

tr = tracer.Tracer("tier-1")
tracer.install(tr)
ctx = excedance_lab.Context()
with tr.root(True):
    excedance_lab.gen_poly(ctx, "plain", 4, {"exc": "x"})
    excedance_lab.stirling_identities(ctx, 3, 2)
    excedance_lab.family(ctx, "A_pq", 3)
    result = excedance_lab.run_verify("lemma7-grammar-exc", profile="quick")
    # a cold read of a class no call above builds: stat_distribution reads
    # through marginal, so the rebound _distribution_cached must see it
    before = tr.counts["permstats.objects"]
    excedance_lab.permstats.stat_distribution("signed", 3)
    signed_objects = tr.counts["permstats.objects"] - before
print(json.dumps({"status": result.status, "signed_objects": signed_objects, **tr.payload()}))
"""


def test_the_tracer_installs_and_records_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["status"] == "pass"
    assert out["signed_objects"] == 48  # B_3, built once
    counts = out["counts"]
    # the direct gen_poly, the two inside stirling_identities and the
    # identity's own reads
    assert counts["permstats.gen_poly.calls"] >= 4
    assert counts["permstats.gen_poly.cold"] >= 2
    assert counts["permstats.objects"] >= 24 + 15  # S_4 and the 2-Stirling words of order 3
    assert counts["families.build.calls"] >= 1
    assert counts["multipoly.mul.calls"] >= 1
    assert counts["identities.comparisons"] >= 1
    assert out["self_s"]["permstats.cold"] > 0 and out["root_s"] > 0
