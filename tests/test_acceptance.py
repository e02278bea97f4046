"""Acceptance suite: every advertised identity family at its full bounds.

Each criterion test runs the corresponding identity-registry entries at the
``full`` profile (the stated bounds), requires exact (zero-tolerance)
agreement, and prints one PASS/FAIL line.  The final test sweeps the whole
registry so nothing is silently left out.  The full registry runs once per
module; each criterion test reads its own identities from that run.
"""

import time

import pytest

from excedance_lab.identities import criterion_map, identity_ids, run_suite

CRITERIA = {
    1: "grammar iterates equal enumeration distributions",
    2: "recurrences equal enumeration distributions",
    3: "substitution theorems for signed and colored classes",
    4: "closed-form sign evaluations",
    5: "gamma-coefficient interpretations",
    6: "shape verdicts on the rational grid",
    7: "convolution recurrence and its specialisations",
    8: "k-Stirling ascent-plateau identities",
    9: "cycle-action bijection on every class",
    10: "seeded property tests, 1000 instances each",
}


@pytest.fixture(scope="module")
def full_results():
    return run_suite(profile="full")


def _run_criterion(number: int, full_results) -> None:
    ids = criterion_map()[number]
    results = [r for r in full_results if r.id in ids]
    assert [r.id for r in results] == ids
    failures = [r for r in results if r.status == "fail"]
    skipped = [r for r in results if r.status == "skipped"]
    status = "PASS" if not failures and not skipped else "FAIL"
    print(
        f"{status} criterion {number}: {CRITERIA[number]} "
        f"({len(results)} identities, {sum(r.elapsed for r in results):.1f}s)"
    )
    for r in failures:
        for m in r.mismatches[:5]:
            print(f"  {r.id} @ {m['context']}: lhs={m['lhs']} rhs={m['rhs']}")
    assert not failures, [r.id for r in failures]
    assert not skipped, [r.id for r in skipped]


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, full_results):
    _run_criterion(number, full_results)


def test_full_registry_green(full_results):
    results = full_results
    bad = [r for r in results if r.status != "pass"]
    print(
        f"{'PASS' if not bad else 'FAIL'} full registry: "
        f"{len(results)} identities, {sum(r.elapsed for r in results):.1f}s"
    )
    assert not bad, [(r.id, r.status, r.mismatches[:2]) for r in bad]
    assert set(r.id for r in results) == set(identity_ids())


def test_quick_profile_wall_time():
    start = time.monotonic()
    results = run_suite(profile="quick")
    elapsed = time.monotonic() - start
    print(f"PASS quick profile wall time: {elapsed:.1f}s for {len(results)} identities")
    assert all(r.status == "pass" for r in results)
    assert elapsed < 60
