import json
import multiprocessing
import re
from types import SimpleNamespace

import pytest

from excedance_lab import families, identities, permstats
from excedance_lab.cli import main
from excedance_lab.identities import (
    REGISTRY,
    BadOverride,
    Checker,
    UnknownIdentity,
    UnknownProfile,
    _eulerian_xypq,
    criterion_map,
    identity_ids,
    run_suite,
    run_verify,
)
from excedance_lab.multipoly import BadInput, Context, Poly

from oracles import plain_exc_fix_cyc


def test_registry_ids_unique_and_nonempty():
    ids = identity_ids()
    assert len(ids) == len(set(ids))
    assert len(ids) >= 40
    for ident in REGISTRY.values():
        assert ident.description
        assert ident.bounds


def test_criterion_map_covers_all_ten():
    cmap = criterion_map()
    assert set(cmap) == set(range(1, 11))
    for ids in cmap.values():
        assert ids


def test_unknown_identity():
    with pytest.raises(UnknownIdentity) as err:
        run_verify("no-such-identity")
    assert err.value.args[0] == "no-such-identity"
    assert str(err.value) == (
        "unknown identity 'no-such-identity'; known ids: " + ", ".join(identity_ids())
    )
    with pytest.raises(UnknownIdentity):
        run_suite(ids=["no-such-identity"])


def test_run_verify_reports_pass():
    res = run_verify("cor-springer", profile="quick")
    assert res.status == "pass"
    assert res.mismatches == []


def test_springer_trivial_bound():
    res = run_verify("cor-springer", overrides={"max_n": 0})
    assert res.status == "pass"


def test_size_guard_surfaces_as_skipped(monkeypatch):
    monkeypatch.setenv(permstats.ENV_GUARD, "3")
    res = run_verify("lemma7-grammar-exc", profile="quick")
    assert res.status == "skipped"
    assert "size guard" in res.detail


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_exception_in_an_identity_body_fails_that_identity(monkeypatch, capsys, jobs):
    # a wrong plain A_4(x) is not symmetric, so cor-foata-gamma's gamma_expand
    # raises inside the body; the suite still reports all of its identities
    real = identities.gen_poly

    def mutant(ctx, kind, n, *args, **kwargs):
        f = real(ctx, kind, n, *args, **kwargs)
        return f + ctx.var("x") if (kind, n) == ("plain", 4) else f

    monkeypatch.setattr(identities, "gen_poly", mutant)
    code = main(["suite", "--profile", "quick", "--format", "json", "--jobs", jobs])
    results = {r["id"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert code == 1
    assert sorted(results) == sorted(REGISTRY)
    foata = results["cor-foata-gamma"]
    assert foata["status"] == "fail"
    assert foata["detail"] == "raised NotSymmetric: not symmetric about 3/2: (1, 12, 11, 1)"
    raised = [m for m in foata["mismatches"] if m["context"] == "n=4 raised"]
    assert raised == [{
        "context": "n=4 raised", "lhs": "no exception",
        "rhs": "NotSymmetric: not symmetric about 3/2: (1, 12, 11, 1)",
        "where": raised[0]["where"],
    }]
    assert re.fullmatch(r"shape\.py:\d+ in \w+", raised[0]["where"])


def test_an_interrupt_in_an_identity_body_is_not_caught(monkeypatch):
    def interrupted(bounds, rng, ck):
        raise KeyboardInterrupt

    monkeypatch.setattr(REGISTRY["rec-anxq"], "run", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_verify("rec-anxq")


def test_thm18_report_contains_small_table(monkeypatch):
    seen = []
    real = families.one_over_k_pm_polys
    monkeypatch.setattr(
        families, "one_over_k_pm_polys", lambda ctx, n, k: seen.append(n) or real(ctx, n, k)
    )
    res = run_verify("thm18-crun", overrides={"max_n": 3})
    assert res.status == "pass"
    assert res.details["xi_plus[3]"] == "1 + 5*x"
    assert res.details["xi_plus_tables"] == "{2: '1', 3: '1 + 5*x'}"
    assert seen == [2, 3]  # one build per n feeds both notes


def test_override_narrows_bounds():
    res = run_verify("rec-anxq", overrides={"max_n": 3})
    assert res.status == "pass"
    assert res.elapsed < 5


def test_suite_subset_and_order():
    ids = ["rec-anxq", "cor-springer", "lemma7-grammar-exc"]
    results = run_suite(profile="quick", ids=ids)
    assert [r.id for r in results] == ids
    assert all(r.status == "pass" for r in results)


def test_suite_empty_filter_runs_nothing():
    assert run_suite(profile="quick", ids=[]) == []


def test_suite_parallel_matches_sequential():
    ids = ["cor-springer", "rec-anxq", "stirling-ap-onek", "thm18-crun"]
    seq = run_suite(profile="quick", ids=ids, jobs=1)
    par = run_suite(profile="quick", ids=ids, jobs=2)
    for field in ("id", "status", "checks", "details", "mismatches"):
        assert [getattr(r, field) for r in seq] == [getattr(r, field) for r in par]
    assert par[-1].details["xi_plus[3]"] == "1 + 5*x"


class _RecordingPool:
    """Stands in for a fork pool: records its size and chunk size, runs in-process."""

    def __init__(self, record, processes):
        record["processes"] = processes
        self._record = record

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable, chunksize=None):
        self._record["chunksize"] = chunksize
        return [func(item) for item in iterable]


@pytest.mark.parametrize(
    "jobs, ids, processes",
    [
        (64, ["cor-springer", "rec-anxq"], 2),
        (3, ["cor-springer", "rec-anxq", "stirling-ap-onek", "thm18-crun"], 3),
    ],
)
def test_suite_pool_is_no_larger_than_the_batch(monkeypatch, jobs, ids, processes):
    record = {}
    pool_context = SimpleNamespace(Pool=lambda n: _RecordingPool(record, n))
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: pool_context)
    results = run_suite(profile="quick", ids=ids, jobs=jobs)
    assert record == {"processes": processes, "chunksize": 1}
    assert [r.id for r in results] == ids
    assert all(r.status == "pass" for r in results)


@pytest.mark.parametrize("call", [
    lambda: run_verify("rec-anxq", profile="quik"),
    lambda: run_suite(profile="fulll", ids=["rec-anxq"]),
    lambda: run_suite(profile="fulll", ids=["rec-anxq", "cor-springer"], jobs=2),
    lambda: run_suite(profile="Full"),
])
def test_an_unknown_profile_raises_before_anything_runs(monkeypatch, call):
    def ran(*args):
        raise AssertionError("ran an identity or forked a pool")

    for ident in identity_ids():
        monkeypatch.setattr(REGISTRY[ident], "run", ran)
    monkeypatch.setattr(multiprocessing, "get_context", ran)
    with pytest.raises(UnknownProfile, match="unknown profile .* quick, full") as exc:
        call()
    assert isinstance(exc.value, BadInput) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("jobs", ["2", 2.5, 0, -3, True])
def test_a_bad_jobs_count_raises_before_anything_runs(monkeypatch, jobs):
    def ran(*args):
        raise AssertionError("ran an identity or forked a pool")

    for ident in identity_ids():
        monkeypatch.setattr(REGISTRY[ident], "run", ran)
    monkeypatch.setattr(multiprocessing, "get_context", ran)
    with pytest.raises(BadOverride, match="jobs must be an int >= 1"):
        run_suite(ids=["rec-anxq", "cor-springer"], jobs=jobs)


def test_property_identities_are_seed_stable():
    a = run_verify("prop-ring-axioms", profile="quick", seed=123)
    b = run_verify("prop-ring-axioms", profile="quick", seed=123)
    assert a.status == b.status == "pass"


SEEDED_PROPERTIES = (
    "prop-ring-axioms", "prop-leibniz", "prop-substitution", "prop-gamma-closure",
    "prop-gamma-derivative", "prop-decompose-unique",
)


def test_seeded_property_failures_are_one_mismatch(monkeypatch):
    # a wrong d/dv breaks both the product rule and the grammar Leibniz rule
    def wrong(self, var):
        return self * self.ctx.var(var)

    monkeypatch.setattr(Poly, "differentiate", wrong)
    res = run_verify("prop-leibniz", profile="quick")
    assert res.status == "fail"
    assert len(res.mismatches) == 1
    assert res.mismatches[0]["context"] == "failures"
    assert int(res.mismatches[0]["lhs"]) > 0
    assert res.details["first_failure"] == "0"

    # wrong only on polynomials of six or more terms: the first instances
    # pass, and the noted index reproduces the failure from the same seed
    monkeypatch.undo()
    right = Poly.differentiate

    def wrong_when_long(self, var):
        d = right(self, var)
        return d + 1 if len(self.terms) >= 6 else d

    monkeypatch.setattr(Poly, "differentiate", wrong_when_long)
    first = int(run_verify("prop-leibniz", profile="quick").details["first_failure"])
    assert first > 0
    before = run_verify("prop-leibniz", profile="quick", overrides={"instances": first})
    assert before.status == "pass" and "first_failure" not in before.details
    upto = run_verify("prop-leibniz", profile="quick", overrides={"instances": first + 1})
    assert upto.status == "fail" and upto.details["first_failure"] == str(first)


@pytest.mark.parametrize("ident", SEEDED_PROPERTIES)
def test_seeded_properties_note_their_instances(ident):
    res = run_verify(ident, profile="quick")
    assert res.status == "pass"
    assert res.details["instances"] == "200" and res.checks == 200
    assert "first_failure" not in res.details
    # with no instance drawn nothing was compared
    assert run_verify(ident, profile="quick", overrides={"instances": 0}).status == "vacuous"


def test_failure_shape(monkeypatch):
    # force a mismatch through an impossible bound to confirm the diff plumbing
    from excedance_lab import identities as mod

    record = mod.REGISTRY["rec-anxq"]

    def broken(bounds, rng, ck):
        from excedance_lab.multipoly import Context

        ctx = Context()
        ck.eq("forced", ctx.poly("x"), ctx.poly("x + 1"))

    monkeypatch.setattr(record, "run", broken)
    res = run_verify("rec-anxq")
    assert res.status == "fail"
    assert res.mismatches[0]["diff"] == "-1"
    obj = res.to_json_obj()
    assert obj["status"] == "fail" and obj["mismatches"]


def test_size_guard_crosses_the_fork(monkeypatch):
    # forked workers inherit the guard from the environment
    monkeypatch.setenv(permstats.ENV_GUARD, "100")
    ids = ["cor-springer", "rec-enij-prop14", "lemma-g8-grammar-colored", "sign-anx11"]
    seq = run_suite(profile="quick", ids=ids, jobs=1)
    par = run_suite(profile="quick", ids=ids, jobs=2)
    expected = ["skipped", "skipped", "pass", "pass"]
    assert [r.status for r in seq] == [r.status for r in par] == expected


def test_max_n_override_bounds_every_n(monkeypatch):
    for ident in ("rec-arnk", "dnr-wexc-formula"):
        for max_n in (0, 2):
            labels = _full_labels(monkeypatch, ident, overrides={"max_n": max_n})
            visited = {int(n) for label in labels for n in re.findall(r"\bn=(\d+)", label)}
            assert visited == set(range(max_n + 1)), (ident, max_n, labels)


def test_no_class_past_the_guard_is_enumerated(monkeypatch):
    # every read of the cached distributions must come after the size guard:
    # a spy fails on any class larger than the guard of the run
    guard = 100
    real = permstats._distribution_cached
    oversized = []

    def spy(kind, n, r, k):
        size = permstats.class_size(kind, n, r=r, k=k)
        if size > guard:
            oversized.append((kind, n, r, k, size))
        return real(kind, n, r, k)

    spy.cache_info = real.cache_info
    monkeypatch.setattr(permstats, "_distribution_cached", spy)
    monkeypatch.setenv(permstats.ENV_GUARD, str(guard))
    results = run_suite(profile="quick")
    assert oversized == []
    status = {r.id: r.status for r in results}
    assert status["cor-springer"] == "skipped"
    assert status["rec-enij-prop14"] == "skipped"


def test_eulerian_xypq_examples():
    ctx = Context()
    signed = _eulerian_xypq(
        ctx, 1, {"x": ctx.poly("x"), "y": ctx.poly("y"), "p": ctx.poly("t + s*p")}
    )
    assert signed == ctx.poly("q*(t + s*p)")
    colored = _eulerian_xypq(
        ctx, 1, {"x": ctx.poly("3*x"), "y": ctx.poly("3*y"), "p": ctx.poly("(3-1)*x + p")}
    )
    assert colored == ctx.poly("q*((3-1)*x + p)")
    # with no bindings it is the four-variable distribution of S_n
    expected = ctx.zero()
    for (e, f, c), cnt in plain_exc_fix_cyc(3).items():
        expected = expected + cnt * ctx.monomial({"x": e, "y": 3 - e - f, "p": f, "q": c})
    assert _eulerian_xypq(ctx, 3, {}) == expected


def test_substitution_sides_read_no_plain_class(monkeypatch):
    # the right-hand sides bind variables in the grammar-generated A_n(x,y,p,q)
    # and never read S_n; the signed and colored left-hand sides still enumerate
    reads = []
    real = permstats._distribution_cached

    def spy(kind, n, r, k):
        reads.append((kind, n))
        return real(kind, n, r, k)

    spy.cache_info = real.cache_info
    monkeypatch.setattr(permstats, "_distribution_cached", spy)
    ids = [
        "thm9-signed-transform", "thm12-signed-typeA", "thm22-colored-transform",
        "thm24-colored-transform", "thm26-colored-transform",
        "sign-bagno-garber", "sign-anr-typeA",
    ]
    assert [r.status for r in run_suite(profile="quick", ids=ids)] == ["pass"] * len(ids)
    assert {kind for kind, _ in reads} == {"signed", "colored"}
    reads.clear()
    # rev_max_n = 0 leaves the reversal loop one plain read: S_0
    res = run_verify("dnr-wexc-formula", profile="quick", overrides={"rev_max_n": 0})
    assert res.status == "pass"
    assert {read for read in reads if read[0] != "colored"} == {("plain", 0)}
    assert ("colored", 4) in reads


def test_every_identity_compares_something_at_quick_bounds():
    results = run_suite(profile="quick")
    assert [r.id for r in results if r.checks == 0] == []
    assert all(r.status == "pass" for r in results)


@pytest.mark.parametrize(
    "ident, max_n", [("thm18-crun", 1), ("rec-onek-decom", 0)]
)
def test_zero_comparisons_are_vacuous_not_pass(ident, max_n):
    res = run_verify(ident, overrides={"max_n": max_n})
    assert res.status == "vacuous"
    assert res.checks == 0 and res.mismatches == []
    assert res.to_json_obj()["checks"] == 0


def test_check_counts_survive_parallel_runs():
    ids = ["cor-springer", "rec-anxq"]
    seq = run_suite(profile="quick", ids=ids, jobs=1)
    par = run_suite(profile="quick", ids=ids, jobs=2)
    assert [r.checks for r in seq] == [r.checks for r in par]
    assert all(r.checks > 0 for r in par)


def test_overrides_the_identity_does_not_read_are_rejected():
    with pytest.raises(BadOverride) as exc:
        run_verify("rec-anxq", overrides={"rs": (3,)})
    assert "rs" in str(exc.value) and "max_n" in str(exc.value)
    with pytest.raises(BadOverride):
        run_verify("stat-identities", overrides={"max_n": 1})


@pytest.mark.parametrize(
    "ident, overrides",
    [
        ("rec-anxq", {"max_n": -3}),
        ("rec-arnk", {"sym_max_n": -1}),
        ("rec-anjk", {"ks": (2, 0)}),
        ("rec-arnk", {"rs": (-2,)}),
        ("rec-anxq", {"max_n": 2.5}),
        # a bool is not a bound: max_n=True ran 2 checks and passed
        ("rec-anxq", {"max_n": True}),
        ("rec-anjk", {"ks": (True,)}),
    ],
)
def test_overrides_outside_their_domain_are_rejected(ident, overrides):
    # a negative n bound used to leave nothing to compare and report vacuous
    with pytest.raises(BadOverride) as exc:
        run_verify(ident, overrides=overrides)
    assert next(iter(overrides)) in str(exc.value)


def _full_labels(monkeypatch, ident, overrides=None):
    """Run ``ident`` at quick bounds and return every comparison's full label."""
    labels = []
    for name in ("eq", "ok"):
        real = getattr(Checker, name)

        def spy(self, context, *args, _real=real):
            labels.append(self.label(context))
            return _real(self, context, *args)

        monkeypatch.setattr(Checker, name, spy)
    assert run_verify(ident, profile="quick", overrides=overrides).status == "pass"
    return labels


def test_sweep_labels_keep_their_format(monkeypatch):
    q = {ident: record.effective_bounds("quick") for ident, record in REGISTRY.items()}
    expected = {
        "rec-anxq": [f"n={n}" for n in range(q["rec-anxq"]["max_n"] + 1)],
        # this cell uses no Context
        "cor-springer": [f"n={n}" for n in range(q["cor-springer"]["max_n"] + 1)],
        "rec-onek-decom": [
            f"k={k} n={n} {part}"
            for k in q["rec-onek-decom"]["ks"]
            for n in range(1, q["rec-onek-decom"]["max_n"] + 1)
            for part in ("reassembly", "a-part", "b-part")
        ],
        "g10-grammar-colored": [
            f"r={r} n={n}"
            for r in q["g10-grammar-colored"]["rs"]
            for n in range(q["g10-grammar-colored"]["max_n"] + 1)
        ],
        "lemma-g3-grammar-signed": [
            f"n={n}" for n in range(q["lemma-g3-grammar-signed"]["max_n"] + 1)
        ],
        "thm24-colored-transform": [
            f"r={r} n={n}"
            for r in q["thm24-colored-transform"]["rs"]
            for n in range(q["thm24-colored-transform"]["max_n"] + 1)
        ],
        "rec-anjk": [
            label
            for n in range(1, q["rec-anjk"]["max_n"] + 1)
            for label in [f"n={n} symbolic"] + [
                f"n={n} k={k} {what}"
                for k in q["rec-anjk"]["ks"]
                for what in ("numeric rows", "equals k^n A_n(x,1/k)")
            ]
        ],
        # hand-written: n comes before r
        "rec-arnk": [
            f"n={n} r={r} symbolic specialisation"
            for n in range(q["rec-arnk"]["sym_max_n"] + 1)
            for r in q["rec-arnk"]["rs"]
        ] + [
            f"n={n} r={r} enumeration"
            for r in q["rec-arnk"]["rs"]
            for n in range(q["rec-arnk"]["max_n"] + 1)
        ],
    }
    for ident, labels in expected.items():
        assert _full_labels(monkeypatch, ident) == labels, ident


def test_a_shared_weighting_reaches_both_members_of_its_pair(monkeypatch):
    # g12 and thm24 read one colored weighting: one wrong entry fails both,
    # and no other identity reads it
    monkeypatch.setitem(identities.COLORED_B, "single", "t")
    results = run_suite(profile="quick")
    assert [r.id for r in results if r.status != "pass"] == [
        "g12-grammar-colored", "thm24-colored-transform",
    ]


def test_sweep_mismatch_names_its_cell(monkeypatch):
    monkeypatch.setattr(identities, "q_eulerian", lambda ctx, n: ctx.var("x"))
    res = run_verify("rec-anxq")
    assert res.status == "fail"
    assert res.mismatches[0]["context"] == "n=0"


# check count of every identity at profile quick (default seed and guard), each
# a pass: a refactor that drops a comparison or an identity changes this table
QUICK_CHECKS = {
    "lemma7-grammar-exc": 6, "lemma8-grammar-onek": 18, "change-of-grammar": 12,
    "lemma-g3-grammar-signed": 5, "lemma-g8-grammar-colored": 8, "g10-grammar-colored": 8,
    "g12-grammar-colored": 8, "g14-grammar-colored": 8, "rec-anxq": 7, "rec-anjk": 42,
    "rec-enij-prop14": 34, "rec-arnk": 24, "rec-bnxq": 12, "thm18-crun": 25,
    "rec-onek-decom": 54, "rec-alpha-decom": 54, "thm9-signed-transform": 5,
    "thm12-signed-typeA": 5, "thm22-colored-transform": 8, "thm24-colored-transform": 8,
    "thm26-colored-transform": 8, "sign-anx11": 6, "sign-anx12": 6,
    "sign-gamma-binomials": 15, "sign-dnb-fexc": 5, "sign-bagno-garber": 16,
    "sign-anr-typeA": 16, "cor-foata-gamma": 12, "cor-zeng-dnxq": 6, "cor-petersen-lpk": 6,
    "cor-springer": 7, "cor-lpk-nocda": 7, "shape-anpq-grid": 300,
    "shape-onek-bigamma": 54, "shape-dnb-altinc": 10, "shape-bnq-spiral": 30,
    "shape-dfexc-gamma": 25, "thm11-phi-recurrence": 3, "cor-four-specializations": 16,
    "stirling-ap-onek": 48, "fs-bijection": 12, "prop-ring-axioms": 200, "prop-leibniz": 200,
    "prop-substitution": 200, "prop-gamma-closure": 200, "prop-gamma-derivative": 200,
    "prop-decompose-unique": 200, "equidist-des-exc-drop": 14, "equidist-desb-wexc": 6,
    "stat-identities": 1, "dnr-wexc-formula": 17, "mongelli-signed": 10,
}


def test_quick_suite_keeps_its_recorded_checks(monkeypatch):
    monkeypatch.delenv(permstats.ENV_GUARD, raising=False)
    results = run_suite(profile="quick")
    assert {r.id: r.checks for r in results} == QUICK_CHECKS
    assert [r.id for r in results if r.status != "pass"] == []
