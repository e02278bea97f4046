import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from excedance_lab import permstats
from excedance_lab.families import one_over_k_eulerian
from excedance_lab.identities import run_suite
from excedance_lab.multipoly import BadInput, Context
from excedance_lab.permstats import (
    ROLE_CDA,
    ROLE_CDD,
    ROLE_CPK,
    BadClassSize,
    BadGuard,
    NotInClass,
    PermObject,
    SizeExceeded,
    UnknownKind,
    UnknownStat,
    base_stats,
    class_size,
    cycle_roles,
    enumerate_class,
    gen_poly,
    marginal,
    stat_distribution,
    stirling_identities,
)

from oracles import (
    colored_flag_exc_counts,
    colored_joint,
    derangement_count,
    descent_counts,
    plain_exc_fix_cyc,
    plain_joint,
    signed_joint,
    stirling_joint,
)


BASE = {
    "plain": permstats.PLAIN_BASE,
    "signed": permstats.SIGNED_BASE,
    "colored": permstats.COLORED_BASE,
    "stirling": permstats.STIRLING_BASE,
}


@pytest.fixture
def ctx():
    return Context()


def test_class_sizes():
    assert class_size("plain", 4) == 24
    assert class_size("signed", 2) == 8
    assert class_size("colored", 3, r=3) == 162
    assert class_size("stirling", 5, k=3) == 1 * 4 * 7 * 10 * 13


@pytest.mark.parametrize(
    "kind, n, kwargs",
    [
        ("plain", -1, {}),
        ("signed", -2, {}),
        ("colored", 2, {"r": 0}),
        ("colored", -1, {"r": 2}),
        ("stirling", 2, {"k": 0}),
        # a parameter the class does not read is refused, not ignored
        ("plain", 2, {"r": 5}),
        ("signed", 2, {"k": 0}),
        ("stirling", 2, {"k": 2, "r": 2}),
        ("colored", 2, {"r": 2, "k": 3}),
        # a size that is not an int is refused, not multiplied out
        ("colored", 2, {"r": 1.5}),
        ("plain", 2.5, {}),
        ("stirling", 2, {"k": 2.0}),
        ("signed", "3", {}),
        # nor is a bool, which used to count as 0 or 1
        ("colored", 2, {"r": True}),
        ("plain", True, {}),
        ("stirling", 2, {"k": True}),
    ],
)
def test_bad_class_sizes_raise(ctx, kind, n, kwargs):
    with pytest.raises(BadClassSize):
        class_size(kind, n, **kwargs)
    with pytest.raises(BadClassSize):
        gen_poly(ctx, kind, n, {}, **kwargs)
    with pytest.raises(BadClassSize):
        list(enumerate_class(kind, n, **kwargs))
    with pytest.raises(BadClassSize):
        stat_distribution(kind, n, **kwargs)


@pytest.mark.parametrize("kind", permstats.KINDS)
def test_unknown_kind_is_refused_at_every_door(ctx, kind):
    # a misspelt kind, a kind in another case and a kind that is no string
    for bad in (kind + "x", kind.upper(), None, [kind]):
        for call in (
            lambda: class_size(bad, 3),
            lambda: gen_poly(ctx, bad, 3, {}),
            lambda: marginal(bad, 3, ()),
            lambda: stat_distribution(bad, 3),
            lambda: enumerate_class(bad, 3),
            lambda: permstats.stat_names(bad),
            lambda: PermObject(bad, 3, (1, 2, 3)),
        ):
            with pytest.raises(UnknownKind) as exc:
                call()
            assert isinstance(exc.value, ValueError) and repr(bad) in str(exc.value)


@pytest.mark.parametrize(
    "kind, n, word, kwargs, error",
    [
        # a repeated letter: the cycle walk of this word never ended
        ("plain", 2, (1, 1), {}, NotInClass),
        ("plain", 3, (1, 2), {}, NotInClass),  # too short
        ("plain", 2, (5, 1), {}, NotInClass),  # a letter past n
        ("colored", 2, ((1, 5), (2, 0)), {"r": 2}, NotInClass),  # a colour past r - 1
        ("stirling", 2, (2, 1, 1, 2), {"k": 2}, NotInClass),  # 1 between the two 2s
        ("signed", 1, (0,), {}, NotInClass),
        ("plain", 2, [2, 1], {}, NotInClass),  # a list, not a tuple
        ("plain", 2.0, (2, 1), {}, BadClassSize),
        ("plain", 2, (2.0, 1), {}, NotInClass),
        ("plain", 2, (True, 2), {}, NotInClass),
        ("signed", 2, (1, -1), {}, NotInClass),
        ("signed", 1, (-1.0,), {}, NotInClass),
        ("signed", 2, (True, -2), {}, NotInClass),
        ("stirling", 1, (1.0,), {}, NotInClass),
        ("colored", 1, ((1, 0.0),), {"r": 2}, NotInClass),
        ("colored", 2, ((2, 0), (1,)), {"r": 2}, NotInClass),
        ("colored", 2, ((2, 0), (1, -1)), {"r": 2}, NotInClass),
        ("colored", 1, ([1, 0],), {"r": 2}, NotInClass),
        ("colored", 1, (1,), {"r": 2}, NotInClass),
        ("stirling", 2, (1, 1, 2), {"k": 2}, NotInClass),
        ("stirling", 3, (1, 2, 1, 3, 3, 2), {"k": 2}, NotInClass),
        ("stirling", 2, (1, 1, 2, 2), {}, NotInClass),  # k defaults to 1
        ("plain", 2, (2, 1), {"r": 2}, BadClassSize),
        ("colored", 2, ((2, 0), (1, 0)), {"r": 0}, BadClassSize),
        ("stirling", -1, (), {"k": 2}, BadClassSize),
        ("plain", True, (1,), {}, BadClassSize),
    ],
)
def test_words_outside_the_class_are_refused(kind, n, word, kwargs, error):
    # refused at construction, so no method ever reads the word
    with pytest.raises(error) as exc:
        PermObject(kind, n, word, **kwargs)
    assert isinstance(exc.value, BadInput) and isinstance(exc.value, ValueError)


def test_words_are_refused_under_python_O():
    code = (
        "import sys\n"
        "from excedance_lab.permstats import NotInClass, PermObject\n"
        "try:\n"
        "    PermObject('plain', 2, (1, 1))\n"
        "except NotInClass:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "raised 1\n", proc.stderr


def arrangements(letters):
    """The distinct arrangements of a multiset, in lexicographic order."""
    word = sorted(letters)
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


def members(kind, n, candidates, r=1, k=1):
    member = permstats._KINDS[kind].member
    return [word for word in candidates if member(word, n, r, k)]


def test_stirling_membership_accepts_exactly_the_generated_words():
    # every arrangement of the letters, then every word of the right length
    # over a wider alphabet; the generator's order is the lexicographic one
    for n, k in itertools.product(range(5), range(1, 4)):
        letters = [v for v in range(1, n + 1) for _ in range(k)]
        generated = list(permstats._stirling_words(n, k))
        assert members("stirling", n, arrangements(letters), k=k) == generated, (n, k)
    for n, k in ((1, 3), (2, 2), (2, 3), (3, 2)):
        words = itertools.product(range(n + 2), repeat=n * k)
        assert members("stirling", n, words, k=k) == list(permstats._stirling_words(n, k))


def test_signed_membership_accepts_exactly_the_generated_words():
    for n in range(5):
        words = itertools.product(range(-n - 1, n + 2), repeat=n)
        assert members("signed", n, words) == list(permstats._signed_words(n)), n


def test_colored_membership_accepts_exactly_the_generated_words():
    # the generator's order is value-major: by the values, then the colours
    def order(word):
        return tuple(v for v, _ in word), tuple(c for _, c in word)

    for n, r in itertools.product(range(4), range(1, 4)):
        letters = list(itertools.product(range(n + 2), range(-1, r + 1)))
        accepted = members("colored", n, itertools.product(letters, repeat=n), r=r)
        generated = list(permstats._KINDS["colored"].words(n, r, 1))
        assert sorted(accepted, key=order) == generated, (n, r)


def test_the_guard_stops_at_the_first_level_past_it(ctx, monkeypatch):
    # the guard multiplies level factors until the product passes it, so
    # refusing a class costs a few levels however large n is; class_size
    # still multiplies every level
    levels = []
    row = permstats._KINDS["plain"]

    def factor(i, r, k):
        levels.append(i)
        return row.factor(i, r, k)

    monkeypatch.setitem(permstats._KINDS, "plain", row._replace(factor=factor))
    monkeypatch.setenv(permstats.ENV_GUARD, "1000")
    for call in (
        lambda: enumerate_class("plain", 2000),
        lambda: gen_poly(ctx, "plain", 2000, {"exc": "x"}),
        lambda: marginal("plain", 2000, ("exc",)),
    ):
        levels.clear()
        with pytest.raises(SizeExceeded):
            call()
        assert levels == [1, 2, 3, 4, 5, 6, 7]  # 7! = 5040 is the first past 1000
    levels.clear()
    assert class_size("plain", 30) == math.factorial(30)
    assert levels == list(range(1, 31))


def test_a_class_too_large_to_print_exceeds_the_guard():
    # 10000! has 35,660 digits, past the int-to-str limit of a message
    with pytest.raises(SizeExceeded) as exc:
        enumerate_class("plain", 10000)
    assert str(exc.value) == (
        f"the plain class of order 10000 exceeds guard {permstats.guard_limit()}"
    )


def test_cached_distribution_is_read_only(ctx):
    dist = permstats._distribution_cached("plain", 3, 1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.counts = ()
    with pytest.raises(TypeError):
        dist.full[0] = ()
    with pytest.raises(TypeError):
        dist.counts[0] = 0
    assert dist.names == permstats.stat_names("plain")
    assert len(set(dist.full)) == len(dist.full) == len(dist.counts)
    assert gen_poly(ctx, "plain", 3, {"exc": "x"}) == ctx.poly("1 + 4*x + x^2")
    assert permstats._distribution_cached.cache_info().hits >= 1


def test_plain_two_objects():
    rows = list(enumerate_class("plain", 2))
    assert len(rows) == 2
    stats = {obj.word: s for obj, s in rows}
    ident = stats[(1, 2)]
    assert (ident["exc"], ident["fix"], ident["cyc"]) == (0, 2, 2)
    swap = stats[(2, 1)]
    assert (swap["exc"], swap["fix"], swap["cyc"]) == (1, 0, 1)


def test_signed_counts_and_order():
    rows = list(enumerate_class("signed", 2))
    assert len(rows) == 8
    words = [obj.word for obj, _ in rows]
    assert words == sorted(words)  # lexicographic on the signed one-line word


def test_colored_order_uses_color_as_secondary_key():
    words = [obj.word for obj, _ in enumerate_class("colored", 2, r=2)]
    assert words == sorted(words)
    assert words[0] == ((1, 0), (2, 0))
    assert words[1] == ((1, 0), (2, 1))


def test_plain_derangements_of_order_four(ctx):
    objs = [
        obj for obj, s in enumerate_class("plain", 4) if s["fix"] == 0
    ]
    assert len(objs) == derangement_count(4) == 9
    poly = gen_poly(ctx, "plain", 4, {"exc": "x"}, where=lambda s: s["fix"] == 0)
    assert poly == ctx.poly("x + 7*x^2 + x^3")


def test_gen_poly_examples(ctx):
    assert gen_poly(ctx, "plain", 2, {"exc": "x", "fix": "p", "cyc": "q"}) == ctx.poly(
        "p^2*q^2 + q*x"
    )
    signed1 = gen_poly(
        ctx, "signed", 1,
        {"exc": "x", "aexc": "y", "single": "s", "fix": "t", "neg": "p", "cyc": "q"},
    )
    assert signed1 == ctx.poly("q*t + q*s*p")


def test_gen_poly_shared_variable_adds_exponents(ctx):
    # weighting two statistics with the same variable multiplies their powers
    lhs = gen_poly(ctx, "plain", 3, {"exc": "x", "fix": "x"})
    rhs = gen_poly(ctx, "plain", 3, {"wexc": "x"})
    assert lhs == rhs


@pytest.mark.parametrize(
    "kind, n, size",
    [("plain", 5, {}), ("signed", 4, {}), ("colored", 3, {"r": 3}), ("stirling", 4, {"k": 2})],
)
def test_gen_poly_weights_every_statistic_like_the_stream(ctx, kind, n, size):
    # every statistic, base and derived, on its own variable: the cached read
    # by index against the stream's per-object dicts, filtered and not
    names = permstats.stat_names(kind)
    weighting = {name: f"v{i}" for i, name in enumerate(names)}
    last = names[-1]

    def even_last(stats):
        return stats[last] % 2 == 0

    for where in (None, even_last):
        counts = Counter(
            tuple(stats[name] for name in names)
            for _, stats in enumerate_class(kind, n, **size)
            if where is None or where(stats)
        )
        streamed = ctx.combine(
            (count, ctx.monomial(dict(zip(weighting.values(), exps))))
            for exps, count in counts.items()
        )
        assert gen_poly(ctx, kind, n, weighting, where=where, **size) == streamed


def test_where_cannot_change_the_cache(ctx):
    weighting = {"exc": "x", "fix": "y", "crun": "z"}
    before = gen_poly(ctx, "plain", 4, weighting)

    def meddle(stats):
        stats["exc"] += 5
        stats.clear()
        return True

    assert gen_poly(ctx, "plain", 4, weighting, where=meddle) == before
    assert gen_poly(ctx, "plain", 4, weighting) == before
    # a filtered read after the meddling one sees every cell's statistics
    # intact, so the per-cell templates behind ``where`` never leak
    seen = []

    def record(stats):
        seen.append(dict(stats))
        return stats["fix"] == 0

    derangements = gen_poly(ctx, "plain", 4, weighting, where=record)
    assert derangements == gen_poly(ctx, "plain", 4, weighting, where=lambda s: s["fix"] == 0)
    assert derangements.substitute({"x": 1, "y": 1, "z": 1}) == derangement_count(4)
    dist = permstats._distribution_cached("plain", 4, 1, 1)
    base = len(permstats.PLAIN_BASE)
    assert seen == [expand("plain", 4, full[:base]) for full in dist.full]


def test_each_class_is_derived_once_per_cold_build(ctx, monkeypatch):
    derived = []
    row = permstats._KINDS["colored"]

    def spy(n, r):
        derived.append(("colored", n, r))
        return row.full(n, r)

    monkeypatch.setitem(permstats._KINDS, "colored", row._replace(full=spy))
    permstats._distribution_cached.cache_clear()
    for _ in range(3):
        gen_poly(ctx, "colored", 3, {"exc_f": "x", "fexc_r": "y"}, r=2)
        gen_poly(ctx, "colored", 3, {"cyc": "q"}, r=2, where=lambda s: s["fix"] == 0)
        marginal("colored", 3, ("aexc_A",), r=2)
        stat_distribution("colored", 3, r=2)
    assert derived == [("colored", 3, 2)]
    permstats._distribution_cached.cache_clear()
    marginal("colored", 3, ("exc_f",), r=2)
    assert derived == [("colored", 3, 2)] * 2


def _projected_by_hand(ctx, kind, n, size, weighting, where):
    # every cell of the cached distribution, read as a base tuple through
    # marginal, extended by its row's full formula, filtered on its
    # statistics dict and weighted variable by variable
    r = size.get("r", 1)
    names = permstats.stat_names(kind)
    full = permstats._KINDS[kind].full(n, r)
    terms = []
    joint: Counter = Counter()
    for base, count in marginal(kind, n, BASE[kind], **size).items():
        stats = dict(zip(names, full(base)))
        if where is not None and not where(stats):
            continue
        exponents: Counter = Counter()
        for stat, var in weighting.items():
            exponents[var] += stats[stat]
        terms.append((count, ctx.monomial(exponents)))
        joint[tuple(stats[stat] for stat in weighting)] += count
    return ctx.combine(terms), dict(joint)


@pytest.mark.parametrize(
    "kind, n, size",
    [("plain", 5, {}), ("signed", 3, {}), ("colored", 3, {"r": 3}), ("stirling", 4, {"k": 2})],
)
def test_cached_reads_equal_a_projection_by_hand(ctx, kind, n, size):
    names = permstats.stat_names(kind)
    weightings = [
        {},
        {names[-1]: "x"},
        {names[0]: "x", names[2]: "x"},  # a repeated variable adds exponents
        {name: f"v{i % 3}" for i, name in enumerate(names)},
    ]
    wheres = [None, lambda s: s[names[1]] == 0, lambda s: s[names[0]] % 2 == 1]
    for weighting in weightings:
        for where in wheres:
            poly, joint = _projected_by_hand(ctx, kind, n, size, weighting, where)
            assert gen_poly(ctx, kind, n, weighting, where=where, **size) == poly
            if where is None:
                assert marginal(kind, n, tuple(weighting), **size) == joint
    # an empty weighting counts the class, a single name keys by 1-tuples
    assert marginal(kind, n, (), **size) == {(): class_size(kind, n, **size)}
    assert all(len(key) == 1 for key in marginal(kind, n, (names[0],), **size))


def test_unknown_stat(ctx):
    with pytest.raises(UnknownStat):
        gen_poly(ctx, "plain", 3, {"nope": "x"})


def test_size_guard(ctx, monkeypatch):
    monkeypatch.setenv(permstats.ENV_GUARD, "10")
    with pytest.raises(SizeExceeded):
        gen_poly(ctx, "plain", 4, {"exc": "x"})
    with pytest.raises(SizeExceeded):
        list(enumerate_class("plain", 4))
    with pytest.raises(SizeExceeded):  # on the call, before any object is asked for
        enumerate_class("plain", 4)
    monkeypatch.setenv("EXCEDANCE_LAB_MAX_CLASS", "100")
    assert len(list(enumerate_class("plain", 4))) == 24


@pytest.mark.parametrize("value", ["abc", "-5", "0"])
def test_malformed_guard_is_rejected(ctx, monkeypatch, value):
    monkeypatch.setenv(permstats.ENV_GUARD, value)
    with pytest.raises(BadGuard) as exc:
        permstats.guard_limit()
    assert permstats.ENV_GUARD in str(exc.value) and repr(value) in str(exc.value)
    with pytest.raises(BadGuard):
        gen_poly(ctx, "plain", 3, {"exc": "x"})
    with pytest.raises(BadGuard):
        list(enumerate_class("plain", 3))


def test_equidistribution_small(ctx):
    for n in range(6):
        des = gen_poly(ctx, "plain", n, {"des": "x"})
        exc = gen_poly(ctx, "plain", n, {"exc": "x"})
        drop = gen_poly(ctx, "plain", n, {"drop": "x"})
        assert des == exc == drop
        expected = ctx.zero()
        for d, c in descent_counts(n).items():
            expected = expected + c * ctx.var("x") ** d
        assert des == expected


def test_joint_distribution_matches_oracle(ctx):
    for n in range(6):
        got = Counter()
        for _, s in enumerate_class("plain", n):
            got[(s["exc"], s["fix"], s["cyc"])] += 1
        assert got == plain_exc_fix_cyc(n)


def test_distribution_agrees_with_streaming():
    # the streaming enumerator reads the per-object kernels, the cached
    # distribution is built by insertion and Gray-code walks: two
    # implementations that share no statistics code and visit the objects in
    # different orders, so compare multisets; the definition oracles in
    # test_joint_distributions_match_definition_oracles are the reference
    for kind, kwargs, top in (
        ("plain", {}, 5),
        ("signed", {}, 4),
        ("colored", {"r": 2}, 4),
        ("colored", {"r": 3}, 3),
        ("stirling", {"k": 2}, 4),
        ("stirling", {"k": 3}, 3),
    ):
        for n in range(top + 1):
            streamed = Counter(
                tuple(sorted(s.items())) for _, s in enumerate_class(kind, n, **kwargs)
            )
            assert streamed == Counter(
                dict(stat_distribution(kind, n, **kwargs))
            )


@pytest.mark.parametrize(
    "kind, n, r, base",
    [
        ("plain", 8, 1, permstats.PLAIN_BASE),
        ("signed", 6, 1, permstats.SIGNED_BASE),
        ("colored", 5, 2, permstats.COLORED_BASE),
        ("colored", 5, 3, permstats.COLORED_BASE),
        ("colored", 4, 4, permstats.COLORED_BASE),
    ],
)
def test_cached_distribution_matches_the_stream_at_depth(kind, n, r, base):
    # past the oracles' reach, the walks behind the cache against the
    # per-object kernels behind the stream, on whole base tuples
    streamed = Counter(
        tuple(map(stats.__getitem__, base)) for _, stats in enumerate_class(kind, n, r=r)
    )
    assert streamed == Counter(marginal(kind, n, base, r=r))


def test_distribution_hook_sees_every_cold_build(monkeypatch):
    # perfbench/tracer.py and the guard spy in test_identities replace
    # permstats._distribution_cached and read the real cache's statistics
    real = permstats._distribution_cached
    real.cache_clear()
    assert real.cache_info().misses == 0
    dist = real("colored", 2, 3, 1)
    assert real.cache_info().misses == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.full = ()
    assert real("colored", 2, 3, 1) is dist
    assert real.cache_info().misses == 1 and real.cache_info().hits == 1

    # every walk runs inside a cold build, and every cold build passes the hook
    walks = []
    names = ("_plain_insertion_counts", "_signed_gray_counts", "_colored_gray_counts",
             "_stirling_insertion_counts")
    for name in names:
        walk = getattr(permstats, name)
        monkeypatch.setattr(
            permstats, name,
            lambda *args, _walk=walk, _name=name: walks.append(_name) or _walk(*args),
        )
    cold = []

    def spy(kind, n, r, k):
        misses = real.cache_info().misses
        out = real(kind, n, r, k)
        if real.cache_info().misses > misses:
            cold.append(kind)
        return out

    monkeypatch.setattr(permstats, "_distribution_cached", spy)
    real.cache_clear()
    ctx = Context()
    for kind, size in (("plain", {}), ("signed", {}), ("colored", {"r": 2}), ("stirling", {"k": 2})):
        name = permstats.stat_names(kind)[0]
        gen_poly(ctx, kind, 3, {name: "x"}, **size)
        marginal(kind, 3, (name,), **size)
        stat_distribution(kind, 3, **size)
    assert cold == ["plain", "signed", "colored", "stirling"]
    assert real.cache_info().misses == len(cold)
    assert walks == list(names)


def test_stirling_cache_reads_no_per_object_kernel(ctx, monkeypatch):
    # the block-insertion walk reads word deltas only, so the stream's words
    # and kernel stay an independent check on the cache
    def refuse(*args):
        raise AssertionError("a cold stirling build read the per-object route")

    monkeypatch.setattr(permstats, "_stirling_words", refuse)
    monkeypatch.setattr(permstats, "base_stats", refuse)
    monkeypatch.setattr(permstats, "_stirling_stats", refuse)
    permstats._distribution_cached.cache_clear()
    assert gen_poly(ctx, "stirling", 4, {"ap": "x", "lap": "y"}, k=3)
    assert sum(marginal("stirling", 3, ("first_block_constant",), k=2).values()) == 15


def test_stirling_stream_yields_before_building_the_class():
    tracemalloc.start()
    try:
        obj, stats = next(enumerate_class("stirling", 7, k=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obj.word == (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7) and stats["ap"] == 6
    assert peak < 1 << 20  # the class's 135,135 words take about 22 MiB


def test_stirling_walk_at_order_seven(ctx):
    # past the oracles' reach: the walk against the 1/k-Eulerian recurrence
    ap = gen_poly(ctx, "stirling", 7, {"ap": "x"}, k=2)
    assert ap == one_over_k_eulerian(ctx, 7, 2)
    assert sum(c.constant_term() for c in ap.coeffs_in("x")) == class_size("stirling", 7, k=2)


@pytest.mark.parametrize(
    "kind, r_or_k, top, base",
    [
        ("plain", 1, 6, permstats.PLAIN_BASE),
        ("signed", 1, 5, permstats.SIGNED_BASE),
        ("colored", 1, 4, permstats.COLORED_BASE),
        ("colored", 2, 4, permstats.COLORED_BASE),
        ("colored", 3, 4, permstats.COLORED_BASE),
        ("stirling", 1, 4, permstats.STIRLING_BASE),
        ("stirling", 2, 4, permstats.STIRLING_BASE),
        ("stirling", 3, 3, permstats.STIRLING_BASE),
        ("colored", 4, 4, permstats.COLORED_BASE),
        # new reaches are appended, so the ids of the cases above stay stable
        ("stirling", 1, 6, permstats.STIRLING_BASE),
        ("stirling", 4, 3, permstats.STIRLING_BASE),
    ],
)
def test_joint_distributions_match_definition_oracles(kind, r_or_k, top, base):
    # the second parameter is r for colored classes and k for stirling ones
    size = {"k": r_or_k} if kind == "stirling" else {"r": r_or_k}
    oracles = {
        "plain": plain_joint,
        "signed": signed_joint,
        "colored": lambda n: colored_joint(n, r_or_k),
        "stirling": lambda n: stirling_joint(n, r_or_k),
    }
    for n in range(top + 1):
        expected = oracles[kind](n)
        names = [name for name, _ in next(iter(expected))]
        assert sorted(names) == sorted(base)

        def key(stats):
            return tuple((name, stats[name]) for name in names)

        cached: Counter = Counter()
        for items, count in stat_distribution(kind, n, **size).items():
            cached[key(dict(items))] += count
        streamed = Counter(key(s) for _, s in enumerate_class(kind, n, **size))
        assert cached == expected, (kind, n, size)
        assert streamed == expected, (kind, n, size)


def test_marginal_projects_the_joint_distribution():
    for kind, kwargs, names in (
        ("plain", {}, ("crun", "cda", "exc")),
        ("signed", {}, ("fexc", "cyc")),
        ("colored", {"r": 3}, ("exc_f",)),
        ("stirling", {"k": 2}, ("lap", "ap")),
    ):
        expected: Counter = Counter()
        for items, count in stat_distribution(kind, 4, **kwargs).items():
            stats = dict(items)
            expected[tuple(stats[s] for s in names)] += count
        assert marginal(kind, 4, names, **kwargs) == expected
    assert marginal("plain", 3, ("exc", "fix")) == {
        (0, 3): 1, (1, 1): 3, (1, 0): 1, (2, 0): 1,
    }
    assert marginal("plain", 0, ()) == {(): 1}


def test_marginal_checks_names_and_guard(monkeypatch):
    with pytest.raises(UnknownStat):
        marginal("plain", 3, ("exc", "nope"))
    with pytest.raises(UnknownStat):
        marginal("signed", 3, ("crun",))
    monkeypatch.setenv(permstats.ENV_GUARD, "23")
    with pytest.raises(SizeExceeded):
        marginal("plain", 4, ("exc",))
    with pytest.raises(BadClassSize):
        marginal("colored", 2, ("exc_f",), r=0)


def test_colored_flag_exc_matches_oracle(ctx):
    for r in (1, 2, 3):
        for n in range(4):
            poly = gen_poly(ctx, "colored", n, {"exc_f": "x"}, r=r)
            expected = ctx.zero()
            for e, c in colored_flag_exc_counts(n, r).items():
                expected = expected + c * ctx.var("x") ** e
            assert poly == expected


def test_colored_one_element_class(ctx):
    rows = list(enumerate_class("colored", 1, r=3))
    assert [obj.word_string() for obj, _ in rows] == ["1^0", "1^1", "1^2"]
    assert [s["exc_f"] for _, s in rows] == [0, 1, 1]


def expand(kind, n, base, r=1):
    # the stream's per-object expansion of a base tuple into named statistics
    return dict(zip(permstats.stat_names(kind), permstats._KINDS[kind].full(n, r)(base)))


@pytest.mark.parametrize(
    "kind, n, kwargs",
    [
        ("plain", 4, {}),
        ("signed", 3, {}),
        ("colored", 3, {"r": 2}),
        ("stirling", 3, {"k": 2}),
    ],
)
def test_stream_objects_are_frozen_value_objects(kind, n, kwargs):
    words = []
    for obj, _ in enumerate_class(kind, n, **kwargs):
        built = PermObject(kind, n, obj.word, **kwargs)
        assert type(obj) is PermObject
        assert obj == built and hash(obj) == hash(built) and repr(obj) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.word = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1
        words.append(obj.word)
    assert len(set(words)) == len(words) == class_size(kind, n, **kwargs)


def test_signed_worked_example():
    obj = PermObject("signed", 8, (2, -5, 1, 3, 4, -6, 8, 7))
    assert obj.cycle_string() == "(1,2,-5,4,3)(-6)(7,8)"
    st = expand("signed", 8, base_stats("signed", obj.word))
    assert st["exc_A"] == 2 and st["neg"] == 2 and st["fexc"] == 6


def test_signed_second_worked_example():
    word = (-3, 5, 1, -7, 2, 4, 6, 8, -9)
    st = expand("signed", 9, base_stats("signed", word))
    assert st["fix"] == 1 and st["single"] == 1
    assert st["exc"] == 3 and st["aexc"] == 4 and st["neg"] == 3
    assert PermObject("signed", 9, word).cycle_string() == "(1,-3)(2,5)(4,-7,6)(8)(-9)"


def test_colored_worked_example():
    word = ((4, 0), (1, 0), (3, 2), (5, 1), (2, 0))
    obj = PermObject("colored", 5, word, r=3)
    assert obj.cycle_string() == "(1,4,5^1,2)(3^2)"
    st = expand("colored", 5, base_stats("colored", word), r=3)
    assert st["exc_A"] == 1 and st["aexc_A"] == 3
    assert st["single"] == 1 and st["csum"] == 3 and st["cyc"] == 2


def test_cycle_peak_conventions_differ_on_two_cycles():
    st = expand("plain", 2, base_stats("plain", (2, 1)))
    assert st["cpk_sec2"] == 1  # wraparound closes 1 < 2 > 1
    assert st["cpk_inf"] == 0  # the infinity sentinel keeps 2 ascending
    assert st["crun"] == 1


def test_role_counts_match_the_classifier():
    # the plain kernel's role counts against fsaction's classifier, on every
    # permutation of order 7
    fields = tuple(map(permstats.PLAIN_BASE.index, ("cda", "cdd_sec2", "cpk_sec2", "cpk_inf")))
    for word in itertools.permutations(range(1, 8)):
        roles = [cycle_roles(cyc) for cyc in permstats._cycles_plain(word)]
        flat = [role for cyc_roles in roles for role in cyc_roles]
        cpk = flat.count(ROLE_CPK)
        last_peaks = sum(cyc_roles[-1] == ROLE_CPK for cyc_roles in roles)
        expected = (flat.count(ROLE_CDA), flat.count(ROLE_CDD), cpk, cpk - last_peaks)
        base = base_stats("plain", word)
        assert tuple(map(base.__getitem__, fields)) == expected, word


def test_crun_example():
    # cycles (1,4,2)(3,5,6)(7): alternating runs 3 + 1 + 1
    word = (4, 1, 5, 2, 6, 3, 7)
    obj = PermObject("plain", 7, word)
    assert obj.cycle_string() == "(1,4,2)(3,5,6)(7)"
    st = expand("plain", 7, base_stats("plain", word))
    assert st["crun"] == 5


def test_stirling_identities_values(ctx):
    ap, lap = stirling_identities(ctx, 2, 2)
    assert ap == ctx.poly("1 + 2*x")
    assert lap == ctx.poly("2*x + x^2")
    ap1, lap1 = stirling_identities(ctx, 1, 5)
    assert ap1 == ctx.const(1)
    assert lap1 == ctx.var("x")
    ap3, _ = stirling_identities(ctx, 3, 2)
    assert ap3 == ctx.poly("1 + 10*x + 4*x^2")


def test_stirling_words_are_valid_and_sorted():
    words = [obj.word for obj, _ in enumerate_class("stirling", 3, k=2)]
    assert words == sorted(words)
    assert len(words) == class_size("stirling", 3, k=2) == 15
    for word in words:
        for v in set(word):
            first, last = word.index(v), len(word) - 1 - word[::-1].index(v)
            assert all(word[i] >= v for i in range(first, last + 1))

    # the lazy generator against the sorted list of every word, built by block insertion
    def sorted_by_insertion(n, k):
        words = [()]
        for m in range(1, n + 1):
            words = [w[:pos] + (m,) * k + w[pos:] for w in words for pos in range(len(w) + 1)]
        return sorted(words)

    for n, k in itertools.product(range(6), range(1, 5)):
        assert list(permstats._stirling_words(n, k)) == sorted_by_insertion(n, k), (n, k)


def test_plain_derived_stats(ctx):
    for _, s in enumerate_class("plain", 5):
        assert s["exc"] + s["drop"] + s["fix"] == 5
        assert s["wexc"] == s["exc"] + s["fix"]
        assert s["rlen"] == 5 - s["cyc"]
        assert s["crun"] == 2 * s["cpk_inf"] + s["cyc"]
        assert 1 <= s["crun"] <= 5


def test_signed_partition_of_positions():
    for _, s in enumerate_class("signed", 3):
        assert s["exc"] + s["aexc"] + s["fix"] + s["single"] == 3
        assert s["wexc"] == s["exc"] + s["fix"]
        assert s["fexc"] == 2 * s["exc_A"] + s["neg"]


def test_colored_partitions():
    for r in (1, 2, 3):
        for _, s in enumerate_class("colored", 3, r=r):
            assert s["exc_f"] == s["exc_B"] + s["single"]
            assert s["exc_f"] + s["aexc_f"] + s["fix"] == 3
            assert s["exc_A"] + s["aexc_A"] + s["fix"] + s["single"] == 3
            assert s["fexc_r"] == r * s["exc_A"] + s["csum"]


def test_empty_classes(ctx):
    for kind, kwargs in (
        ("plain", {}),
        ("signed", {}),
        ("colored", {"r": 2}),
        ("stirling", {"k": 2}),
    ):
        rows = list(enumerate_class(kind, 0, **kwargs))
        assert len(rows) == 1
        assert gen_poly(ctx, kind, 0, {}, **kwargs) == ctx.const(1)


# -- the checked kernel refuses words outside their class ----------------------

KERNEL_REFUSALS = {
    # repeated letters (their orbit walk never ended), then letters out of range
    "plain": [(1, 1), (2, 3, 2), (0, 1), (1, 3), (2, -1)],
    "signed": [(1, -1), (-2, 2, 1), (0,), (-3, 1), (1, 2.5)],
    "colored": [((1, 0), (1, 1)), ((2, 0), (2, 1)), ((0, 1),), ((3, 0), (1, 0))],
    # with k = 2: a 1 between the two 2s, a letter with one copy, a repeated letter
    "stirling": [(2, 1, 1, 2), (1, 2), (1, 1, 1, 1)],
}
KERNEL_KWARGS = {"stirling": {"k": 2}}


def run_python(code, *flags, timeout=60):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("kind", sorted(KERNEL_REFUSALS))
def test_kernels_refuse_words_outside_their_class(kind):
    # in a child process with a memory cap and a timeout, so a kernel that
    # hangs on a word fails this test instead of stalling the run
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from excedance_lab import permstats\n"
        f"for word in {KERNEL_REFUSALS[kind]!r}:\n"
        "    try:\n"
        f"        permstats.base_stats({kind!r}, word, **{KERNEL_KWARGS.get(kind, {})!r})\n"
        "    except permstats.NotInClass as exc:\n"
        "        print(isinstance(exc, permstats.BadInput))\n"
    )
    proc = run_python(code)
    assert proc.stdout == "True\n" * len(KERNEL_REFUSALS[kind]), proc.stderr


@pytest.mark.parametrize("word, k", [((1, 2, 1), 2), ((1,), 0), ((1,), -1), ((1,), True), ((1, 1), 2.0)])
def test_the_stirling_kernel_refuses_a_bad_k(word, k):
    # k = 0 raised an untyped IndexError, a length that is no multiple of k gave (0, 0, 0)
    with pytest.raises(BadClassSize):
        permstats.base_stats("stirling", word, k=k)


@pytest.mark.parametrize("kind, n, size", [
    ("plain", 4, {}), ("signed", 3, {}), ("colored", 3, {"r": 2}), ("stirling", 3, {"k": 2}),
    # past _PLAIN_TAIL: the prefix fold and the depth-first walk below it against the fold
    ("plain", 7, {}),
])
def test_base_stats_agrees_with_the_stream(kind, n, size):
    names = permstats.stat_names(kind)
    for obj, stats in enumerate_class(kind, n, **size):
        base = base_stats(kind, obj.word, k=size.get("k", 1))
        assert base == tuple(stats[name] for name in names[: len(base)])


@pytest.mark.parametrize("kind, n, size", [
    ("plain", 7, {}), ("signed", 4, {}), ("colored", 3, {"r": 3}), ("stirling", 4, {"k": 2}),
])
def test_each_streamed_dict_is_fresh(kind, n, size):
    # every object's dict is a copy of its cell's: a caller that changes one
    # changes no later object's
    count = 0
    for obj, stats in enumerate_class(kind, n, **size):
        base = base_stats(kind, obj.word, k=size.get("k", 1))
        assert stats == expand(kind, n, base, size.get("r", 1)), obj.word
        for name in stats:
            stats[name] = -1
        stats["extra"] = 0
        count += 1
    assert count == class_size(kind, n, **size)


def test_plain_stream_words_are_in_lexicographic_order():
    for n in range(9):
        words = [obj.word for obj, _ in enumerate_class("plain", n)]
        assert words == list(itertools.permutations(range(1, n + 1))), n


def test_plain_stream_yields_after_one_batch(monkeypatch):
    # the first pair of S_10 (3,628,800 objects) comes after one prefix's
    # batch of at most _PLAIN_TAIL! keys
    real = permstats._plain_steps
    leaves = []

    def counted(n):
        step, undo = real(n)

        def counting(i, v):
            if i == n:
                leaves.append(v)
            return step(i, v)

        return counting, undo

    monkeypatch.setattr(permstats, "_plain_steps", counted)
    tracemalloc.start()
    try:
        obj, stats = next(enumerate_class("plain", 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obj.word == tuple(range(1, 11)) and stats["fix"] == stats["cyc"] == 10
    assert 0 < len(leaves) <= math.factorial(permstats._PLAIN_TAIL)
    assert peak < 1 << 20


# -- sharded cold builds ---------------------------------------------------------

SHARDED_CLASSES = [
    *(("plain", n, 1, 1) for n in range(8)),
    *(("signed", n, 1, 1) for n in range(7)),
    *(("colored", n, r, 1) for r in (2, 3) for n in range(6)),
    *(("stirling", n, 1, k) for k in (2, 3) for n in range(6)),
]


def sharded_against_serial(shards):
    """The classes of ``SHARDED_CLASSES`` whose record built in ``shards``
    shards differs from the serial one in its cells or their order, and the
    number of forks made; it patches and restores the module by hand, so
    that it also runs in a child under ``python -O``."""
    saved = permstats._cpus, permstats._SHARD_MIN_OBJECTS, os.fork
    forks = []

    def fork():
        forks.append(1)
        return saved[2]()

    wrong = []
    try:
        permstats._SHARD_MIN_OBJECTS = 1
        os.fork = fork
        for kind, n, r, k in SHARDED_CLASSES:
            records = []
            for cpus in (1, shards):
                permstats._cpus = lambda: cpus
                permstats._distribution_cached.cache_clear()
                records.append(permstats._distribution_cached(kind, n, r, k))
            serial, sharded = records
            if (sharded.names, sharded.full, sharded.counts) != (
                serial.names, serial.full, serial.counts
            ):
                wrong.append((kind, n, r, k))
    finally:
        permstats._cpus, permstats._SHARD_MIN_OBJECTS, os.fork = saved
        permstats._distribution_cached.cache_clear()
    return wrong, len(forks)


def expected_forks(shards):
    # every class of two objects or more is split, one child per shard past 0
    sizes = [class_size(kind, n, r=r, k=k) for kind, n, r, k in SHARDED_CLASSES]
    return sum(min(shards, size) - 1 for size in sizes if size > 1)


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_builds_equal_the_serial_build(shards):
    assert sharded_against_serial(shards) == ([], expected_forks(shards))


def test_sharded_builds_equal_the_serial_build_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path.insert(0, {tests!r})\n"
        "from test_permstats import sharded_against_serial\n"
        "print(sys.flags.optimize, sharded_against_serial(2), sharded_against_serial(3))\n"
    )
    proc = run_python(code, "-O", timeout=120)
    assert proc.stdout == f"1 ([], {expected_forks(2)}) ([], {expected_forks(3)})\n", proc.stderr


def test_the_serial_build_stays_serial(monkeypatch):
    monkeypatch.setattr(permstats, "_cpus", lambda: 1)
    monkeypatch.setattr(permstats, "_SHARD_MIN_OBJECTS", 1)
    assert permstats._shard_count(10**9) == 1
    monkeypatch.setattr(permstats, "_cpus", lambda: 8)
    assert permstats._shard_count(5) == 5 and permstats._shard_count(1) == 1
    monkeypatch.undo()
    # the enum benchmark's smallest cold build stays serial whatever the host
    assert class_size("stirling", 6, k=3) < 2 * permstats._SHARD_MIN_OBJECTS


@pytest.mark.parametrize("where", ["children", "parent"])
def test_a_failing_shard_raises_and_leaves_no_child(monkeypatch, where):
    parent = os.getpid()
    real = permstats._plain_insertion_counts

    def walk(n, shard, shards):
        if (os.getpid() == parent) == (where == "parent"):
            raise (ZeroDivisionError("walk failed") if where == "children" else KeyboardInterrupt)
        if where == "parent":
            time.sleep(60)  # still running when the parent fails: it must be killed
        return real(n, shard, shards)

    monkeypatch.setattr(permstats, "_plain_insertion_counts", walk)
    monkeypatch.setattr(permstats, "_SHARD_MIN_OBJECTS", 1)
    monkeypatch.setattr(permstats, "_cpus", lambda: 3)
    permstats._distribution_cached.cache_clear()
    start = time.monotonic()
    if where == "children":
        pattern = r"shard 1 of 3 of the plain class of order 5 .*ZeroDivisionError: walk failed"
        with pytest.raises(RuntimeError, match=pattern):
            permstats._distribution_cached("plain", 5, 1, 1)
    else:
        with pytest.raises(KeyboardInterrupt):
            permstats._distribution_cached("plain", 5, 1, 1)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert permstats._distribution_cached.cache_info().currsize == 0


def test_pool_workers_and_threaded_processes_build_serially(monkeypatch):
    parent = os.getpid()
    real_fork = os.fork
    forks = []

    def fork():
        if os.getpid() != parent:
            raise AssertionError("a run_suite worker split a cold build")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(permstats, "_SHARD_MIN_OBJECTS", 1)
    monkeypatch.setattr(permstats, "_cpus", lambda: 2)

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        permstats._distribution_cached.cache_clear()
        marginal("plain", 5, ("exc",))
    finally:
        stop.set()
        thread.join()
    assert forks == []
    permstats._distribution_cached.cache_clear()
    marginal("plain", 5, ("exc",))
    assert forks == [1]  # the same build splits once the thread is gone

    # the workers inherit the patches and an empty cache, and build there
    permstats._distribution_cached.cache_clear()
    results = run_suite(
        profile="quick", ids=["lemma7-grammar-exc", "lemma-g3-grammar-signed"], jobs=2
    )
    assert [res.status for res in results] == ["pass", "pass"]
    assert permstats._distribution_cached.cache_info().currsize == 0
