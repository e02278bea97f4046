import itertools

import pytest

from excedance_lab import fsaction, identities
from excedance_lab.fsaction import (
    ValueAbsent,
    act,
    cdd_values,
    classify,
    parse_cycles,
    verify_bijection,
    verify_bijection_all,
)
from excedance_lab.multipoly import ParseError
from excedance_lab.permstats import NotInClass, PermObject, base_stats
from oracles import foata_strehl_image


def perm_of(text):
    return parse_cycles(text)


def test_classify_three_cycle():
    roles = classify(perm_of("(1,4,2)(3)"))
    by_first = {cc.cycle[0]: cc for cc in roles}
    cc = by_first[1]
    assert cc.cycle == (1, 4, 2)
    assert cc.roles == ("first", "cpk", "cdd")
    assert by_first[3].roles == ("first",)


def test_classify_partitions_positions():
    for text in ("(1,3,2)", "(1,2,5,3)(4)", "(1,10,6,5,7,3,2,8)(4,9)"):
        for cc in classify(perm_of(text)):
            assert cc.roles[0] == "first"
            assert all(r in ("cda", "cdd", "cpk", "cval") for r in cc.roles[1:])


def test_worked_example():
    pi = perm_of("(1,10,6,5,7,3,2,8)(4,9)")
    assert cdd_values(pi) == [3, 6]
    assert act(pi, 3).cycle_string() == "(1,3,10,6,5,7,2,8)(4,9)"
    assert act(pi, 6).cycle_string() == "(1,6,10,5,7,3,2,8)(4,9)"
    base = base_stats("plain", pi.word)
    # (fix, cda, exc, cyc) of the source and of both images
    assert (base[2], base[7], base[0], base[3]) == (0, 0, 4, 2)
    for x in (3, 6):
        st = base_stats("plain", act(pi, x).word)
        assert (st[2], st[7], st[0], st[3]) == (0, 1, 5, 2)


def test_act_fixes_peaks_and_valleys():
    pi = perm_of("(1,4,2)(3)")
    assert act(pi, 4) == pi  # cycle peak
    assert act(pi, 1) == pi  # cycle minimum
    assert act(pi, 3) == pi  # fixed point
    pi2 = perm_of("(1,3,2,5)")
    cc = classify(pi2)[0]
    assert dict(zip(cc.cycle, cc.roles))[2] == "cval"
    assert act(pi2, 2) == pi2


def test_act_value_absent():
    with pytest.raises(ValueAbsent):
        act(perm_of("(1,2)"), 5)


def test_act_is_an_involution_on_movable_values():
    pi = perm_of("(1,10,6,5,7,3,2,8)(4,9)")
    for x in (3, 6):
        once = act(pi, x)
        assert once != pi
        assert act(once, x) == pi


def test_act_toggles_role_and_shifts_excedance():
    pi = perm_of("(1,10,6,5,7,3,2,8)(4,9)")
    for x in cdd_values(pi):
        image = act(pi, x)
        roles = {
            v: role
            for cc in classify(image)
            for v, role in zip(cc.cycle, cc.roles)
        }
        assert roles[x] == "cda"
        # the moved value is the unique cycle double ascent
        assert sum(1 for r in roles.values() if r == "cda") == 1
        before = base_stats("plain", pi.word)
        after = base_stats("plain", image.word)
        assert after[0] == before[0] + 1  # exc
        assert after[2] == before[2]  # fix
        assert after[3] == before[3]  # cyc


@pytest.mark.parametrize("n", range(1, 8))
def test_act_matches_the_definition_oracle(n):
    moved = 0
    for word in itertools.permutations(range(1, n + 1)):
        perm = PermObject("plain", n, word)
        for x in range(1, n + 1):
            expected = foata_strehl_image(word, x)
            assert act(perm, x).word == expected, (word, x)
            moved += expected != word
    # from n = 3 on some x is movable, e.g. 2 in (1,2,3) or (1,3,2)
    assert moved > 0 or n < 3


def test_a_wrong_window_fails_the_bijection_check(monkeypatch):
    right = fsaction._reinserted

    def one_late(word, cycle, k, role):
        # x sits between a and b; put it after b instead
        image = list(right(word, cycle, k, role))
        x = cycle[k]
        a, b = image.index(x) + 1, image[x - 1]
        image[a - 1], image[b - 1], image[x - 1] = b, x, image[b - 1]
        return tuple(image)

    assert verify_bijection_all(5)
    monkeypatch.setattr(fsaction, "_reinserted", one_late)
    assert not verify_bijection_all(5)
    res = identities.run_verify("fs-bijection", profile="quick")
    assert res.status == "fail"
    assert any(m["context"].endswith("all cells") for m in res.mismatches)


def test_verify_bijection_examples():
    count1, count2, ok = verify_bijection(3, 1, 0, 2)
    assert ok and count2 == (3 - 1 - 0) * count1
    count1, count2, ok = verify_bijection(5, 1, 1, 2)
    assert ok and count1 > 0 and count2 == (5 - 1 - 2) * count1
    # cells with no room for double descents map to empty cells
    for n in (2, 4):
        for i in range(n + 1):
            j = (n - i) // 2
            if n - i - 2 * j == 0:
                _, count2, ok = verify_bijection(n, i, j, 1)
                assert ok and count2 == 0


def test_verify_bijection_all_small():
    for n in range(1, 7):
        assert verify_bijection_all(n)


def test_parse_cycles():
    assert parse_cycles("(1,4,2)(3)").word == (4, 1, 3, 2)
    assert parse_cycles("(2,3)").word == (1, 3, 2)  # missing values become fixed points
    with pytest.raises(ParseError):
        parse_cycles("(1,2")
    with pytest.raises(ParseError):
        parse_cycles("(1,1)")
    with pytest.raises(ParseError):
        parse_cycles("()")


def test_parse_cycles_refuses_an_entry_past_the_size_guard(monkeypatch):
    monkeypatch.setenv("EXCEDANCE_LAB_MAX_CLASS", "10")
    assert parse_cycles("(1,10)").word == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(ParseError, match="size guard 10"):
        parse_cycles("(2)(11)")


def test_classify_requires_plain():
    with pytest.raises(ValueError) as exc:
        classify(PermObject("signed", 1, (-1,)))
    assert isinstance(exc.value, NotInClass)
