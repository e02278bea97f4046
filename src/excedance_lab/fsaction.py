"""The modified Foata-Strehl action on cycles of plain permutations.

Cycles are taken in standard form (minimum first).  With the wraparound
sentinel c_{len+1} = c_1, every non-first entry of a cycle is exactly one of:

    cycle double ascent   prev < cur < next
    cycle double descent  prev > cur > next
    cycle peak            prev < cur > next
    cycle valley          prev > cur < next

The action phi'_x moves a double ascent forward (to the unique later descent
window) and a double descent backward (to the unique earlier ascent window),
and fixes peaks, valleys and cycle minima.  Moving an element toggles its
role between double ascent and double descent, so phi'_x is an involution;
it preserves fixed points and cycle count and shifts the excedance number by
one in the double-descent direction.

The cardinality consequence verified here: among permutations with no cycle
double ascents, i fixed points, j excedances and k cycles, attaching one of
the n-i-2j double descents to each and acting gives a bijection onto the
corresponding single-double-ascent class with j+1 excedances.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from . import permstats
from .multipoly import ParseError
from .permstats import (
    ROLE_CDA,
    ROLE_CDD,
    ROLE_CPK,
    ROLE_CVAL,
    ROLE_FIRST,
    PermObject,
    cycle_roles,
)


class ValueAbsent(ValueError):
    """The requested value does not occur in the permutation."""


class ContractViolation(AssertionError):
    """The reinsertion window guaranteed by the case analysis was missing."""


@dataclass(frozen=True)
class CycleClassified:
    """One cycle in standard form plus the role of each entry."""

    cycle: tuple[int, ...]
    roles: tuple[str, ...]

    def role_of(self, value: int) -> str:
        return self.roles[self.cycle.index(value)]


def classify(perm: PermObject) -> list[CycleClassified]:
    """Role classification of every cycle of a plain permutation."""
    if perm.kind != "plain":
        raise ValueError("the cycle action is defined for plain permutations")
    return [CycleClassified(c, cycle_roles(c)) for c in perm.cycles()]


def cdd_values(perm: PermObject) -> list[int]:
    """All cycle double descents of the permutation, ascending."""
    return sorted(
        v
        for cc in classify(perm)
        for v, role in zip(cc.cycle, cc.roles)
        if role == ROLE_CDD
    )


def _perm_from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> PermObject:
    word = [0] * n
    for cyc in cycles:
        cyc = list(cyc)
        for i, v in enumerate(cyc):
            word[v - 1] = cyc[(i + 1) % len(cyc)]
    if sorted(word) != list(range(1, n + 1)):
        raise ParseError("cycles do not form a permutation")
    return PermObject("plain", n, tuple(word))


def act(perm: PermObject, x: int) -> PermObject:
    """Apply phi'_x; identity on peaks, valleys and cycle minima."""
    classified = classify(perm)
    target = next((cc for cc in classified if x in cc.cycle), None)
    if target is None:
        raise ValueAbsent(f"{x} does not occur in the permutation")
    k = target.cycle.index(x)
    role = target.roles[k]
    if role in (ROLE_FIRST, ROLE_CPK, ROLE_CVAL):
        return perm
    c = target.cycle
    L = len(c)
    if role == ROLE_CDA:
        # smallest j > k with c_j > x > c_{j+1} (wraparound at the end)
        windows = (j for j in range(k + 1, L) if c[j] > x > c[(j + 1) % L])
    else:
        # largest j < k with c_j < x < c_{j+1}
        windows = (j for j in range(k - 1, -1, -1) if c[j] < x < c[j + 1])
    spot = next(windows, None)
    if spot is None:
        raise ContractViolation(
            f"no reinsertion window for {x} in cycle {c}"
        )
    rebuilt = [v for v in c[: spot + 1] if v != x] + [x] + [
        v for v in c[spot + 1 :] if v != x
    ]
    cycles = [rebuilt if cc is target else cc.cycle for cc in classified]
    return _perm_from_cycles(perm.n, cycles)


def verify_bijection(n: int, i: int, j: int, k: int) -> tuple[int, int, bool]:
    """Counts of the no-double-ascent and one-double-ascent classes plus the
    bijection verdict  |class2| == (n - i - 2j) |class1|  with injectivity."""
    cells = _bijection_cells(n)
    count1 = len(cells[0].get((i, j, k), ()))
    count2 = len(cells[1].get((i, j + 1, k), ()))
    ok = _cell_ok(n, i, j, k, cells)
    return count1, count2, ok


def verify_bijection_all(n: int) -> bool:
    """The bijection verdict over every (i, j, k) cell at size n."""
    cells = _bijection_cells(n)
    keys = set(cells[0]) | {(i, j - 1, k) for (i, j, k) in cells[1]}
    return all(_cell_ok(n, i, j, k, cells) for (i, j, k) in keys)


def _bijection_cells(n: int):
    no_cda: dict[tuple[int, int, int], list] = defaultdict(list)
    one_cda: dict[tuple[int, int, int], set] = defaultdict(set)
    for perm, stats in permstats.enumerate_class("plain", n):
        cell = (stats["fix"], stats["exc"], stats["cyc"])
        if stats["cda"] == 0:
            no_cda[cell].append(perm.word)
        elif stats["cda"] == 1:
            one_cda[cell].add(perm.word)
    return no_cda, one_cda


def _cell_ok(n, i, j, k, cells) -> bool:
    no_cda, one_cda = cells
    src = no_cda.get((i, j, k), ())
    dst = one_cda.get((i, j + 1, k), set())
    expected = (n - i - 2 * j) * len(src)
    if len(dst) != expected:
        return False
    images = set()
    for word in src:
        perm = PermObject("plain", n, word)
        for x in cdd_values(perm):
            image = act(perm, x)
            if image.word not in dst or image.word in images:
                return False
            images.add(image.word)
    return len(images) == len(dst)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> PermObject:
    """Parse a plain permutation from cycle notation like '(1,4,2)(3)'."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped or _CYCLE_RE.sub("", stripped):
        raise ParseError(f"bad cycle notation {text!r}")
    cycles = []
    values = set()
    for body in _CYCLE_RE.findall(stripped):
        if not body:
            raise ParseError("empty cycle")
        try:
            entries = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ParseError(f"bad cycle entry in ({body})") from None
        for v in entries:
            if v < 1 or v in values:
                raise ParseError(f"bad cycle entry {v}")
            values.add(v)
        cycles.append(entries)
    n = max(values)
    if values != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - values)
        for v in missing:
            cycles.append([v])
    return _perm_from_cycles(n, cycles)
