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

The reinsertion rule lives in one kernel, ``_reinserted``, which acts on a
cycle tuple and writes the image's one-line word directly: moving x changes
the images of three letters only.  ``act`` is a thin wrapper over it.  The
bijection check takes its cells (fix, exc, cyc, cda) from
``permstats.enumerate_class`` and, for each source word, walks its cycles and
their ``cycle_roles`` once, calling the kernel on every double descent with no
``PermObject`` in between; membership in the target cell and injectivity
reject any image that is not a valid one-double-ascent word.

``parse_cycles`` reads cycle notation.  Its entries are bounded by the
enumeration size guard, ``permstats.guard_limit()``, so one large entry is
refused before a word of its size is built.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

from . import permstats
from .multipoly import BadInput, ParseError
from .permstats import (
    ROLE_CDA,
    ROLE_CDD,
    NotInClass,
    PermObject,
    _cycles_plain,
    cycle_roles,
)


class ValueAbsent(BadInput, ValueError):
    """The requested value does not occur in the permutation."""


class ContractViolation(AssertionError):
    """The reinsertion window guaranteed by the case analysis was missing."""


@dataclass(frozen=True)
class CycleClassified:
    """One cycle in standard form plus the role of each entry."""

    cycle: tuple[int, ...]
    roles: tuple[str, ...]


def classify(perm: PermObject) -> list[CycleClassified]:
    """Role classification of every cycle of a plain permutation."""
    if perm.kind != "plain":
        raise NotInClass("the cycle action is defined for plain permutations")
    return [CycleClassified(c, cycle_roles(c)) for c in perm.cycles()]


def cdd_values(perm: PermObject) -> list[int]:
    """All cycle double descents of the permutation, ascending."""
    return sorted(
        v
        for cc in classify(perm)
        for v, role in zip(cc.cycle, cc.roles)
        if role == ROLE_CDD
    )


def _reinserted(word: tuple[int, ...], cycle: tuple[int, ...], k: int, role: str) -> tuple[int, ...]:
    """The word of phi'_x for x = cycle[k], a cycle double ascent or double
    descent (``role``) of ``cycle``, a cycle of ``word`` in standard form.

    x leaves its place and goes in right after c_j: for a double ascent the
    smallest j > k with c_j > x > c_{j+1} (wraparound at the end), for a
    double descent the largest j < k with c_j < x < c_{j+1}.  Only the images
    of x, of its predecessor and of c_j change.
    """
    x = cycle[k]
    L = len(cycle)
    if role == ROLE_CDA:
        windows = (j for j in range(k + 1, L) if cycle[j] > x > cycle[(j + 1) % L])
    else:
        windows = (j for j in range(k - 1, -1, -1) if cycle[j] < x < cycle[j + 1])
    spot = next(windows, None)
    if spot is None:
        raise ContractViolation(f"no reinsertion window for {x} in cycle {cycle}")
    after = cycle[spot]
    image = list(word)
    image[cycle[k - 1] - 1] = word[x - 1]
    image[x - 1] = word[after - 1]
    image[after - 1] = x
    return tuple(image)


def act(perm: PermObject, x: int) -> PermObject:
    """Apply phi'_x; identity on peaks, valleys and cycle minima.  An ``x`` that
    is not an int letter of ``perm`` (``True`` is not 1) raises :class:`ValueAbsent`."""
    for cc in classify(perm):
        if type(x) is int and x in cc.cycle:
            k = cc.cycle.index(x)
            role = cc.roles[k]
            if role not in (ROLE_CDA, ROLE_CDD):
                return perm
            return PermObject("plain", perm.n, _reinserted(perm.word, cc.cycle, k, role))
    raise ValueAbsent(f"{x!r} does not occur in the permutation")


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
        for cycle in _cycles_plain(word):
            for k, role in enumerate(cycle_roles(cycle)):
                if role == ROLE_CDD:
                    image = _reinserted(word, cycle, k, role)
                    if image not in dst or image in images:
                        return False
                    images.add(image)
    return len(images) == len(dst)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> PermObject:
    """Parse a plain permutation from cycle notation like '(1,4,2)(3)'; a
    value no cycle lists is a fixed point, an entry past the guard a ParseError."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped or _CYCLE_RE.sub("", stripped):
        raise ParseError(f"bad cycle notation {text!r}")
    limit = permstats.guard_limit()
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
            if v > limit:
                raise ParseError(f"cycle entry {v} is past the size guard {limit}")
            values.add(v)
        cycles.append(entries)
    word = list(range(1, max(values) + 1))
    for cycle in cycles:
        for v, image in zip(cycle, cycle[1:] + cycle[:1]):
            word[v - 1] = image
    return PermObject("plain", len(word), tuple(word))
