"""Enumeration of permutation classes with the full battery of statistics.

Four classes are supported:

* plain      S_n, one-line words over [n]
* signed     the hyperoctahedral group: words over +-[n] with distinct
             absolute values (sigma(-i) = -sigma(i) is implicit)
* colored    r-colored permutations: words of (value, color) pairs with
             color in [0, r-1]
* stirling   k-Stirling permutations: words over {1^k, ..., n^k} where all
             entries between the two occurrences of i are >= i

Statistics follow the cycle-form conventions of the source material: cycles
are written smallest-absolute-value first and sorted by that first entry;
signed and colored cycle counts are orbit counts of i -> |sigma(i)| resp.
i -> pi_i on [n].

Two cycle-peak statistics coexist on purpose: ``cpk_sec2`` closes each cycle
with the wraparound sentinel c_{len+1} = c_1, while ``cpk_inf`` closes the
canonical cycle word with +infinity.  They differ (e.g. on a 2-cycle) and
both are needed: the wraparound version drives the cycle-classification
action, the +infinity version drives cycle runs via crun = 2*cpk_inf + cyc.

Each class has one statistics kernel, the ``kernel`` column of its row.  The
signed, colored and stirling kernels (``_signed_stats``, ``_colored_stats``,
``_stirling_stats``) read one whole word.  The plain kernel is one prefix step
(``_plain_steps``): the change in the packed base key when sigma(i) = v
extends a word whose positions 1..i-1 are placed.  ``_plain_stats`` folds it
along one word; the plain stream (``_plain_keys``, the row's ``keys`` column)
folds it along each prefix of length n - ``_PLAIN_TAIL`` and runs it
depth-first below, so the words that share a prefix share its steps.  The
streaming ``enumerate_class`` reads the kernels unchecked, since its words
come from the class's generator.  ``base_stats(kind, word, k=k)`` is the one
checked door to the kernels: it refuses a word outside its class with
``NotInClass``.  The cached joint distributions of
all four classes are built another way, by walks that derive each object's
statistics from its parent's or predecessor's by a delta: plain permutations
by cycle insertion S_{m-1} -> S_m, k-Stirling permutations by inserting the
block m^k into a word of order m - 1, signed and colored ones by fixing pi and
walking the sign or colour vectors in reflected Gray order (Knuth, TAOCP 4A
7.2.1.1).  The walks still visit every object and read only word and cycle
deltas.  The stream and the cache share no base-statistics code beyond
``_perm_part`` (the inverse and cycle count of pi, from ``_cycles_plain``, the
one orbit walk) and the key packing (``_packing``, ``_unpack``): the cache
counts a plain class by cycle insertion, the stream by prefix extension.  So
the tests that compare them, and each with the definition oracles of
``tests/oracles.py``, check each other.  ``cycle_roles`` is the one classifier
of cycle entries, read by the cycle action in ``fsaction``; the plain step
counts the same roles, and a test holds ``base_stats`` to the classifier on
all of S_7.

Enumeration order is lexicographic on the one-line word (colors as a
secondary key), so golden outputs are stable.  Aggregation goes through a
cached joint distribution per class, so repeated generating-polynomial
queries against the same class enumerate it only once.  ``marginal`` (joint
counts of statistics by name) is the only door to that cache from outside
this module; it and ``gen_poly`` share one loop that runs the size guard
before it reads, and ``stat_distribution`` reads through ``marginal``.

Each kind is one row of ``_KINDS``, and all that depends on the kind is a
column of it: the statistic names, the size factor of each level, the walk
behind the cache, the full-tuple formula, the words in lexicographic order,
the statistics kernel, the plain stream's keys, membership, the cycle form
and the letter text.  ``_kind``, the one lookup of a row, raises
``UnknownKind`` for any other kind.  The derived statistics
(``PLAIN_DERIVED``, ``SIGNED_DERIVED``, ``COLORED_DERIVED``) are one tuple
formula per class, the row's ``full`` column, which appends them to the base
tuple in ``stat_names`` order; the stream and the cache share it.
``PermObject`` checks its input through the row; the stream's objects skip
the check.  The cache derives each class once, at its cold build, into a
frozen record of the columns its reads use: the full tuples and their
counts.  A read resolves the requested names to indices once and projects
the full tuples with ``itemgetter``.  Statistics dicts exist only where a
caller reads by name: in the stream, one template per cell, built on the
cell's first object, of which each object gets a fresh copy; for a
``gen_poly`` ``where`` filter, one template per cell, built on the class's
first filtered read, of which the filter gets a fresh copy per cell.

A large cold build is split across the CPUs the process may use
(``os.sched_getaffinity``).  ``_shard_count`` gives it one shard per CPU, each
of at least ``_SHARD_MIN_OBJECTS`` objects; ``_walk_in_shards`` runs shard 0
in the process and each other one in a child made by ``os.fork``, which sends
its counts back through a pipe with ``marshal`` and leaves by ``os._exit``.
Insertion walks deal out the nodes of one level (``_split_level``), Gray-code
walks the permutations pi; every object is still visited once, by the same
deltas, and the cells are sorted by their packed keys, so the cached record
is the same for any shard count.  A build stays serial when the class is small,
without ``os.fork``, while another thread is alive, and in a
``multiprocessing`` child such as a ``run_suite(jobs>1)`` worker.

The size guard is one process-wide setting: the environment variable
``EXCEDANCE_LAB_MAX_CLASS`` (an integer >= 1; unset or empty means
``DEFAULT_MAX_CLASS``), read only by ``guard_limit``.  ``_check_guard`` runs
it before every enumeration, streamed or cached.  It multiplies the class's
level factors and stops at the first partial product past the guard, so a
refusal costs a few levels, never the whole size.  A class larger than the
guard raises ``SizeExceeded`` and a malformed value raises ``BadGuard``.
Library callers set it in ``os.environ``; forked workers inherit it.
"""

from __future__ import annotations

import itertools
import marshal
import os
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, NoReturn, Optional

from .multipoly import BadInput, Context, ParseError, Poly

DEFAULT_MAX_CLASS = 20_000_000
ENV_GUARD = "EXCEDANCE_LAB_MAX_CLASS"

# Stat-name tuples in storage order for each class's joint distribution.
PLAIN_BASE = (
    "exc", "drop", "fix", "cyc", "des", "dd", "lpk",
    "cda", "cdd_sec2", "cpk_sec2", "cpk_inf",
)
PLAIN_DERIVED = ("wexc", "crun", "rlen")
SIGNED_BASE = ("exc", "aexc", "fix", "single", "neg", "cyc", "exc_A", "des_B")
SIGNED_DERIVED = ("aexc_A", "fexc", "wexc")
COLORED_BASE = ("exc_B", "fix", "single", "csum", "cyc", "exc_A")
COLORED_DERIVED = ("exc_f", "aexc_f", "aexc_A", "fexc_r")
STIRLING_BASE = ("ap", "lap", "first_block_constant")

# Base-tuple indices read by the derived-statistics formulas, each row's ``full``.
P_EXC, P_FIX, P_CYC, P_CPK_INF = map(PLAIN_BASE.index, ("exc", "fix", "cyc", "cpk_inf"))
S_EXC, S_FIX, S_SINGLE, S_NEG, S_EXC_A = map(
    SIGNED_BASE.index, ("exc", "fix", "single", "neg", "exc_A")
)
C_EXC_B, C_FIX, C_SINGLE, C_CSUM, C_EXC_A = map(
    COLORED_BASE.index, ("exc_B", "fix", "single", "csum", "exc_A")
)


class SizeExceeded(BadInput, RuntimeError):
    """The requested class is larger than the enumeration guard; the message
    names the class, not its size, which the guard never multiplies out."""

    def __init__(self, kind: str, n: int, guard: int):
        super().__init__(f"the {kind} class of order {n} exceeds guard {guard}")
        self.guard = guard


class UnknownStat(BadInput, KeyError):
    """A weighting or filter referenced a statistic the class does not have."""


class UnknownKind(BadInput, ValueError):
    """A class kind that is not one of ``KINDS``."""


class BadClassSize(BadInput, ValueError):
    """A size parameter outside its domain: not an int, n < 0, r < 1 or k < 1,
    or r or k != 1 where unread."""


class NotInClass(BadInput, ValueError):
    """A word that is not an element of the class it is given for."""


class NoCycleForm(BadInput, ValueError):
    """A cycle form asked of a kind whose words have none (stirling)."""


class BadGuard(BadInput, ValueError):
    """The size guard variable holds something other than an integer >= 1."""


def guard_limit() -> int:
    """The enumeration size guard: ``EXCEDANCE_LAB_MAX_CLASS`` if set, else
    ``DEFAULT_MAX_CLASS``."""
    value = os.environ.get(ENV_GUARD)
    if not value:
        return DEFAULT_MAX_CLASS
    try:
        guard = int(value)
    except ValueError:
        guard = 0
    if guard < 1:
        raise BadGuard(f"{ENV_GUARD} must be an integer >= 1, got {value!r}")
    return guard


def _size(kind: str, n: int, r: int, k: int, cap: Optional[int] = None) -> int:
    """The product of the class's level factors, after the checks on its size
    parameters: the class size, or with a ``cap`` the first partial product
    past it, so a refused class never multiplies out its whole size."""
    row = _kind(kind)
    if not _ints((n, r, k)):  # a bool is not a size
        raise BadClassSize(f"n, r and k must be ints, got n={n!r}, r={r!r}, k={k!r}")
    if n < 0:
        raise BadClassSize(f"n must be nonnegative, got {n}")
    if row.param != "r" and r != 1:
        raise BadClassSize(f"{kind} classes read no r, got r={r}")
    if row.param != "k" and k != 1:
        raise BadClassSize(f"{kind} classes read no k, got k={k}")
    if r < 1 or k < 1:  # the unread one is 1 by now
        raise BadClassSize(f"{kind} classes need {row.param} >= 1, got r={r}, k={k}")
    size = 1
    for i in range(1, n + 1):
        size *= row.factor(i, r, k)
        if cap is not None and size > cap:
            break
    return size


def class_size(kind: str, n: int, *, r: int = 1, k: int = 1) -> int:
    """Number of objects in the class; BadClassSize on an impossible size."""
    return _size(kind, n, r, k)


def _check_guard(kind, n, r, k):
    guard = guard_limit()
    if _size(kind, n, r, k, guard) > guard:
        raise SizeExceeded(kind, n, guard)


# ---------------------------------------------------------------------------
# permutation objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermObject:
    """One element of a permutation class, in canonical one-line form.

    ``word`` holds ints for plain/signed/stirling and (value, color) pairs
    for colored.  Construction raises ``UnknownKind``, ``BadClassSize`` or, for
    a ``word`` that is not a tuple in the class of order n, ``NotInClass``.
    """

    kind: str
    n: int
    word: tuple
    r: int = 1
    k: int = 1

    def __post_init__(self):
        _size(self.kind, self.n, self.r, self.k, 1)
        _check_word(self.kind, self.word, self.n, self.r, self.k)

    def cycles(self) -> list[tuple[int, ...]]:
        cycles = _kind(self.kind).cycles
        if cycles is None:
            raise NoCycleForm(f"{self.kind} words have no cycle form")
        return cycles(self.word)

    def word_string(self) -> str:
        return " ".join(map(_kind(self.kind).letter, self.word))

    def cycle_string(self) -> str:
        row = _kind(self.kind)
        if row.cycles is None:
            return ""
        text = row.cycle_letter(self.word)
        return "".join("(" + ",".join(map(text, cyc)) + ")" for cyc in row.cycles(self.word))


def _check_word(kind: str, word: tuple, n: int, r: float, k: int) -> None:
    """NotInClass unless ``word`` is a tuple in the ``kind`` class of order n."""
    if not (isinstance(word, tuple) and _kind(kind).member(word, n, r, k)):
        raise NotInClass(f"{word!r} is not in the {kind} class of order {n}")


def _cycles_plain(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(word)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = word[start - 1]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = word[j - 1]
        cycles.append(tuple(cyc))
    return cycles


def _cycles_signed(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle letters follow c -> sigma(|c|); each cycle starts at its
    minimum-absolute-value letter."""
    # the orbits of |sigma| carry the letter of sigma's word with each value
    letter = {abs(v): v for v in word}
    return [
        tuple(letter[v] for v in orbit)
        for orbit in _cycles_plain(tuple(abs(v) for v in word))
    ]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


ROLE_FIRST = "first"
ROLE_CDA = "cda"
ROLE_CDD = "cdd"
ROLE_CPK = "cpk"
ROLE_CVAL = "cval"


def cycle_roles(cycle: tuple[int, ...]) -> tuple[str, ...]:
    """The role of each entry of a cycle in standard form (minimum first).

    The minimum is ``first``; with the wraparound sentinel c_{len+1} = c_1
    every other entry is a double ascent, double descent, peak or valley.
    """
    roles = [ROLE_FIRST]
    L = len(cycle)
    prev = cycle[0]
    for idx in range(1, L):
        cur = cycle[idx]
        nxt = cycle[idx + 1] if idx + 1 < L else cycle[0]
        if prev < cur:
            roles.append(ROLE_CDA if cur < nxt else ROLE_CPK)
        else:
            roles.append(ROLE_CDD if cur > nxt else ROLE_CVAL)
        prev = cur
    return tuple(roles)


# Depth of the plain stream's depth-first walk below each prefix: the stream
# holds one batch of at most _PLAIN_TAIL! packed keys at a time.
_PLAIN_TAIL = 6


def _plain_steps(n: int) -> tuple[Callable[[int, int], int], Callable[[int, int], None]]:
    """The plain kernel on a fresh empty word of order n, as one prefix step.

    ``step(i, v)`` places sigma(i) = v once positions 1..i-1 are placed and
    returns the change in the packed ``PLAIN_BASE`` key (see ``_packing``);
    ``undo(i, v)`` takes back the last step.  The step reads only what v at
    position i settles:

    * exc, drop or fix at i; des, dd and lpk at i - 1, whose right neighbour
      v now is (w[0] = 0 pads the left), and dd at n, with w[n + 1] = 0.
    * Cycle roles: with the wraparound sentinel a role reads only the entry's
      predecessor and successor (a cycle's least entry, like a fixed point,
      reads as a valley, which no statistic counts).  Entry i has its
      predecessor inv[i] < i iff i is already a value; entry v < i has its
      predecessor i and its successor w[v].
    * The partial permutation is a set of paths and closed cycles; each path
      keeps its head at head[tail], its tail at tail[head] and its least
      entry at low[head].  sigma(i) = v closes a cycle iff v heads i's path,
      and the closed cycle drops one cpk_inf if its last entry, the least
      entry's predecessor, is a peak: the +infinity sentinel after it.
    """
    _, units = _packing(len(PLAIN_BASE), n)
    EXC, DROP, FIX, CYC, DES, DD, LPK, CDA, CDD, CPK, CPKI = units
    # 1-based word and inverse (inv[v] = 0 while v is no value); w[0] and the
    # never-written w[n + 1] = w[-1] pad the word with 0
    w = [0] * (n + 2)
    inv = [0] * (n + 2)
    head = list(range(n + 2))
    tail = head[:]
    low = head[:]
    kept = [0] * (n + 2)  # kept[i]: low[head] before step i joined two paths

    def step(i: int, v: int) -> int:
        p = w[i - 1]
        d = EXC if v > i else DROP if v < i else FIX
        if p > v:
            d += DES + (DD if w[i - 2] > p else LPK)
            if i == n:
                d += DD
        if inv[i]:  # i's predecessor is placed, and smaller than i
            d += CDA if v > i else CPK + CPKI
        if v < i and w[v] < v:  # v's predecessor i is larger than v
            d += CDD
        w[i] = v
        inv[v] = i
        h = head[i]
        if v == h:  # closes the cycle h ... i
            p = inv[low[h]]
            d += CYC - (CPKI if inv[p] < p else 0)
        else:  # joins the paths h ... i and v ... t
            t = tail[v]
            head[t] = h
            tail[h] = t
            kept[i] = low[h]
            if low[v] < low[h]:
                low[h] = low[v]
        return d

    def undo(i: int, v: int) -> None:
        inv[v] = 0
        h = head[i]
        if v != h:
            t = tail[h]
            head[t] = v
            tail[h] = i
            low[h] = kept[i]

    return step, undo


def _plain_base(n: int, key: int) -> tuple[int, ...]:
    """The ``PLAIN_BASE`` tuple of a packed key of order n."""
    return _unpack([key], len(PLAIN_BASE), _packing(len(PLAIN_BASE), n)[0])[0]


def _plain_stats(word: tuple[int, ...]) -> tuple[int, ...]:
    """The plain kernel folded along one word."""
    n = len(word)
    step, _ = _plain_steps(n)
    return _plain_base(n, sum(map(step, range(1, n + 1), word)))


def _plain_keys(n: int) -> Iterator[int]:
    """The packed ``PLAIN_BASE`` keys of S_n in lexicographic word order
    (Knuth, TAOCP 4A, 7.2.1.2, Algorithm X): the kernel folded along each
    prefix of length n - ``_PLAIN_TAIL``, then run depth-first below it, each
    position taking its free values in ascending order.  One prefix's keys
    are made before the first of them is yielded."""
    split = max(0, n - _PLAIN_TAIL)
    for prefix in itertools.permutations(range(1, n + 1), split):
        step, undo = _plain_steps(n)
        key = sum(map(step, range(1, split + 1), prefix))
        keys: list[int] = []

        def walk(i: int, key: int, free: list[int]) -> None:
            if i == n - 1:  # the last two positions, one call for both orders
                for a, b in (free, free[::-1]):
                    keys.append(key + step(i, a) + step(n, b))
                    undo(n, b)
                    undo(i, a)
                return
            for j, v in enumerate(free):
                walk(i + 1, key + step(i, v), free[:j] + free[j + 1:])
                undo(i, v)

        free = sorted(set(range(1, n + 1)).difference(prefix))
        if len(free) > 1:
            walk(split + 1, key, free)
        else:  # n < 2: the one word
            keys.append(key + sum(map(step, range(1, n + 1), free)))
        yield from keys


def _perm_part(pi: tuple[int, ...]) -> tuple[list[int], int]:
    """What a signed or colored permutation's statistics read of pi alone:
    its inverse (1-based, inv[pi_i] = i) and its cycle count."""
    inv = [0] * (len(pi) + 1)
    for i, v in enumerate(pi, 1):
        inv[v] = i
    return inv, len(_cycles_plain(pi))


def _signed_stats(word: tuple[int, ...]) -> tuple[int, ...]:
    """The signed kernel; ``letter[v]`` is the letter of absolute value v,
    so sigma(v) = letter[pi_v]."""
    n = len(word)
    pi = tuple(abs(v) for v in word)
    inv, cyc = _perm_part(pi)
    letter = [0] * (n + 1)
    for v in word:
        letter[abs(v)] = v
    exc = aexc = fix = single = neg = exc_A = 0
    for v in range(1, n + 1):
        lv = letter[v]
        w = pi[v - 1]
        if lv < 0:
            neg += 1
        if w == v:
            if lv > 0:
                fix += 1
            else:
                single += 1
        elif letter[w] > lv:
            exc += 1
        else:
            aexc += 1
        if lv > inv[v]:
            exc_A += 1
    des_B = (1 if n and word[0] < 0 else 0) + sum(
        word[i] > word[i + 1] for i in range(n - 1)
    )
    return (exc, aexc, fix, single, neg, cyc, exc_A, des_B)


_value = itemgetter(0)


def _colored_stats(word: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The colored kernel: ``word`` holds each position's (value, colour)."""
    cyc = len(_cycles_plain(tuple(map(_value, word))))
    exc_B = fix = single = csum = exc_A = i = 0
    for v, c in word:
        i += 1
        csum += c
        if v == i:
            if c == 0:
                fix += 1
            else:
                single += 1
        elif v > i:
            exc_B += 1
            if c == 0:
                exc_A += 1
    return (exc_B, fix, single, csum, cyc, exc_A)


def _stirling_stats(word: tuple[int, ...], k: int) -> tuple[int, ...]:
    L = len(word)
    ap = 0
    for i in range(1, L - k + 1):  # 0-based start of a run of k equal entries
        if word[i - 1] < word[i] and all(
            word[i + j] == word[i] for j in range(1, k)
        ):
            ap += 1
    fbc = 1 if L and all(word[j] == word[0] for j in range(k)) else 0
    lap = ap + fbc
    return (ap, lap, fbc)


# ---------------------------------------------------------------------------
# generators (lexicographic one-line order)
# ---------------------------------------------------------------------------


def _signed_words(n: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    if len(prefix) == n:
        yield prefix
        return
    used = {abs(v) for v in prefix}
    for v in (*range(-n, 0), *range(1, n + 1)):
        if abs(v) not in used:
            yield from _signed_words(n, prefix + (v,))


def _stirling_words(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The k-Stirling words of order n in lexicographic order, one at a time: the
    next letter is at least every open (started, unfinished) letter, and only the
    largest open letter may continue, so the open letters form a stack."""
    left = [k] * (n + 1)  # copies of each letter still to place

    def grow(prefix: tuple[int, ...], stack: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n * k:
            yield prefix
            return
        top = stack[-1] if stack else 0
        for m in range(top or 1, n + 1):
            if m == top or left[m] == k:
                left[m] -= 1
                rest = stack[:-1] if m == top else stack
                yield from grow(prefix + (m,), rest + (m,) if left[m] else rest)
                left[m] += 1

    return grow((), ())


# membership: is a tuple a word of the class of order n?


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


def _is_plain(word: tuple, n: int, r: int, k: int) -> bool:
    return _ints(word) and sorted(word) == list(range(1, n + 1))


def _is_signed(word: tuple, n: int, r: int, k: int) -> bool:
    return _ints(word) and sorted(map(abs, word)) == list(range(1, n + 1))


def _is_colored(word: tuple, n: int, r: int, k: int) -> bool:
    return (
        all(type(a) is tuple and len(a) == 2 for a in word)
        and _is_plain(tuple(map(_value, word)), n, r, k)
        and all(type(c) is int and 0 <= c < r for _, c in word)
    )


def _is_stirling(word: tuple, n: int, r: int, k: int) -> bool:
    """k copies of each letter of [n], with every entry between two copies of
    i at least i: the open (started, unfinished) letters form a stack, so each
    letter continues the top one or starts a new one above it."""
    if not (_ints(word) and sorted(word) == [v for v in range(1, n + 1) for _ in range(k)]):
        return False
    left = [k] * (n + 1)  # copies of each letter still to come
    stack = [0]
    for v in word:
        if v < stack[-1]:
            return False
        if v > stack[-1]:  # a new letter: an open one is on the stack, a closed one spent
            stack.append(v)
        left[v] -= 1
        if not left[v]:
            stack.pop()
    return True


# ---------------------------------------------------------------------------
# incremental walks behind the cached distributions
# ---------------------------------------------------------------------------
#
# A walk keys each object by its base statistics packed into one int, one
# fixed-width field per statistic in base-tuple order, so the change from one
# object to the next is one int addition and the counting runs over ints.  It
# returns these counts with the number of fields and their width; a cold build
# sums its shards' counts and unpacks each key once.


_PackedCounts = tuple[Counter, int, int]


def _packing(count: int, largest: int) -> tuple[int, list[int]]:
    """Field width and the unit of each field, for ``count`` statistics whose
    values lie in [0, largest]."""
    width = max(1, largest.bit_length())
    return width, [1 << (width * i) for i in range(count)]


def _unpack(keys, count: int, width: int) -> list[tuple[int, ...]]:
    """The base tuples of packed ``keys``."""
    mask = (1 << width) - 1
    shifts = [width * i for i in range(count)]
    return [tuple([(key >> shift) & mask for shift in shifts]) for key in keys]


def _plain_insertion_counts(n: int, shard: int, shards: int) -> _PackedCounts:
    """Joint distribution of ``PLAIN_BASE`` over S_n, by cycle insertion.

    Each sigma in S_m comes from one tau in S_{m-1}: m is added as a fixed
    point, or inserted after some a, so that sigma(a) = m and sigma(m) = b,
    the old tau(a).  Only word positions a and m change, and m is the largest
    letter.  A cycle entry's role reads its predecessor, its successor and
    whether it is its cycle's least entry, so only a, b and m change roles (m
    is never least); cpk_inf drops the peak whose successor is the least
    entry.  Each child's key is its parent's plus a delta read off the
    entries around a, b and m - 1.

    Shard ``shard`` of ``shards`` walks below every ``shards``-th node of the
    split level (``_split_level``), from the ``shard``-th on.
    """
    width, units = _packing(len(PLAIN_BASE), n)
    if n == 0:
        return Counter({0: 1} if shard == 0 else {}), len(PLAIN_BASE), width
    EXC, DROP, FIX, CYC, DES, DD, LPK, CDA, CDD, CPK, CPKI = units
    packed: Counter = Counter()
    # 1-based word, inverse and least entry of each cycle; w[0] = 0 and the
    # never-written w[n + 1] = w[-1] = 0 pad the word
    w = [0] * (n + 2)
    inv = [0] * (n + 2)
    least = [0] * (n + 2)

    def deltas(m: int) -> list[int]:
        """Key change from the current tau in S_{m-1} to each child: index 0
        adds m as a fixed point, index a >= 1 inserts m after a."""
        s, t = w[m - 2], w[m - 1]  # the word's last two letters
        # the old last position m - 1 counted a double descent iff s > t
        out = [FIX + CYC - (DD if s > t else 0)] * m
        # for a <= m - 3, positions m - 1 and m read only s, t and b
        tail_b_below_t = DES + DD + (0 if s > t else LPK)
        tail_b_above_t = -DD if s > t else 0
        for a in range(1, m):
            b = w[a]
            mn = least[a]
            # exc/drop/fix at a and m; m is a wraparound peak, and an
            # infinity peak unless its successor b is the least entry
            if b > a:
                d = DROP + CPK + CPKI
            elif b < a:
                d = EXC + CPK + (CPKI if b != mn else 0)
            else:
                d = EXC + DROP - FIX + CPK
            if a != mn:  # a's successor becomes m
                if inv[a] < a:
                    if a > b:  # peak -> double ascent
                        d += CDA - CPK - (CPKI if b != mn else 0)
                elif a > b:  # double descent -> valley
                    d -= CDD
            if b != mn and a < b:  # b's predecessor becomes m
                c = w[b]
                if b < c:  # double ascent -> valley
                    d -= CDA
                else:  # peak -> double descent
                    d += CDD - CPK - (CPKI if c != mn else 0)
            # des, dd, lpk: position a now holds m, position m holds b
            p = w[a - 1]
            if a < m - 2:
                q = w[a + 1]
                d += DES + LPK
                if p > b:
                    d -= DES + (DD if w[a - 2] > p else LPK)
                    if b > q:
                        d -= DES + DD
                elif b > q:
                    d -= DES + LPK
                if b < q > w[a + 2]:
                    d += DD - LPK
                d += tail_b_below_t if b < t else tail_b_above_t
            elif a == m - 2:
                d += DES + LPK + (DES + DD + DD if b < t else -DES - DD)
                if p > b:
                    d -= DES + (DD if w[a - 2] > p else LPK) + (DD if b > t else 0)
                elif b > t:
                    d -= LPK
            else:
                d += DES + DD + LPK
                if s > t:
                    d -= DES + DD + (DD if w[m - 3] > s else LPK)
            out[a] = d
        return out

    split = _split_level("plain", n, 1, shards)
    deal = itertools.cycle(range(shards)).__next__

    def walk(m: int, key: int) -> None:
        if m == split and deal() != shard:
            return
        out = deltas(m)
        if m == n:
            packed.update(map(key.__add__, out))
            return
        for a in range(1, m):
            b = w[a]
            w[a], w[m] = m, b
            inv[m], inv[b] = a, m
            least[m] = least[a]
            walk(m + 1, key + out[a])
            w[a], inv[b] = b, a
        w[m] = inv[m] = least[m] = m
        walk(m + 1, key + out[0])

    walk(1, 0)
    return packed, len(PLAIN_BASE), width


def _stirling_insertion_counts(n: int, k: int, shard: int, shards: int) -> _PackedCounts:
    """Joint distribution of ``STIRLING_BASE`` over the k-Stirling
    permutations of order n, by block insertion.

    The k copies of the largest letter m are always adjacent, so each word of
    order m comes from one word of order m - 1 by putting the block m^k into
    one of its k(m - 1) + 1 gaps.  A letter's block counts (as a plateau, or
    as the first block) only while its copies are adjacent and follow a
    smaller letter or start the word.  The new block always counts: as a
    plateau after any letter, as the first block in gap 0.  The block covering
    the position right after the gap stops counting, since the gap either
    splits it or puts m before it; no other block changes.  So each child's
    key is its parent's plus the new block's share minus that block's.  A
    shard walks below its share of the split level's nodes, as the plain
    walk's do.
    """
    width, units = _packing(len(STIRLING_BASE), n)
    AP, LAP, FBC = units
    plateau, first = AP + LAP, FBC + LAP
    if n <= 1:  # the empty word, or the first block alone
        return Counter({first * n: 1} if shard == 0 else {}), len(STIRLING_BASE), width
    # share[v]: what letter v's block adds to the key, 0 when it does not count
    share = [0] * (n + 1)
    share[1] = first
    packed: Counter = Counter()
    split = _split_level("stirling", n, k, shards)
    deal = itertools.cycle(range(shards)).__next__

    def walk(m: int, word: list[int], key: int) -> None:
        """Count the descendants of ``word`` (order m - 1) at order n."""
        if m == split and deal() != shard:
            return
        # gap g sits before word[g]; the last gap has no block after it
        out = [plateau - share[v] for v in word]
        out[0] += first - plateau
        out.append(plateau)
        if m == n:
            packed.update(map(key.__add__, out))
            return
        block = [m] * k
        for g, d in enumerate(out):
            v = word[g] if g < len(word) else 0
            kept = share[v]
            share[v] = 0
            share[m] = plateau if g else first
            walk(m + 1, word[:g] + block + word[g:], key + d)
            share[v] = kept

    walk(2, [1] * k, first)
    return packed, len(STIRLING_BASE), width


def _gray_steps(n: int, r: int) -> list[tuple[int, int, int]]:
    """The reflected r-ary Gray code on n digits, from all zeros, as one
    (position, old digit, new digit) per step; position 0 moves fastest."""
    digits = [0] * n
    steps = []
    for count in range(1, r**n):
        pos, block = 0, count
        while block % r == 0:
            pos += 1
            block //= r
        old = digits[pos]
        # a digit sweeps up in even blocks of the digits above it, down in odd
        digits[pos] = old + 1 if block // r % 2 == 0 else old - 1
        steps.append((pos, old, digits[pos]))
    return steps


def _signed_gray_counts(n: int, shard: int, shards: int) -> _PackedCounts:
    """Joint distribution of ``SIGNED_BASE`` over B_n: for each pi, walk the
    sign vectors in reflected binary Gray order.

    Flipping the sign of value u, at position j = pi^-1(u), moves neg; exc_A
    at u; the exc/aexc/fix/single category of positions u and j; and des_B
    across the pairs (j - 1, j) and (j, j + 1), with sigma(0) = 0.  Each of
    these compares the letter +-u with a letter x, and the flip changes the
    outcome iff |x| < u.  So the delta is +D_u when u turns negative and -D_u
    when it turns positive, with D_u fixed by pi.  Shard ``shard`` of
    ``shards`` takes every ``shards``-th pi, from the ``shard``-th on.
    """
    width, units = _packing(len(SIGNED_BASE), n)
    EXC, AEXC, FIX, SINGLE, NEG, CYC, EXC_A, DES_B = units
    # step code 2u turns value u negative, 2u + 1 turns it positive
    steps = [2 * (pos + 1) + old for pos, old, _ in _gray_steps(n, 2)]
    flip = [0] * (2 * n + 2)
    packed: Counter = Counter()
    for pi in itertools.islice(itertools.permutations(range(1, n + 1)), shard, None, shards):
        inv, cyc = _perm_part(pi)
        word = (0, *pi, n + 1)  # positions 0 and n + 1 are sentinels
        exc = fix = des = 0
        for i in range(1, n + 1):
            v = word[i]
            if v > i:
                exc += 1
            elif v == i:
                fix += 1
            if i < n and v > word[i + 1]:
                des += 1
        # all signs positive: exc_A = exc and des_B = des
        key = exc * (EXC + EXC_A) + (n - exc - fix) * AEXC + fix * FIX + cyc * CYC
        key += des * DES_B
        for u in range(1, n + 1):
            j = inv[u]
            w = word[u]
            d = NEG
            if u > j:
                d -= EXC_A
            if w == u:
                d += SINGLE - FIX
            else:
                # position v is an excedance iff sigma(v) exceeds the
                # letter of absolute value v
                if w < u:  # at u: sigma(u) = +-w against +-u
                    d += EXC - AEXC
                if j < u:  # at j: sigma(j) = +-u against +-j
                    d += AEXC - EXC
            if word[j - 1] < u:
                d += DES_B
            if word[j + 1] < u:
                d -= DES_B
            flip[2 * u] = d
            flip[2 * u + 1] = -d
        packed.update(itertools.accumulate(map(flip.__getitem__, steps), initial=key))
    return packed, len(SIGNED_BASE), width


def _colored_gray_counts(n: int, r: int, shard: int, shards: int) -> _PackedCounts:
    """Joint distribution of ``COLORED_BASE`` over the r-colored permutations
    of order n: for each pi, walk the colour vectors in reflected r-ary Gray
    order.

    One step moves the colour of one position i by one: csum moves by one,
    exc_B does not read colours, and fix, single and exc_A change only when
    the colour leaves or returns to 0.  Shards split the pi as the signed
    walk's do.
    """
    width, units = _packing(len(COLORED_BASE), max(n, n * (r - 1)))
    EXC_B, FIX, SINGLE, CSUM, CYC, EXC_A = units
    # step code 4i + 0 leaves colour 0 at position i, + 1 returns to 0,
    # + 2 and + 3 move up and down between nonzero colours
    steps = [
        4 * pos + (0 if old == 0 else 1 if new == 0 else 2 if new > old else 3)
        for pos, old, new in _gray_steps(n, r)
    ]
    move = [0, 0, CSUM, -CSUM] * n
    packed: Counter = Counter()
    for pi in itertools.islice(itertools.permutations(range(1, n + 1)), shard, None, shards):
        _, cyc = _perm_part(pi)
        exc = fix = 0
        for i, v in enumerate(pi):
            if v > i + 1:
                exc += 1
                d = CSUM - EXC_A
            elif v == i + 1:
                fix += 1
                d = CSUM + SINGLE - FIX
            else:
                d = CSUM
            move[4 * i] = d
            move[4 * i + 1] = -d
        key = exc * (EXC_B + EXC_A) + fix * FIX + cyc * CYC
        packed.update(itertools.accumulate(map(move.__getitem__, steps), initial=key))
    return packed, len(COLORED_BASE), width


# ---------------------------------------------------------------------------
# sharded cold builds (see the module docstring)
# ---------------------------------------------------------------------------

# Fewest objects per shard.  A split build costs about 3 ms more than a serial
# one (the fork, the pipe and the merge, on a 2-CPU host), and signed and
# colored builds of 46,080 objects, 15 to 22 ms serial, gained nothing from a
# second shard.
_SHARD_MIN_OBJECTS = 50_000
# Split-level nodes per shard in an insertion walk, so shards differ by at
# most 1/16 of a share.
_SPLIT_NODES_PER_SHARD = 16


def _split_level(kind: str, n: int, k: int, shards: int) -> int:
    """The level of an insertion walk whose nodes a sharded build deals out:
    the first with at least ``_SPLIT_NODES_PER_SHARD`` nodes per shard, else
    n.  The nodes of level m are the words of order m - 1 and all have as
    many descendants, so the shards' shares differ by at most one node's
    descendants."""
    m = 1
    while m < n and _size(kind, m - 1, 1, k) < _SPLIT_NODES_PER_SHARD * shards:
        m += 1
    return m


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shard_count(size: int) -> int:
    """How many shards a cold build of ``size`` objects takes: one per CPU
    this process may use, with at least ``_SHARD_MIN_OBJECTS`` objects each.
    It stays 1 (serial) without ``os.fork``, while another thread is alive
    (a forked child would hold only this one), and in a ``multiprocessing``
    child such as a ``run_suite(jobs>1)`` worker, whose siblings hold the
    other CPUs.  Neither module is imported here, only read if loaded."""
    shards = min(_cpus(), size // _SHARD_MIN_OBJECTS)
    if shards < 2 or not hasattr(os, "fork"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return shards


def _walk_in_shards(
    walk: Callable[..., _PackedCounts], kind: str, n: int, r: int, k: int, shards: int
) -> _PackedCounts:
    """The walk's packed counts summed over the class's ``shards`` shards,
    with the number of fields and their width.

    Shard 0 runs here and each other one in a forked child.  Every child is
    reaped on every path: a child that failed raises ``RuntimeError`` here,
    naming the class and its shard, and if this process fails or is
    interrupted first, the children still running are killed.
    """
    children: dict = {}  # pid -> (shard, read end of its pipe), until reaped
    try:
        for shard in range(1, shards):
            read, write = os.pipe()
            pipe = open(read, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _shard_child(write, partial(walk, n, r, k, shard, shards))
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write)
            children[pid] = shard, pipe
        counts, fields, width = walk(n, r, k, 0, shards)
        for pid, (shard, pipe) in list(children.items()):
            with pipe:
                payload = pipe.read()  # to end of file: the child has closed its end
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                reason = payload.decode(errors="replace") or (
                    f"exit status {os.waitstatus_to_exitcode(status)}"
                )
                raise RuntimeError(
                    f"shard {shard} of {shards} of the {kind} class of order {n}"
                    f" (r={r}, k={k}) failed: {reason}"
                )
            counts.update(marshal.loads(payload))
    finally:
        if children:
            from signal import SIGKILL

            for pid, (_, pipe) in children.items():
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    return counts, fields, width


def _shard_child(write: int, walk: Callable[[], _PackedCounts]) -> NoReturn:
    """A forked shard's whole life: it sends its walk's packed counts, or why
    it failed, to the parent and leaves by ``os._exit``, so none of the
    parent's stack, cleanup or buffered output runs twice."""
    status = 1
    try:
        try:
            payload, status = marshal.dumps(dict(walk()[0])), 0
        except BaseException as exc:
            payload = f"{type(exc).__name__}: {exc}".encode()
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    """A class kind: everything in the module that depends on the kind."""

    names: tuple[str, ...]  # base, then derived statistics
    param: str  # the size parameter read besides n: "r", "k" or ""
    factor: Callable[[int, int, int], int]  # (i, r, k): the size factor of level i
    # (n, r, k, shard, shards): one shard's packed base-tuple counts, fields and width
    walk: Callable[[int, int, int, int, int], _PackedCounts]
    full: Callable[[int, int], Callable[[tuple], tuple]]  # (n, r): base tuple -> full tuple
    words: Callable[[int, int, int], Iterator[tuple]]  # (n, r, k): in lexicographic order
    kernel: Callable[[int], Callable[[tuple], tuple]]  # (k): word -> base tuple
    member: Callable[[tuple, int, int, int], bool]  # (word, n, r, k): is word in the class?
    cycles: Optional[Callable[[tuple], list[tuple[int, ...]]]]  # None for stirling
    letter: Callable[[object], str] = str  # the text of a letter of the word
    cycle_letter: Callable[[tuple], Callable[[int], str]] = lambda word: str  # of a cycle entry
    # (n): the stream's packed base keys, in word order, and the base tuple of one; None
    # runs ``kernel`` on each word
    keys: Optional[Callable[[int], tuple[Iterator[int], Callable[[int], tuple]]]] = None


_KINDS = {  # walks, words and kernels are looked up when they run, so a test can replace them
    "plain": _Kind(
        names=PLAIN_BASE + PLAIN_DERIVED, param="", factor=lambda i, r, k: i,
        walk=lambda n, r, k, shard, shards: _plain_insertion_counts(n, shard, shards),
        full=lambda n, r: lambda b: b + (
            b[P_EXC] + b[P_FIX],  # wexc
            2 * b[P_CPK_INF] + b[P_CYC],  # crun
            n - b[P_CYC],  # rlen
        ),
        words=lambda n, r, k: itertools.permutations(range(1, n + 1)),
        kernel=lambda k: _plain_stats, member=_is_plain, cycles=_cycles_plain,
        keys=lambda n: (_plain_keys(n), partial(_plain_base, n)),
    ),
    "signed": _Kind(
        names=SIGNED_BASE + SIGNED_DERIVED, param="", factor=lambda i, r, k: 2 * i,
        walk=lambda n, r, k, shard, shards: _signed_gray_counts(n, shard, shards),
        full=lambda n, r: lambda b: b + (
            n - b[S_EXC_A] - b[S_FIX] - b[S_SINGLE],  # aexc_A
            2 * b[S_EXC_A] + b[S_NEG],  # fexc
            b[S_EXC] + b[S_FIX],  # wexc
        ),
        words=lambda n, r, k: _signed_words(n),
        kernel=lambda k: _signed_stats, member=_is_signed, cycles=_cycles_signed,
    ),
    "colored": _Kind(
        names=COLORED_BASE + COLORED_DERIVED, param="r", factor=lambda i, r, k: r * i,
        walk=lambda n, r, k, shard, shards: _colored_gray_counts(n, r, shard, shards),
        full=lambda n, r: lambda b: b + (
            b[C_EXC_B] + b[C_SINGLE],  # exc_f
            n - b[C_EXC_B] - b[C_SINGLE] - b[C_FIX],  # aexc_f
            n - b[C_EXC_A] - b[C_FIX] - b[C_SINGLE],  # aexc_A
            r * b[C_EXC_A] + b[C_CSUM],  # fexc_r
        ),
        # value-major generation with nested colour vectors is already the
        # (value, colour)-lexicographic order on words
        words=lambda n, r, k: (
            tuple(zip(pi, colors)) for pi in itertools.permutations(range(1, n + 1))
            for colors in itertools.product(range(r), repeat=n)
        ),
        kernel=lambda k: _colored_stats, member=_is_colored,
        cycles=lambda word: _cycles_plain(tuple(map(_value, word))),
        letter="{0[0]}^{0[1]}".format,  # (value, colour) -> "value^colour"
        # cycle entry v carries the colour of the letter of value v, shown unless 0
        cycle_letter=lambda word: {v: f"{v}^{c}" if c else str(v) for v, c in word}.__getitem__,
    ),
    "stirling": _Kind(
        names=STIRLING_BASE, param="k", factor=lambda i, r, k: (i - 1) * k + 1,
        walk=lambda n, r, k, shard, shards: _stirling_insertion_counts(n, k, shard, shards),
        full=lambda n, r: lambda b: b,  # no derived statistics
        words=lambda n, r, k: _stirling_words(n, k),
        kernel=lambda k: partial(_stirling_stats, k=k), member=_is_stirling, cycles=None,
    ),
}
KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    """The row of ``kind``; UnknownKind for anything else."""
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise UnknownKind(f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}") from None


def stat_names(kind: str) -> tuple[str, ...]:
    return _kind(kind).names


def base_stats(kind: str, word: tuple, *, k: int = 1) -> tuple[int, ...]:
    """The base statistics of ``word`` (``PLAIN_BASE``, ``SIGNED_BASE``, ...)
    through its kind's kernel.  UnknownKind for another kind, BadClassSize for
    a bad k or a length that is not a multiple of k, NotInClass for a word
    outside the class; a colored word may use any colour."""
    _size(kind, 0, 1, k)  # the checks on the kind and on k
    n, rest = divmod(len(word), k)
    if rest:
        raise BadClassSize(f"a {k}-Stirling word's length is a multiple of {k}, got {len(word)}")
    _check_word(kind, word, n, float("inf"), k)  # any colour >= 0
    return _kind(kind).kernel(k)(word)


def enumerate_class(
    kind: str, n: int, *, r: int = 1, k: int = 1
) -> Iterator[tuple[PermObject, dict[str, int]]]:
    """Stream (object, statistics) pairs in deterministic lexicographic order.

    The size guard runs on the call, before the first pair is asked for.
    """
    _check_guard(kind, n, r, k)
    return _stream(kind, n, r, k)


def _object_maker(kind: str, n: int, r: int, k: int) -> Callable[[tuple], PermObject]:
    """``PermObject(kind, n, word, r=r, k=k)`` for one stream, built by filling
    the instance ``__dict__`` from one base dict: the frozen dataclass's
    ``__init__`` sets each of the five fields through ``object.__setattr__``.
    The objects are the same: frozen, equal and hashed by value.  They skip
    the input check on purpose: their words come from the class's generator."""
    base = {"kind": kind, "n": n, "word": None, "r": r, "k": k}
    blank = object.__new__

    def make(word: tuple) -> PermObject:
        obj = blank(PermObject)
        fields = obj.__dict__
        fields.update(base)
        fields["word"] = word
        return obj

    return make


def _stream(kind: str, n: int, r: int, k: int) -> Iterator[tuple[PermObject, dict[str, int]]]:
    """Each word with a fresh copy of its cell's statistics dict, which is
    built once per stream, on the cell's first word."""
    row = _kind(kind)
    names, full = row.names, row.full(n, r)
    make = _object_maker(kind, n, r, k)
    words = row.words(n, r, k)
    if row.keys is None:  # cells keyed by base tuple; tuple() of a tuple is itself
        kernel = row.kernel(k)
        cells, base = ((word, kernel(word)) for word in words), tuple
    else:
        keys, base = row.keys(n)
        cells = zip(words, keys)
    templates: dict = {}
    for word, key in cells:
        stats = templates.get(key)
        if stats is None:
            stats = templates[key] = dict(zip(names, full(base(key))))
        yield make(word), stats.copy()


@dataclass(frozen=True)
class _Distribution:
    """A class's cached joint distribution, as the columns its readers use:
    each cell's full tuple and count, and ``templates``, one statistics dict
    per cell built on the first filtered read, to copy, never to hand out."""

    names: tuple[str, ...]
    full: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    @cached_property
    def templates(self) -> tuple[dict[str, int], ...]:
        return tuple(dict(zip(self.names, full)) for full in self.full)


@lru_cache(maxsize=None)
def _distribution_cached(kind: str, n: int, r: int, k: int) -> _Distribution:
    """Joint distribution over the full stat tuple, cells sorted by packed key.

    All four classes are counted by the incremental walks above: plain and
    stirling classes by insertion, signed and colored ones by Gray-code walks.
    A large class is split into ``_shard_count`` shards, run at once in forked
    children and summed here; it stays serial when it is small, without
    ``os.fork``, while another thread is alive, or in a ``run_suite(jobs>1)``
    worker.  The sort makes the record the same for any shard count.  The
    cached value is shared by every caller in the process, so it is a frozen
    record of tuples, with its full tuples derived here once.
    """
    row = _kind(kind)
    shards = _shard_count(_size(kind, n, r, k))
    packed, fields, width = _walk_in_shards(row.walk, kind, n, r, k, shards)
    keys, counts = zip(*sorted(packed.items()))
    bases = _unpack(keys, fields, width)
    return _Distribution(row.names, tuple(map(row.full(n, r), bases)), counts)


def _cached_class(kind, n, r, k, names=()):
    """The indices of ``names`` in the class's full tuple, and its cached
    distribution.

    The one door behind every read of the cache: it resolves ``names``
    against the class and runs the size guard before it reads.
    """
    known = stat_names(kind)
    for stat in names:
        if stat not in known:
            raise UnknownStat(stat)
    indices = tuple(map(known.index, names))
    _check_guard(kind, n, r, k)
    return indices, _distribution_cached(kind, n, r, k)


def _project(indices, full, counts) -> dict[tuple[int, ...], int]:
    """Sum ``counts`` by the values of the ``full`` tuples at ``indices``."""
    if not indices:
        return {(): sum(counts)} if counts else {}
    out: dict = {}
    get = out.get
    for key, count in zip(map(itemgetter(*indices), full), counts):
        out[key] = get(key, 0) + count
    if len(indices) == 1:  # itemgetter of one index gives the bare value
        return {(value,): count for value, count in out.items()}
    return out


def marginal(
    kind: str, n: int, names: tuple[str, ...], *, r: int = 1, k: int = 1
) -> dict[tuple[int, ...], int]:
    """Joint counts of the named statistics over the class.

    Keys are value tuples in the order of ``names``, e.g.
    ``marginal("plain", 3, ("exc", "fix"))[(1, 0)] == 2``.  Names not given
    in a tuple or list (a single name as text, say) raise :class:`ParseError`.
    """
    if not isinstance(names, (tuple, list)):
        raise ParseError(f"names {names!r} are not a tuple or list of statistic names")
    indices, dist = _cached_class(kind, n, r, k, names)
    return _project(indices, dist.full, dist.counts)


def stat_distribution(
    kind: str, n: int, *, r: int = 1, k: int = 1
) -> dict[tuple[tuple[str, int], ...], int]:
    """Counts of full stat dicts (as sorted item tuples) over the class."""
    names = tuple(sorted(stat_names(kind)))
    return {
        tuple(zip(names, values)): count
        for values, count in marginal(kind, n, names, r=r, k=k).items()
    }


def gen_poly(
    ctx: Context,
    kind: str,
    n: int,
    weighting: Mapping[str, str],
    *,
    r: int = 1,
    k: int = 1,
    where: Optional[Callable[[dict[str, int]], bool]] = None,
) -> Poly:
    """Generating polynomial  sum over the class of  prod var^stat.

    ``weighting`` maps statistic names to variable names; several statistics
    may share a variable, in which case exponents add.  The class is read from
    its cached distribution, whose full tuples are derived once per class.
    ``where`` is called once per cell, in the cache's order, on a fresh copy
    of the cell's statistics dict, so it may keep or change what it is given.
    A ``weighting`` that is not a mapping raises :class:`ParseError`.
    """
    if not isinstance(weighting, Mapping):
        raise ParseError(f"weighting {weighting!r} is not a mapping of statistics to variables")
    indices, dist = _cached_class(kind, n, r, k, tuple(weighting))
    full, counts = dist.full, dist.counts
    if where is not None:
        keep = [where(stats.copy()) for stats in dist.templates]
        full, counts = (
            tuple(itertools.compress(full, keep)), tuple(itertools.compress(counts, keep))
        )
    return ctx.polynomial(weighting.values(), _project(indices, full, counts).items())


def stirling_identities(ctx: Context, n: int, k: int) -> tuple[Poly, Poly]:
    """(sum x^ap, sum x^lap) over the k-Stirling permutations of order n."""
    ap = gen_poly(ctx, "stirling", n, {"ap": "x"}, k=k)
    lap = gen_poly(ctx, "stirling", n, {"lap": "x"}, k=k)
    return ap, lap
