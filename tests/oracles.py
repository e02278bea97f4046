"""Independent brute-force oracles used to freeze expected test values.

Everything here is written directly against the statistic definitions with
itertools, on purpose: these functions share no code with the package, so a
test comparing the two sides genuinely checks the implementation.
"""

from __future__ import annotations

import itertools
from collections import Counter


def descent_counts(n: int) -> Counter:
    """Descent distribution over S_n from one-line words."""
    counts: Counter = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        des = sum(word[i] > word[i + 1] for i in range(n - 1))
        counts[des] += 1
    return counts


def plain_exc_fix_cyc(n: int) -> Counter:
    """(exc, fix, cyc) distribution over S_n."""
    counts: Counter = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        exc = sum(v > i for i, v in enumerate(word, 1))
        fix = sum(v == i for i, v in enumerate(word, 1))
        seen = set()
        cyc = 0
        for start in range(1, n + 1):
            if start not in seen:
                cyc += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = word[j - 1]
        counts[(exc, fix, cyc)] += 1
    return counts


def signed_words(n: int):
    for pi in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, pi))


def signed_exc(word) -> int:
    """Hyperoctahedral excedances: positions with sigma(|sigma(i)|) > sigma(i)."""
    return sum(word[abs(v) - 1] > v for v in word)


def signed_fix(word) -> int:
    return sum(v == i for i, v in enumerate(word, 1))


def signed_derangement_exc_counts(n: int) -> Counter:
    counts: Counter = Counter()
    for word in signed_words(n):
        if signed_fix(word) == 0:
            counts[signed_exc(word)] += 1
    return counts


def colored_flag_exc_counts(n: int, r: int) -> Counter:
    """Distribution of the flag-order excedance number over r-colored words."""
    counts: Counter = Counter()
    for pi in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(r), repeat=n):
            exc = sum(
                v > i or (v == i and c > 0)
                for i, (v, c) in enumerate(zip(pi, colors), 1)
            )
            counts[exc] += 1
    return counts


def derangement_count(n: int) -> int:
    """Inclusion-exclusion count of fixed-point-free permutations."""
    import math

    return sum((-1) ** k * math.comb(n, k) * math.factorial(n - k) for k in range(n + 1))


def _cycle_minimum(sigma: dict) -> dict:
    """Map each point of the permutation {i: sigma(i)} to the least point of
    its cycle."""
    out = {}
    for i in sigma:
        orbit = [i]
        j = sigma[i]
        while j != i:
            orbit.append(j)
            j = sigma[j]
        out[i] = min(orbit)
    return out


def _key(stats: dict) -> tuple:
    return tuple(sorted(stats.items()))


def plain_joint(n: int) -> Counter:
    """Joint distribution over S_n of the eleven plain base statistics, keyed
    by sorted (name, value) items.

    The cycle statistics use the permutation directly: in a cycle written
    least entry first and closed with the wraparound sentinel, an entry c
    other than the least sits between sigma^-1(c) and sigma(c); with the
    +infinity sentinel instead, the entry whose image is the least entry
    is never a peak.
    """
    counts: Counter = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        sigma = dict(enumerate(word, 1))
        inverse = {v: i for i, v in sigma.items()}
        least = _cycle_minimum(sigma)
        inner = [c for c in sigma if least[c] != c]
        zero_padded = (0,) + word + (0,)
        counts[_key({
            "exc": sum(sigma[i] > i for i in sigma),
            "drop": sum(sigma[i] < i for i in sigma),
            "fix": sum(sigma[i] == i for i in sigma),
            "cyc": len(set(least.values())),
            "des": sum(sigma[i] > sigma[i + 1] for i in range(1, n)),
            "dd": sum(
                zero_padded[i - 1] > zero_padded[i] > zero_padded[i + 1]
                for i in range(1, n + 1)
            ),
            "lpk": sum(
                zero_padded[i - 1] < zero_padded[i] > zero_padded[i + 1]
                for i in range(1, n)
            ),
            "cda": sum(inverse[c] < c < sigma[c] for c in inner),
            "cdd_sec2": sum(inverse[c] > c > sigma[c] for c in inner),
            "cpk_sec2": sum(inverse[c] < c > sigma[c] for c in inner),
            "cpk_inf": sum(
                inverse[c] < c > sigma[c] for c in inner if least[sigma[c]] != sigma[c]
            ),
        })] += 1
    return counts


def signed_joint(n: int) -> Counter:
    """Joint distribution over the signed permutations of order n of the
    eight signed base statistics, keyed by sorted (name, value) items.

    ``exc``/``aexc`` compare each letter c of the word with sigma(|c|);
    ``exc_A`` and ``des_B`` read the one-line word, des_B with sigma(0) = 0.
    """
    counts: Counter = Counter()
    for word in signed_words(n):
        sigma = dict(enumerate(word, 1))
        sigma[0] = 0
        absolute = {i: abs(v) for i, v in sigma.items() if i}
        counts[_key({
            "exc": sum(sigma[abs(c)] > c for c in word),
            "aexc": sum(sigma[abs(c)] < c for c in word),
            "fix": sum(sigma[i] == i for i in absolute),
            "single": sum(sigma[i] == -i for i in absolute),
            "neg": sum(c < 0 for c in word),
            "cyc": len(set(_cycle_minimum(absolute).values())),
            "exc_A": sum(sigma[i] > i for i in absolute),
            "des_B": sum(sigma[i] > sigma[i + 1] for i in range(n)),
        })] += 1
    return counts


def colored_joint(n: int, r: int) -> Counter:
    """Joint distribution over the r-colored permutations of order n of the
    six colored base statistics, keyed by sorted (name, value) items."""
    counts: Counter = Counter()
    for pi in itertools.permutations(range(1, n + 1)):
        values = dict(enumerate(pi, 1))
        cyc = len(set(_cycle_minimum(values).values()))
        for colors in itertools.product(range(r), repeat=n):
            color = dict(enumerate(colors, 1))
            counts[_key({
                "exc_B": sum(values[i] > i for i in values),
                "fix": sum(values[i] == i and color[i] == 0 for i in values),
                "single": sum(values[i] == i and color[i] > 0 for i in values),
                "csum": sum(colors),
                "cyc": cyc,
                "exc_A": sum(values[i] > i and color[i] == 0 for i in values),
            })] += 1
    return counts


def _multiset_words(counts: dict):
    """Every distinct word using value v exactly counts[v] times."""
    if not any(counts.values()):
        yield ()
        return
    for v in sorted(counts):
        if counts[v]:
            counts[v] -= 1
            for rest in _multiset_words(counts):
                yield (v,) + rest
            counts[v] += 1


def stirling_joint(n: int, k: int) -> Counter:
    """Joint distribution of (ap, lap, first_block_constant) over the
    k-Stirling permutations of order n, keyed by sorted (name, value) items.

    The words are the distinct arrangements of {1^k, ..., n^k} in which every
    entry between two occurrences of i is at least i.  A plateau starts at a
    position where k equal entries follow a smaller one: ``ap`` counts those
    starts in the word, ``lap`` the starts in the word with w_0 = 0 prepended,
    and ``first_block_constant`` says whether w_1 = ... = w_k.
    """

    def plateaux(w):
        return sum(
            w[i - 1] < w[i] and len(set(w[i:i + k])) == 1
            for i in range(1, len(w) - k + 1)
        )

    counts: Counter = Counter()
    for word in _multiset_words({v: k for v in range(1, n + 1)}):
        occurrences = {v: [i for i, w in enumerate(word) if w == v] for v in set(word)}
        if any(
            min(word[occ[0]:occ[-1] + 1]) < v for v, occ in occurrences.items()
        ):
            continue
        counts[_key({
            "ap": plateaux(word),
            "lap": plateaux((0,) + word),
            "first_block_constant": int(len(word) >= k and len(set(word[:k])) == 1),
        })] += 1
    return counts


def foata_strehl_image(word, x) -> tuple:
    """The modified Foata-Strehl action phi'_x on a one-line word of S_n.

    Written from the block form of the definition.  Read the cycle of x from
    its least entry and close it with that entry.  If x lies between a larger
    and a smaller entry (a double descent) it hops left over the maximal run
    of entries larger than x that ends just before it; between a smaller and
    a larger entry (a double ascent) it hops right over the maximal run of
    larger entries that starts just after it.  The least entry, peaks and
    valleys stay where they are.
    """
    sigma = dict(enumerate(word, 1))
    least = _cycle_minimum(sigma)[x]
    cyc = [least]
    while sigma[cyc[-1]] != least:
        cyc.append(sigma[cyc[-1]])
    pos = cyc.index(x)
    if pos == 0:
        return tuple(word)
    before, after = cyc[pos - 1], cyc[(pos + 1) % len(cyc)]
    rest = cyc[:pos] + cyc[pos + 1:]
    gap = pos
    if before > x > after:
        while rest[gap - 1] > x:
            gap -= 1
    elif before < x < after:
        while gap < len(rest) and rest[gap] > x:
            gap += 1
    else:
        return tuple(word)
    cyc = rest[:gap] + [x] + rest[gap:]
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        sigma[a] = b
    return tuple(sigma[i] for i in range(1, len(word) + 1))
