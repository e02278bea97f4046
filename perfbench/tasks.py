"""The benchmark's tasks: each one runs in a fresh worker process.

A task times its calls into the package inside ``tracer.root``, returns the
``clock()`` readings around each stage, and checks the outputs afterwards,
outside the timed region.  Every check compares against a route independent
of the one timed (a recurrence, a different grammar, a closed form, or
arithmetic done here in the benchmark), or, where no such route exists,
against the sha256 of ``Poly.to_text()`` recorded from the parent commit in
``fingerprints.json``.  No check compares a route with itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from excedance_lab import families
from excedance_lab.families import (
    classical_eulerian,
    colored_eulerian,
    derangement_poly,
    family,
    fix_cyc_eulerian,
    gamma_poly,
    one_over_k_decomposition,
    one_over_k_eulerian,
    q_bracket,
    q_eulerian,
    type_b_q_eulerian,
)
from excedance_lab.grammar import Grammar
from excedance_lab.identities import run_suite
from excedance_lab.multipoly import Context, Poly
from excedance_lab.permstats import class_size, enumerate_class, gen_poly
from excedance_lab.shape import CoeffSeq, shape_report
from hostspeed import clock

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

LEMMA7_RULES = {"I": "I*p*q", "p": "x*y", "x": "x*y", "y": "x*y"}
SIGNED_RULES = {
    "J": "q*J*(t+s*p)", "s": "(1+p)*x*y", "t": "(1+p)*x*y",
    "x": "(1+p)*x*y", "y": "(1+p)*x*y",
}
# the thm9 substitution that turns A_n(x,y,p,q) into the signed polynomial
THM9_BINDINGS = {"x": "(1+p)*x", "y": "(1+p)*y", "p": "t+s*p"}


class Checks:
    """Named pass/fail outcomes; in recording mode fingerprints are stored."""

    def __init__(self, recording: bool = False):
        self.results: list[tuple[str, bool]] = []
        self.recording = recording
        self.recorded: dict[str, str] = {}
        self._known = (
            json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
        )

    def ok(self, name: str, condition: bool) -> None:
        self.results.append((name, bool(condition)))

    def fingerprint(self, key: str, poly: Poly) -> None:
        digest = hashlib.sha256(poly.to_text().encode()).hexdigest()
        if self.recording:
            self.recorded[key] = digest
        self.ok(f"fingerprint {key}", self._known.get(key) == digest or self.recording)


def coefficient_sum(poly: Poly) -> Fraction:
    return sum(poly.terms.values(), Fraction(0))


def evaluate(poly: Poly, point: dict[str, Fraction]) -> Fraction:
    """Value of ``poly`` at a point, by direct term-by-term arithmetic."""
    name = poly.ctx.name
    total = Fraction(0)
    for key, c in poly.terms.items():
        term = Fraction(c)
        for vid, e in key:
            term *= point[name(vid)] ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# enum: cold class builds, warm queries, streaming
# ---------------------------------------------------------------------------

FILTERS = {
    "all": None,
    "fix0": lambda s: s["fix"] == 0,
    "cda0": lambda s: s["cda"] == 0,
    "cyc1": lambda s: s["cyc"] == 1,
    "dd0": lambda s: s["dd"] == 0,
    "single0": lambda s: s["single"] == 0,
    "fbc1": lambda s: s["first_block_constant"] == 1,
    "fbc0": lambda s: s["first_block_constant"] == 0,
}


def _iterate(ctx, rules, start, n):
    return Grammar(ctx, rules).iterate(ctx.var(start), n)


def _signed_dnb(ctx, n, r, k, got):
    # sign-dnb-fexc: the q = -1 specialisation telescopes
    x, p = ctx.var("x"), ctx.var("p")
    rhs = ctx.zero()
    for i in range(1, n):
        rhs = rhs - x ** (2 * i)
    for i in range(1, n + 1):
        rhs = rhs - p * x ** (2 * i - 1)
    return got.substitute({"q": -1}) == rhs


def _signed_mongelli(ctx, n, r, k, got):
    # mongelli-signed: doubled type-A excedances against A_n(x)
    arg, onep = ctx.poly("x^2 + p"), ctx.poly("1 + p")
    rhs = ctx.zero()
    for j, c in enumerate(classical_eulerian(ctx, n).coeffs_in("x")):
        rhs = rhs + c * arg**j * onep ** (n - j)
    return got.substitute({"u": ctx.poly("x^2")}) == rhs


def _colored_dnr(ctx, n, r, k, got):
    # dnr-wexc-formula: sum of (r-1)^fix r^(n-fix) x^(exc+fix) q^cyc over S_n
    a = fix_cyc_eulerian(ctx, n)
    return got == r**n * a.substitute({"p": Fraction(r - 1, r) * ctx.var("x")})


def _colored_bagno_garber(ctx, n, r, k, got):
    x = ctx.var("x")
    return (x - 1) * got.substitute({"q": -1}) == -((x**r - 1) ** n)


# Each pool entry: (weighting, filter name, independent route or None).  A
# route takes (ctx, n, r, k, result) and says whether the result is right;
# None means the result is checked against its recorded fingerprint.
QUERY_POOLS = {
    "plain": [
        ({"exc": "x"}, "all", lambda c, n, r, k, g: g == classical_eulerian(c, n)),
        ({"exc": "x", "cyc": "q"}, "all", lambda c, n, r, k, g: g == q_eulerian(c, n)),
        ({"exc": "x"}, "fix0", lambda c, n, r, k, g: g == derangement_poly(c, n)),
        ({"exc": "x", "rlen": "k"}, "all",
         lambda c, n, r, k, g: g == one_over_k_eulerian(c, n, None)),
        ({"des": "x"}, "all", lambda c, n, r, k, g: g == classical_eulerian(c, n)),
        ({"exc": "x", "drop": "y", "fix": "p", "cyc": "q"}, "all",
         lambda c, n, r, k, g: _iterate(c, LEMMA7_RULES, "I", n) == c.var("I") * g),
        ({"exc": "x", "fix": "p", "cyc": "q"}, "cda0",
         lambda c, n, r, k, g: g == gamma_poly(c, n)),
        ({"wexc": "x", "fix": "p", "cyc": "q"}, "all",
         lambda c, n, r, k, g: g == fix_cyc_eulerian(c, n).reverse_in("x", n)),
        ({"crun": "x"}, "all", None),
        ({"lpk": "x", "des": "y"}, "fix0", None),
        ({"cpk_sec2": "x", "cdd_sec2": "y"}, "cyc1", None),
        ({"des": "x"}, "dd0", None),
    ],
    "signed": [
        ({"wexc": "x", "neg": "q"}, "all",
         lambda c, n, r, k, g: g.reverse_in("q", n) == type_b_q_eulerian(c, n)),
        ({"des_B": "x"}, "all",
         lambda c, n, r, k, g: g == type_b_q_eulerian(c, n).substitute({"q": 1})),
        ({"exc": "x", "aexc": "y", "single": "s", "fix": "t", "neg": "p", "cyc": "q"},
         "all", lambda c, n, r, k, g: _iterate(c, SIGNED_RULES, "J", n) == c.var("J") * g),
        ({"fexc": "x", "neg": "p", "cyc": "q"}, "fix0", _signed_dnb),
        ({"exc_A": "u", "neg": "p"}, "all", _signed_mongelli),
        ({"cyc": "q", "neg": "p"}, "single0", None),
        ({"exc_A": "x", "aexc_A": "y"}, "all", None),
        ({"fexc": "x"}, "all", None),
        ({"wexc": "x"}, "all",
         lambda c, n, r, k, g: g == type_b_q_eulerian(c, n).substitute({"q": 1})),
    ],
    "colored": [
        ({"exc_f": "x"}, "all", lambda c, n, r, k, g: g == colored_eulerian(c, n, r)),
        ({"exc_f": "x", "cyc": "q"}, "fix0", _colored_dnr),
        ({"fexc_r": "x", "cyc": "q"}, "all", _colored_bagno_garber),
        ({"csum": "p"}, "all",
         lambda c, n, r, k, g: g == math.factorial(n) * q_bracket(c, r, "p") ** n),
        ({"exc_B": "x", "aexc_f": "y", "single": "s", "fix": "t", "csum": "p",
          "cyc": "q"}, "all", None),
        ({"exc_A": "x", "fix": "t"}, "all", None),
    ],
    "stirling": [
        ({"ap": "x"}, "all", lambda c, n, r, k, g: g == one_over_k_eulerian(c, n, k)),
        ({"lap": "x"}, "all",
         lambda c, n, r, k, g: g == one_over_k_eulerian(c, n, k).reverse_in("x", n)),
        ({"ap": "x"}, "fbc1",
         lambda c, n, r, k, g: g == one_over_k_decomposition(c, n, k)[0]),
        ({"ap": "x"}, "fbc0",
         lambda c, n, r, k, g: g == c.var("x") * one_over_k_decomposition(c, n, k)[1]),
        ({"ap": "x", "lap": "y"}, "all", None),
    ],
}

# The cold build's own weighting and the registry identity's independent route.
COLD_QUERIES = {
    "plain": ({"exc": "x", "fix": "p", "cyc": "q"},
              lambda c, n, r, k, g: g == fix_cyc_eulerian(c, n)),
    "signed": QUERY_POOLS["signed"][0][::2],
    "colored": QUERY_POOLS["colored"][0][::2],
    "stirling": QUERY_POOLS["stirling"][0][::2],
}


def enum_class(spec, tr, traced, ck):
    """Cold build of one class, then a seeded batch of warm queries on it."""
    kind, n, r, k = spec["kind"], spec["n"], spec["r"], spec["k"]
    pool = QUERY_POOLS[kind]
    cold_weighting, cold_route = COLD_QUERIES[kind]
    queries = spec.get("query_indices")
    if queries is None:
        rng = random.Random(f"{spec['seed']}:{kind}")
        queries = [rng.randrange(len(pool)) for _ in range(spec["queries"])]
    ctx = Context()
    with tr.root(traced):
        t0 = clock()
        cold = gen_poly(ctx, kind, n, cold_weighting, r=r, k=k)
        t1 = clock()
        answers = [
            gen_poly(ctx, kind, n, pool[i][0], r=r, k=k, where=FILTERS[pool[i][1]])
            for i in queries
        ]
        t2 = clock()
    size = class_size(kind, n, r=r, k=k)
    label = f"{kind} n={n} r={r} k={k}"
    ck.ok(f"{label} cold coefficient sum", coefficient_sum(cold) == size)
    ck.ok(f"{label} cold vs independent route", cold_route(ctx, n, r, k, cold))
    for i in sorted(set(queries)):
        got = answers[queries.index(i)]
        _, filt, route = pool[i]
        if filt == "all":
            ck.ok(f"{label} query {i} coefficient sum", coefficient_sum(got) == size)
        if route is None:
            ck.fingerprint(f"enum/{kind}/n{n}/r{r}/k{k}/q{i}", got)
        else:
            ck.ok(f"{label} query {i} vs independent route", route(ctx, n, r, k, got))
    return {"cold": (t0, t1), "query": (t1, t2)}


def enum_stream(spec, tr, traced, ck):
    """Stream a plain class object by object, as ``excedance-lab enumerate`` does."""
    n = spec["n"]
    by_exc: dict[int, int] = {}
    with tr.root(traced):
        t0 = clock()
        for _obj, stats in enumerate_class("plain", n):
            by_exc[stats["exc"]] = by_exc.get(stats["exc"], 0) + 1
        t1 = clock()
    ctx = Context()
    eulerian = [c.constant_term() for c in classical_eulerian(ctx, n).coeffs_in("x")]
    ck.ok(f"stream plain n={n} object count", sum(by_exc.values()) == class_size("plain", n))
    ck.ok(f"stream plain n={n} excedances vs A_n(x)",
          [by_exc.get(i, 0) for i in range(len(eulerian))] == eulerian
          and max(by_exc) < len(eulerian))
    return {"stream": (t0, t1)}


# ---------------------------------------------------------------------------
# algebra: enumeration-free families, grammars, substitution, shape
# ---------------------------------------------------------------------------


def _homogenise(ctx: Context, f: Poly, n: int) -> Poly:
    """A_n(x,p,q) -> sum x^exc y^drop p^fix q^cyc, using exc + drop + fix = n."""
    x, p, y = ctx.varid("x"), ctx.varid("p"), ctx.varid("y")
    terms = {}
    for key, c in f.terms.items():
        exps = dict(key)
        exps[y] = n - exps.get(x, 0) - exps.get(p, 0)
        terms[tuple(sorted((v, e) for v, e in exps.items() if e))] = c
    return Poly(ctx, terms)


# Families evaluated at seeded rationals: every variable except x is bound,
# so each result is univariate in x and goes on to the shape reports.
EVAL_TARGETS = {
    "A_pq": ("p", "q"), "A_q": ("q",), "B_typeB_q": ("q",), "one_over_k": ("k",),
    "onek_plus": ("k",), "onek_minus": ("k",), "A_r": ("r",), "alpha_plus": ("r",),
    "alpha_minus": ("r",), "gamma_pq": ("p", "q"), "phi": ("y",),
}


def _eval_targets(seed):
    rng = random.Random(f"{seed}:algebra")
    return [
        {
            "family": name,
            "point": {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in free},
            "x": Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        }
        for name, free in EVAL_TARGETS.items()
    ]


def algebra(spec, tr, traced, ck):
    """Families far beyond the enumeration guard, grammars, substitution, shape."""
    fam_n, springer_n = spec["family_n"], spec["springer_n"]
    lemma7_n, signed_n = spec["lemma7_n"], spec["signed_n"]
    names = sorted(families.REGISTRY)
    targets = _eval_targets(spec["seed"])
    ctx = Context()
    with tr.root(traced):
        t0 = clock()
        built = {
            name: family(ctx, name, springer_n if name == "springer" else fam_n)
            for name in names
        }
        a_signed = family(ctx, "A_pq", signed_n)
        t1 = clock()
        lemma7 = _iterate(ctx, LEMMA7_RULES, "I", lemma7_n)
        signed = _iterate(ctx, SIGNED_RULES, "J", signed_n)
        t2 = clock()
        evaluated = [
            built[target["family"]].eval_rational(target["point"]) for target in targets
        ]
        lemma7_spec = lemma7.substitute({"I": 1, "y": 1})
        bindings = {v: ctx.poly(text) for v, text in THM9_BINDINGS.items()}
        thm9 = _homogenise(ctx, a_signed, signed_n).substitute(bindings)
        t3 = clock()
        shape_inputs = [
            (g, _declared_length(target["family"], fam_n, g))
            for target, g in zip(targets, evaluated)
        ] + [
            (built[name], _declared_length(name, fam_n, built[name]))
            for name in ("A_classic", "d_classic", "xi_plus", "xi_minus")
        ]
        reports = [shape_report(CoeffSeq.from_poly(g, "x", m)) for g, m in shape_inputs]
        t4 = clock()

    for name in names:
        n = springer_n if name == "springer" else fam_n
        ck.fingerprint(f"algebra/family/{name}/n{n}", built[name])
    ck.ok(f"lemma7 n={lemma7_n} at I=y=1 vs A_pq",
          lemma7_spec == family(ctx, "A_pq", lemma7_n))
    ck.ok(f"signed grammar n={signed_n} vs thm9 transform of A_pq",
          signed == ctx.var("J") * thm9)
    ck.ok(f"signed grammar n={signed_n} coefficient sum",
          coefficient_sum(signed) == class_size("signed", signed_n))
    for target, g in zip(targets, evaluated):
        x0, point = target["x"], target["point"]
        ck.ok(f"eval {target['family']} at {point}",
              evaluate(g, {"x": x0}) == evaluate(built[target["family"]], {**point, "x": x0}))
    for (g, m), rep in zip(shape_inputs, reports):
        ck.ok(f"shape report m={m} of {g.to_text()[:40]}", _report_ok(g, m, rep))
    return {"families": (t0, t1), "grammar": (t1, t2), "subst": (t2, t3), "shape": (t3, t4)}


def _declared_length(name: str, n: int, g: Poly) -> int:
    default_m = families.REGISTRY[name].default_m
    return default_m(n) if default_m is not None else g.degree("x")


def _symmetric(seq) -> bool:
    return all(seq[i] == seq[-1 - i] for i in range(len(seq)))


def _gamma_reassembles(gammas, seq) -> bool:
    m = len(seq) - 1
    return all(
        sum(g * math.comb(m - 2 * j, i - j) for j, g in enumerate(gammas)
            if 0 <= i - j <= m - 2 * j) == seq[i]
        for i in range(m + 1)
    )


def _chain(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def _report_ok(g: Poly, m: int, rep) -> bool:
    """Recheck a shape report with arithmetic done here, not in ``shape``."""
    f = [Fraction(0)] * (m + 1)
    for key, c in g.terms.items():
        f[dict(key).get(g.ctx.varid("x"), 0)] += c
    a, b = list(rep.a.coeffs), list(rep.b.coeffs)
    if len(a) != m + 1 or len(b) != m or not (_symmetric(a) and _symmetric(b)):
        return False
    if any(f[i] != a[i] + (b[i - 1] if i else 0) for i in range(m + 1)):
        return False
    if not (_gamma_reassembles(rep.gamma_a, a) and _gamma_reassembles(rep.gamma_b, b)):
        return False
    peak = 0
    while peak < m and f[peak] <= f[peak + 1]:
        peak += 1
    lo_hi = [f[0]]
    hi_lo = [f[m]]
    for i in range(1, m + 1):
        lo_hi += [f[m - (i - 1) // 2]] if i % 2 else [f[i // 2]]
        hi_lo += [f[(i - 1) // 2]] if i % 2 else [f[m - i // 2]]
    expected = {
        "symmetric": _symmetric(f),
        "unimodal": all(f[i] >= f[i + 1] for i in range(peak, m)),
        "gamma_positive": _symmetric(f) and all(v >= 0 for v in rep.gamma_a),
        "bi_gamma_positive": all(v >= 0 for v in rep.gamma_a + rep.gamma_b),
        "alternatingly_increasing": _chain(lo_hi),
        "spiral": _chain(hi_lo),
    }
    return rep.verdicts == expected


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def registry(spec, tr, traced, ck):
    """One ``run_suite`` call; every identity must pass."""
    jobs = spec["jobs"]
    with tr.root(traced):
        t0 = clock()
        results = run_suite(profile=spec["profile"], seed=spec["seed"], jobs=jobs)
        t1 = clock()
    for res in results:
        ck.ok(f"{spec['profile']} jobs={jobs} {res.id} {res.status}", res.status == "pass")
    return {
        "suite": (t0, t1),
        "pool_idle": jobs * (t1 - t0) - sum(res.elapsed for res in results),
    }


def probe(spec, tr, traced, ck):
    return {}


TASKS = {
    "enum_class": enum_class,
    "enum_stream": enum_stream,
    "algebra": algebra,
    "registry": registry,
    "probe": probe,
}
