"""Identity registry: every cross-check the toolkit certifies, by stable id.

Each identity computes two (or more) routes to the same exact object -- a
grammar iterate against an enumeration, a recurrence against a statistic
distribution, a closed form against a specialisation -- and compares them
with zero tolerance.  Results carry a structured mismatch list so a failure
shows both sides and their difference.

Identities are grouped by the acceptance criterion they certify (the
``criterion`` field); ``run_suite`` executes any subset at ``quick`` or
``full`` bounds and reports deterministically ordered results regardless of
worker scheduling.

Adding an identity: a theorem checked over ``n`` (and ``r`` or ``k``) is a
``@_sweep`` cell ``cell(ck, ctx, bounds, n[, r|k])``, called per grid point
with a fresh Context and the label prefix ``n=5`` (``r=2 n=5``, ``k=2 n=5``);
it passes only the label's rest, or ``""``.  A grammar lemma checked against
a class is a ``@_grammar_sweep`` and a substitution theorem a
``@_substitution_sweep``: the decorated function returns only the grammar's
rules, or the bindings, for ``(ctx, r)``.  Write the body by hand
(``@_identity``, ``run(bounds, rng, ck)``) when labels do not start with that
prefix, the grid has a second loop, or work follows it.  A seeded property
is a ``@_property`` case ``case(ctx, rng)`` that draws one instance and
returns its failure count; the runner owns the loop over ``instances`` and
the one ``failures`` comparison.  ``rng`` is
``random.Random(f"{seed}:{id}")``, one stream per identity.  A sweep shares
plumbing only: no formula or Poly crosses cells or routes.  No body passes the
enumeration size guard: it is the process-wide ``EXCEDANCE_LAB_MAX_CLASS``
setting that ``permstats`` checks before every enumeration.

A linear combination is one ``ctx.combine``, or one ``ctx.polynomial`` when
each summand is a scalar times a monomial.  A table of enumerated cells reads
one ``marginal`` projection and makes each cell one ``ctx.polynomial``.  A
restriction of a class is a variable bound to 0, as derangements are p = 0:
the restricted statistic is weighted by a variable the weighting does not
already use, and the identity's ``substitute`` binds it to 0 (``{"fix": "t"}``,
then ``{"t": 0}``).  No body passes ``gen_poly`` a ``where=`` filter.

Each statistic system's weighting (statistic -> variable) is one module
constant, such as ``SIGNED_B``, that both members of its pair read: lemma-g3
and thm9, g10 and thm22, g12 and thm24, g14 and thm26.  The substitution
theorems (thm9, thm12, thm22, thm24, thm26, and the colored sign evaluations
sign-bagno-garber, sign-anr-typeA and dnr-wexc-formula) take their plain side
from the grammar route: ``_eulerian_xypq`` iterates the lemma-7 grammar to
A_n(x,y,p,q) and binds the identity's x, y and p in it with one simultaneous
``Poly.substitute``.  Only their signed or colored side enumerates, so each
such check compares two routes, not two enumerations.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Optional

from . import families, fsaction, permstats, shape
from .families import (
    alpha_tables,
    classical_eulerian,
    colored_decomposition,
    colored_eulerian,
    derangement_poly,
    fix_cyc_eulerian,
    gamma_poly,
    gamma_triangle,
    one_over_k_decomposition,
    one_over_k_eulerian,
    one_over_k_pm_tables,
    phi_kernel,
    q_bracket,
    q_eulerian,
    springer,
    type_b_q_eulerian,
)
from .grammar import Grammar
from .multipoly import BadInput, Context, Poly, horner_eval
from .permstats import SizeExceeded, gen_poly, marginal
from .shape import (
    CoeffSeq,
    check as shape_check,
    decompose,
    gamma_assemble,
    gamma_expand,
    shape_report,
)

DEFAULT_SEED = 94101
PROFILES = ("quick", "full")


class UnknownIdentity(BadInput, KeyError):
    """No identity with the requested id; ``args[0]`` is that id."""

    def __str__(self):
        return f"unknown identity {self.args[0]!r}; known ids: {', '.join(identity_ids())}"


class UnknownProfile(BadInput, ValueError):
    """A profile other than those in ``PROFILES``."""


def _check_profile(profile: str) -> None:
    if profile not in PROFILES:
        raise UnknownProfile(f"unknown profile {profile!r} (try: {', '.join(PROFILES)})")


class BadOverride(BadInput, ValueError):
    """An override names a bound the identity does not read, or gives a
    bound outside its domain; or a ``run_suite`` ``jobs`` that is not an
    int >= 1 (a bool is not one)."""


class Checker:
    """Accumulates mismatches, a count of comparisons and report details for
    one identity run."""

    def __init__(self):
        self.mismatches: list[dict] = []
        self.details: dict[str, str] = {}
        self.checks = 0
        self.prefix = ""

    def label(self, suffix: str) -> str:
        """The full label: the grid-cell prefix set by ``_sweep`` and ``suffix``."""
        return " ".join(part for part in (self.prefix, suffix) if part)

    def eq(self, context: str, lhs, rhs):
        self.checks += 1
        if lhs != rhs:
            entry = {"context": self.label(context), "lhs": str(lhs), "rhs": str(rhs)}
            if isinstance(lhs, Poly) and isinstance(rhs, Poly):
                entry["diff"] = str(lhs - rhs)
            self.mismatches.append(entry)

    def ok(self, context: str, condition: bool, info: str = ""):
        self.checks += 1
        if not condition:
            self.mismatches.append(
                {"context": self.label(context), "lhs": "expected true", "rhs": info or "false"}
            )

    def note(self, key: str, value):
        self.details[key] = str(value)


@dataclass
class IdentityRecord:
    id: str
    description: str
    criterion: Optional[int]
    bounds: dict
    quick: dict
    run: Callable[[dict, random.Random, Checker], None] = field(repr=False)

    def effective_bounds(self, profile: str, overrides: Optional[dict] = None) -> dict:
        _check_profile(profile)
        merged = dict(self.bounds)
        if profile == "quick":
            merged.update(self.quick)
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        unknown = [key for key in given if key not in self.bounds]
        if unknown:
            raise BadOverride(
                f"{self.id} does not take {', '.join(unknown)}; "
                f"its bounds are {', '.join(self.bounds)}"
            )
        for key, value in given.items():
            # n bounds are integers >= 0; ks and rs list class parameters >= 1;
            # a bool is neither
            if isinstance(value, tuple):
                valid = all(type(v) is int and v >= 1 for v in value)
                domain = "integers >= 1"
            else:
                valid = type(value) is int and value >= 0
                domain = "an integer >= 0"
            if not valid:
                raise BadOverride(f"{self.id}: {key} must be {domain}, got {value!r}")
        merged.update(given)
        if "max_n" in given:
            # a max_n override bounds every n the identity visits (sym_max_n, ...)
            for key in merged:
                if key.endswith("_max_n"):
                    merged[key] = min(merged[key], given["max_n"])
        return merged


@dataclass
class IdentityResult:
    id: str
    status: str  # pass | fail | skipped | vacuous (no comparison ran)
    elapsed: float
    detail: str
    details: dict
    mismatches: list[dict]
    checks: int

    def to_json_obj(self) -> dict:
        return {**asdict(self), "elapsed": round(self.elapsed, 3)}


REGISTRY: dict[str, IdentityRecord] = {}


def _identity(id: str, description: str, criterion: Optional[int], bounds: dict, quick: dict):
    def wrap(fn):
        REGISTRY[id] = IdentityRecord(id, description, criterion, bounds, quick, fn)
        return fn

    return wrap


def _sweep(id, description, criterion, bounds, quick, *, over=None, start=0):
    """Register ``cell(ck, ctx, bounds, n[, r|k])``, run once per grid
    point: ``bounds[over]`` (``"rs"``/``"ks"``) outside, ``n = start ..
    bounds["max_n"]`` inside, a fresh Context and the label prefix per cell."""
    def wrap(cell):
        def run(bounds, rng, ck):
            grid = [(f"{over[0]}={v} ", (v,)) for v in bounds[over]] if over else [("", ())]
            for tag, extra in grid:
                for n in range(start, bounds["max_n"] + 1):
                    ck.prefix = f"{tag}n={n}"
                    cell(ck, Context(), bounds, n, *extra)

        _identity(id, description, criterion, bounds, quick)(run)
        return cell

    return wrap


def _property(id, description, criterion):
    """Register ``case(ctx, rng)``, a seeded property that draws one instance
    from ``rng`` and returns how many of its assertions failed; it runs
    ``bounds["instances"]`` times on one fresh Context.  Each instance counts
    as one check, and the failures are one comparison: one mismatch at most.
    A failing run notes the index of its first failing instance, so running
    ``first_failure + 1`` instances from the same seed reproduces it."""
    def wrap(case):
        def run(bounds, rng, ck):
            ctx = Context()
            failed = [case(ctx, rng) for _ in range(bounds["instances"])]
            ck.eq("failures", sum(failed), 0)
            ck.checks += len(failed) - 1
            first = next((i for i, f in enumerate(failed) if f), None)
            if first is not None:
                ck.note("first_failure", first)
            ck.note("instances", bounds["instances"])

        _identity(id, description, criterion, {"instances": 1000}, {"instances": 200})(run)
        return case

    return wrap


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


LEMMA7_RULES = {"I": "I*p*q", "p": "x*y", "x": "x*y", "y": "x*y"}
LEMMA8_RULES = {"I": "I*y", "x": "k*x*y", "y": "k*x*y"}


def _eulerian_xypq(ctx: Context, n: int, bindings: dict) -> Poly:
    """A_n(x,y,p,q) = sum over S_n of x^exc y^drop p^fix q^cyc, read from the
    lemma-7 grammar (``lemma7-grammar-exc`` certifies it against S_n), with
    ``bindings`` substituted for its variables simultaneously."""
    iterate = Grammar(ctx, LEMMA7_RULES).iterate(ctx.var("I"), n)
    return iterate.substitute({"I": 1, **bindings})


# each statistic system's statistic -> variable weighting; a grammar lemma and
# the substitution theorem it pairs with read the same one
PLAIN_XYPQ = {"exc": "x", "drop": "y", "fix": "p", "cyc": "q"}
SIGNED_B = {"exc": "x", "aexc": "y", "single": "s", "fix": "t", "neg": "p", "cyc": "q"}
SIGNED_A = {"exc_A": "x", "aexc_A": "y", "single": "s", "fix": "t", "neg": "p", "cyc": "q"}
COLORED_F = {"exc_f": "x", "aexc_f": "y", "fix": "p", "cyc": "q"}
COLORED_B = {"exc_B": "x", "aexc_f": "y", "single": "s", "fix": "t", "csum": "p", "cyc": "q"}
COLORED_A = {"exc_A": "x", "aexc_A": "y", "single": "s", "fix": "t", "csum": "p", "cyc": "q"}


def _grammar_sweep(id, description, bounds, quick, *, kind, weighting, seed="I"):
    """Register ``rules(ctx, r)`` as a criterion-1 sweep: the grammar
    iterated n times from the variable ``seed`` equals ``seed`` times
    ``gen_poly(kind, n, weighting, r=r)``.  ``r`` runs over ``bounds["rs"]``
    when the bounds have one, else it is 1."""
    def wrap(rules):
        @_sweep(id, description, 1, bounds, quick, over="rs" if "rs" in bounds else None)
        def cell(ck, ctx, bounds, n, r=1):
            start = ctx.var(seed)
            lhs = Grammar(ctx, rules(ctx, r)).iterate(start, n)
            ck.eq("", lhs, start * gen_poly(ctx, kind, n, weighting, r=r))

        return rules

    return wrap


def _substitution_sweep(id, description, bounds, quick, *, kind, weighting):
    """Register ``bindings(ctx, r)`` as a criterion-3 sweep:
    ``gen_poly(kind, n, weighting, r=r)`` equals ``_eulerian_xypq`` with those
    bindings; ``r`` as in :func:`_grammar_sweep`."""
    def wrap(bindings):
        @_sweep(id, description, 3, bounds, quick, over="rs" if "rs" in bounds else None)
        def cell(ck, ctx, bounds, n, r=1):
            lhs = gen_poly(ctx, kind, n, weighting, r=r)
            ck.eq("", lhs, _eulerian_xypq(ctx, n, bindings(ctx, r)))

        return bindings

    return wrap


# ---------------------------------------------------------------------------
# criterion 1: grammar iterates against enumeration
# ---------------------------------------------------------------------------


@_grammar_sweep(
    "lemma7-grammar-exc",
    "grammar {I->Ipq, p->xy, x->xy, y->xy} generates the excedance/drop/fix/cycle distribution",
    {"max_n": 7},
    {"max_n": 5},
    kind="plain", weighting=PLAIN_XYPQ,
)
def _lemma7_rules(ctx, r):
    return LEMMA7_RULES


@_sweep(
    "lemma8-grammar-onek",
    "grammar {I->Iy, x->kxy, y->kxy} generates the 1/k-Eulerian coefficients, k symbolic and numeric",
    1,
    {"max_n": 7, "ks": (1, 2, 3)},
    {"max_n": 5, "ks": (1, 2)},
)
def _run_lemma8(ck, ctx, bounds, n):
    lhs = Grammar(ctx, LEMMA8_RULES).iterate(ctx.var("I"), n)
    rhs = ctx.var("I") * gen_poly(
        ctx, "plain", n, {"exc": "x", "drop": "y", "fix": "y", "rlen": "k"}
    )
    ck.eq("symbolic", lhs, rhs)
    for k in bounds["ks"]:
        gk = Grammar(ctx, {"I": "I*y", "x": f"{k}*x*y", "y": f"{k}*x*y"})
        ck.eq(
            f"k={k}",
            gk.iterate(ctx.var("I"), n),
            lhs.substitute({"k": k}),
        )


@_identity(
    "change-of-grammar",
    "substituting the defining bindings into the transformed grammars recovers the originals",
    1,
    {"max_n": 7},
    {"max_n": 5},
)
def _run_change_of_grammar(bounds, rng, ck):
    for n in range(bounds["max_n"] + 1):
        ctx = Context()
        g0 = Grammar(ctx, LEMMA8_RULES)
        g1 = Grammar(ctx, {
            "I": "J", "J": "J*u + (k-1)*I*v", "u": "2*k*v", "v": "k*u*v",
        })
        bound = {
            "J": ctx.poly("I*y"), "u": ctx.poly("x+y"), "v": ctx.poly("x*y"),
        }
        ck.eq(
            f"G1->G0 n={n}",
            g1.iterate(ctx.var("I"), n).substitute(bound),
            g0.iterate(ctx.var("I"), n),
        )
        g = Grammar(ctx, LEMMA7_RULES)
        g2 = Grammar(ctx, {"I": "I*p*q", "p": "u", "u": "u*v", "v": "2*u"})
        ck.eq(
            f"G2->G n={n}",
            g2.iterate(ctx.var("I"), n).substitute(
                {"u": ctx.poly("x*y"), "v": ctx.poly("x+y")}
            ),
            g.iterate(ctx.var("I"), n),
        )


@_grammar_sweep(
    "lemma-g3-grammar-signed",
    "the signed-permutation grammar generates the six-statistic distribution",
    {"max_n": 5},
    {"max_n": 4},
    kind="signed", weighting=SIGNED_B, seed="J",
)
def _g3_rules(ctx, r):
    rhs_rule = "(1+p)*x*y"
    return {
        "J": "q*J*(t+s*p)", "s": rhs_rule, "t": rhs_rule,
        "x": rhs_rule, "y": rhs_rule,
    }


@_sweep(
    "lemma-g8-grammar-colored",
    "grammar {u->uv^r, v->u^r v} encodes the colored Eulerian coefficients",
    1,
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    over="rs",
)
def _run_g8(ck, ctx, bounds, n, r):
    g8 = Grammar(ctx, {"u": f"u*v^{r}", "v": f"u^{r}*v"})
    seed = ctx.monomial({"u": r - 1, "v": 1})
    lhs = g8.iterate(seed, n)
    counts = gen_poly(ctx, "colored", n, {"exc_f": "x"}, r=r).coeffs_in("x")
    rhs = ctx.combine(
        (c, ctx.monomial({"u": (n - kk) * r + r - 1, "v": kk * r + 1}))
        for kk, c in enumerate(counts)
    )
    ck.eq("", lhs, rhs)


@_grammar_sweep(
    "g10-grammar-colored",
    "first colored grammar vs the (exc, aexc, fix, cyc) distribution",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_F,
)
def _g10_rules(ctx, r):
    return {
        "I": f"q*I*(({r}-1)*x + p)",
        "x": f"{r}*x*y", "y": f"{r}*x*y", "p": f"{r}*x*y",
    }


@_grammar_sweep(
    "g12-grammar-colored",
    "second colored grammar (color-sum refinement) vs enumeration, p symbolic",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_B,
)
def _g12_rules(ctx, r):
    bracket_r = q_bracket(ctx, r, "p")
    bracket_r1 = q_bracket(ctx, r - 1, "p")
    rule = bracket_r * ctx.poly("x*y")
    return {
        "I": ctx.var("q") * ctx.var("I")
        * (ctx.var("t") + ctx.var("s") * ctx.var("p") * bracket_r1),
        "x": rule, "y": rule, "t": rule, "s": rule,
    }


@_grammar_sweep(
    "g14-grammar-colored",
    "third colored grammar (natural-order statistics) vs enumeration, p symbolic",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_A,
)
def _g14_rules(ctx, r):
    bracket_r1 = q_bracket(ctx, r - 1, "p")
    rule = ctx.poly("x*y") + ctx.var("p") * bracket_r1 * ctx.poly("y^2")
    return {
        "I": ctx.var("q") * ctx.var("I")
        * (ctx.var("t") + ctx.var("s") * ctx.var("p") * bracket_r1),
        "t": rule, "s": rule, "x": rule, "y": rule,
    }


# ---------------------------------------------------------------------------
# criterion 2: recurrences against enumeration
# ---------------------------------------------------------------------------


@_sweep(
    "rec-anxq",
    "the derivative recurrence for A_n(x,q) matches the excedance/cycle distribution",
    2,
    {"max_n": 8},
    {"max_n": 6},
)
def _run_rec_anxq(ck, ctx, bounds, n):
    ck.eq("", q_eulerian(ctx, n), gen_poly(ctx, "plain", n, {"exc": "x", "cyc": "q"}))


@_sweep(
    "rec-anjk",
    "the 1/k-Eulerian coefficient recurrence matches x^exc k^(n-cyc) enumeration",
    2,
    {"max_n": 8, "ks": (1, 2, 3, 4)},
    {"max_n": 6, "ks": (1, 2, 3)},
    start=1,
)
def _run_rec_anjk(ck, ctx, bounds, n):
    sym = one_over_k_eulerian(ctx, n, None)
    enum = gen_poly(ctx, "plain", n, {"exc": "x", "rlen": "k"})
    ck.eq("symbolic", sym, enum)
    scaled = (ctx.var("k") ** n) * q_eulerian(ctx, n)
    for k in bounds["ks"]:
        ck.eq(
            f"k={k} numeric rows",
            one_over_k_eulerian(ctx, n, k),
            sym.substitute({"k": k}),
        )
        ck.eq(
            f"k={k} equals k^n A_n(x,1/k)",
            scaled.eval_rational({"q": Fraction(1, k)}).substitute({"k": k}),
            one_over_k_eulerian(ctx, n, k),
        )


@_sweep(
    "rec-enij-prop14",
    "the partial-gamma triangle recurrence equals cycle counts over no-double-ascent classes",
    2,
    {"max_n": 8},
    {"max_n": 6},
    start=1,
)
def _run_rec_enij(ck, ctx, bounds, n):
    tri = gamma_triangle(ctx, n)
    cells: dict[tuple[int, int], list] = {}  # (fix, exc) -> the q^cyc rows of its cell
    for (cda, fix, exc, cyc), cnt in marginal("plain", n, ("cda", "fix", "exc", "cyc")).items():
        if cda == 0:
            cells.setdefault((fix, exc), []).append(((cyc,), cnt))
    for (i, j) in sorted(set(tri) | set(cells)):
        lhs = tri.get((i, j), ctx.zero())
        ck.eq(f"gamma[{i},{j}]", lhs, ctx.polynomial(["q"], cells.get((i, j), ())))
    ck.eq(
        "reassembly",
        fix_cyc_eulerian(ctx, n),
        gen_poly(ctx, "plain", n, {"exc": "x", "fix": "p", "cyc": "q"}),
    )


@_identity(
    "rec-arnk",
    "the colored Eulerian coefficient recurrence matches flag-order excedance counts",
    2,
    {"max_n": 5, "rs": (1, 2, 3), "sym_max_n": 8},
    {"max_n": 4, "rs": (1, 2), "sym_max_n": 6},
)
def _run_rec_arnk(bounds, rng, ck):
    for n in range(bounds["sym_max_n"] + 1):
        ctx = Context()
        sym = colored_eulerian(ctx, n, None)
        for r in bounds["rs"]:
            ck.eq(
                f"n={n} r={r} symbolic specialisation",
                sym.substitute({"r": r}),
                colored_eulerian(ctx, n, r),
            )
    for r in bounds["rs"]:
        for n in range(bounds["max_n"] + 1):
            ctx = Context()
            ck.eq(
                f"n={n} r={r} enumeration",
                colored_eulerian(ctx, n, r),
                gen_poly(ctx, "colored", n, {"exc_f": "x"}, r=r),
            )


@_sweep(
    "rec-bnxq",
    "the type-B q-Eulerian recurrence matches weak excedances weighted by positive entries",
    2,
    {"max_n": 6},
    {"max_n": 5},
)
def _run_rec_bnxq(ck, ctx, bounds, n):
    fam = type_b_q_eulerian(ctx, n)
    raw = gen_poly(ctx, "signed", n, {"wexc": "x", "neg": "q"})
    ck.eq("enumeration", fam, raw.reverse_in("q", n))
    colored_sym = colored_eulerian(ctx, n, None)
    ck.eq(
        "colored specialisation r=q+1",
        colored_sym.substitute({"r": ctx.poly("q+1")}),
        fam,
    )


@_sweep(
    "thm18-crun",
    "the cycle-run gamma vectors: recurrence tables equal 4^cpk sums over crun classes",
    2,
    {"max_n": 8},
    {"max_n": 6},
    start=2,
)
def _run_thm18(ck, ctx, bounds, n):
    enum_plus: dict[int, int] = {}
    enum_minus: dict[int, int] = {}
    for (crun, cpk), cnt in marginal("plain", n, ("crun", "cpk_inf")).items():
        # odd crun = 2i+1 feeds xi+[i], even crun = 2i+2 feeds xi-[i]
        table = enum_plus if crun % 2 else enum_minus
        table[(crun - 1) // 2] = table.get((crun - 1) // 2, 0) + cnt * 4**cpk
    plus, minus = one_over_k_pm_tables(ctx, n, 2)
    for sign, rec, enum in (("+", plus, enum_plus), ("-", minus, enum_minus)):
        for i in sorted(set(rec) | set(enum)):
            ck.eq(f"xi{sign}[{i}]", rec.get(i, ctx.zero()), ctx.const(enum.get(i, 0)))
    lhs = gen_poly(ctx, "plain", n, {"exc": "x", "rlen": "k"}).substitute({"k": 2})
    a, b = one_over_k_decomposition(ctx, n, 2)
    ck.eq("decomposition", lhs, a + ctx.var("x") * b)
    if n == 3:
        xi_plus = {m: str(families.one_over_k_pm_polys(ctx, m, 2)[0]) for m in (2, 3)}
        ck.note("xi_plus[3]", xi_plus[3])
        ck.note("xi_plus_tables", xi_plus)


def _check_decomposition(ck, ctx, a, b, full, m):
    """``a + x b`` reassembles ``full``, and ``decompose`` of its length-``m``
    coefficients gives the same a and b."""
    ck.eq("reassembly", a + ctx.var("x") * b, full)
    da, db = decompose(CoeffSeq.from_poly(full, "x", m=m))
    ck.eq("a-part", a, da.to_poly(ctx))
    ck.eq("b-part", b, db.to_poly(ctx))


@_sweep(
    "rec-onek-decom",
    "the plus/minus recurrence system assembles the symmetric decomposition of A_n^{(k)}",
    2,
    {"max_n": 8, "ks": (1, 2, 3, 4)},
    {"max_n": 6, "ks": (1, 2, 3)},
    over="ks", start=1,
)
def _run_rec_onek_decom(ck, ctx, bounds, n, k):
    a, b = one_over_k_decomposition(ctx, n, k)
    _check_decomposition(ck, ctx, a, b, one_over_k_eulerian(ctx, n, k), max(n - 1, 0))


@_sweep(
    "rec-alpha-decom",
    "the colored plus/minus system assembles the symmetric decomposition of A_{n,r}(x)",
    2,
    {"max_n": 8, "rs": (1, 2, 3, 4)},
    {"max_n": 6, "rs": (2, 3)},
    over="rs",
)
def _run_rec_alpha_decom(ck, ctx, bounds, n, r):
    a, b = colored_decomposition(ctx, n, r)
    _check_decomposition(ck, ctx, a, b, colored_eulerian(ctx, n, r), n)
    if r >= 2 and n >= 1:
        plus, minus = alpha_tables(ctx, n, r)
        ck.ok(
            "nonnegative",
            all(c.constant_term() >= 0 for c in plus.values())
            and all(c.constant_term() >= 0 for c in minus.values()),
        )


# ---------------------------------------------------------------------------
# criterion 3: the substitution theorems
#
# Each left-hand side enumerates a signed or colored class; each right-hand
# side binds x, y and p in the grammar-generated A_n(x,y,p,q) and never
# enumerates S_n.
# ---------------------------------------------------------------------------


@_substitution_sweep(
    "thm9-signed-transform",
    "the six-variable signed Eulerian polynomial is a substituted plain Eulerian polynomial",
    {"max_n": 5},
    {"max_n": 4},
    kind="signed", weighting=SIGNED_B,
)
def _thm9_bindings(ctx, r):
    return {"x": ctx.poly("(1+p)*x"), "y": ctx.poly("(1+p)*y"), "p": ctx.poly("t+s*p")}


@_substitution_sweep(
    "thm12-signed-typeA",
    "the natural-order signed statistics arise from the substitution x -> x+py",
    {"max_n": 5},
    {"max_n": 4},
    kind="signed", weighting=SIGNED_A,
)
def _thm12_bindings(ctx, r):
    return {"x": ctx.poly("x+p*y"), "y": ctx.poly("(1+p)*y"), "p": ctx.poly("t+s*p")}


@_substitution_sweep(
    "thm22-colored-transform",
    "first multivariate colored Eulerian polynomial as a substituted plain one",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_F,
)
def _thm22_bindings(ctx, r):
    return {
        "x": r * ctx.var("x"),
        "y": r * ctx.var("y"),
        "p": (r - 1) * ctx.var("x") + ctx.var("p"),
    }


@_substitution_sweep(
    "thm24-colored-transform",
    "second colored transform: color sums enter through p-brackets",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_B,
)
def _thm24_bindings(ctx, r):
    br = q_bracket(ctx, r, "p")
    br1 = q_bracket(ctx, r - 1, "p")
    return {
        "x": br * ctx.var("x"), "y": br * ctx.var("y"),
        "p": ctx.var("t") + ctx.var("s") * ctx.var("p") * br1,
    }


@_substitution_sweep(
    "thm26-colored-transform",
    "third colored transform: natural-order statistics via x -> x + p[r-1]_p y",
    {"max_n": 4, "rs": (1, 2, 3)},
    {"max_n": 3, "rs": (1, 2)},
    kind="colored", weighting=COLORED_A,
)
def _thm26_bindings(ctx, r):
    br = q_bracket(ctx, r, "p")
    br1 = q_bracket(ctx, r - 1, "p")
    return {
        "x": ctx.var("x") + ctx.var("p") * br1 * ctx.var("y"),
        "y": br * ctx.var("y"),
        "p": ctx.var("t") + ctx.var("s") * ctx.var("p") * br1,
    }


# ---------------------------------------------------------------------------
# criterion 4: closed-form sign evaluations
# ---------------------------------------------------------------------------


@_sweep(
    "sign-anx11",
    "A_n(x,1,-1) collapses to -(x-1)^(n-1)",
    4,
    {"max_n": 7},
    {"max_n": 6},
    start=1,
)
def _run_sign_anx11(ck, ctx, bounds, n):
    lhs = fix_cyc_eulerian(ctx, n).substitute({"p": 1, "q": -1})
    rhs = -((ctx.var("x") - 1) ** (n - 1))
    ck.eq("", lhs, rhs)


@_sweep(
    "sign-anx12",
    "A_n(x,0,-1) collapses to -x [n-1]_x",
    4,
    {"max_n": 7},
    {"max_n": 6},
    start=1,
)
def _run_sign_anx12(ck, ctx, bounds, n):
    lhs = fix_cyc_eulerian(ctx, n).substitute({"p": 0, "q": -1})
    rhs = -(ctx.var("x") * q_bracket(ctx, n - 1, "x"))
    ck.eq("", lhs, rhs)


@_sweep(
    "sign-gamma-binomials",
    "the three binomial evaluations of gamma_n(x, ., -1)",
    4,
    {"max_n": 7},
    {"max_n": 6},
    start=2,
)
def _run_sign_gamma(ck, ctx, bounds, n):
    g = gamma_poly(ctx, n)

    def rhs(top, shift, sign):
        # sum_e sign * (-1)^e * comb(top - e, e) * x^(e + shift)
        rows = (((e + shift,), sign * (-1) ** e * comb(top - e, e)) for e in range(top + 1))
        return ctx.polynomial(["x"], rows)

    ck.eq("p=1", g.substitute({"p": 1, "q": -1}), rhs(n, 0, (-1) ** n))
    ck.eq("p=0", g.substitute({"p": 0, "q": -1}), rhs(n - 2, 1, -1))
    ck.eq("p=x", g.substitute({"p": ctx.var("x"), "q": -1}), rhs(2 * n - 2, 1, -1))


@_sweep(
    "sign-dnb-fexc",
    "signed derangements: the flag-excedance alternating-cycle sum telescopes",
    4,
    {"max_n": 7},
    {"max_n": 5},
    start=1,
)
def _run_sign_dnb(ck, ctx, bounds, n):
    lhs = gen_poly(
        ctx, "signed", n, {"fexc": "x", "neg": "p", "cyc": "q", "fix": "t"}
    ).substitute({"q": -1, "t": 0})
    # -sum_{i<n} x^(2i) - sum_{i<=n} p x^(2i-1)
    rhs = ctx.polynomial(
        ["x", "p"],
        [((2 * i, 0), -1) for i in range(1, n)] + [((2 * i - 1, 1), -1) for i in range(1, n + 1)],
    )
    ck.eq("", lhs, rhs)


def _colored_fexc_bindings(ctx: Context, r: int) -> dict:
    """Bindings that turn A_n(x,y,p,q) into the colored sum of x^fexc q^cyc.

    Colors are independent across positions once the underlying permutation
    is fixed: an excedance contributes x^r + x [r-1]_x and a drop [r]_x.  A
    fixed point takes any color (color 0 is a fixed point, x^0; color c > 0
    a singleton, x^c), so it contributes [r]_x too.
    """
    x = ctx.var("x")
    rest = q_bracket(ctx, r, "x")
    return {"x": x**r + x * q_bracket(ctx, r - 1, "x"), "y": rest, "p": rest}


@_sweep(
    "sign-bagno-garber",
    "colored flag excedances with alternating cycle signs collapse to -(x^r-1)^n/(x-1)",
    4,
    {"max_n": 7, "rs": (1, 2, 3), "direct_max_n": 4},
    {"max_n": 5, "rs": (1, 2), "direct_max_n": 3},
    over="rs", start=1,
)
def _run_bagno_garber(ck, ctx, bounds, n, r):
    lhs = _eulerian_xypq(ctx, n, _colored_fexc_bindings(ctx, r))
    if n <= bounds["direct_max_n"]:
        direct = gen_poly(ctx, "colored", n, {"fexc_r": "x", "cyc": "q"}, r=r)
        ck.eq("factorised vs direct", lhs, direct)
    signed = lhs.substitute({"q": -1})
    x = ctx.var("x")
    ck.eq(
        "",
        (x - 1) * signed,
        -((x**r - 1) ** n),
    )


@_sweep(
    "sign-anr-typeA",
    "flag excedances of colored derangements without singletons, at cycle sign -1",
    4,
    {"max_n": 7, "rs": (1, 2, 3), "direct_max_n": 4},
    {"max_n": 5, "rs": (1, 2), "direct_max_n": 3},
    over="rs", start=1,
)
def _run_sign_anr(ck, ctx, bounds, n, r):
    # p -> 0 keeps the permutations whose underlying pi has no fixed point
    lhs = _eulerian_xypq(ctx, n, {**_colored_fexc_bindings(ctx, r), "p": 0})
    if n <= bounds["direct_max_n"]:
        direct = gen_poly(
            ctx, "colored", n, {"fexc_r": "x", "cyc": "q", "fix": "t", "single": "t"}, r=r
        ).substitute({"t": 0})
        ck.eq("factorised vs direct", lhs, direct)
    x = ctx.var("x")
    rhs = -(x * q_bracket(ctx, n - 1, "x") * q_bracket(ctx, r, "x") ** n)
    ck.eq("", lhs.substitute({"q": -1}), rhs)


# ---------------------------------------------------------------------------
# criterion 5: gamma-coefficient interpretations
# ---------------------------------------------------------------------------


@_sweep(
    "cor-foata-gamma",
    "Eulerian gamma coefficients count no-double-descent permutations by descents",
    5,
    {"max_n": 8},
    {"max_n": 6},
    start=1,
)
def _run_foata(ck, ctx, bounds, n):
    an = gen_poly(ctx, "plain", n, {"des": "x"})
    table = {
        des: cnt
        for (dd, des), cnt in marginal("plain", n, ("dd", "des")).items()
        if dd == 0
    }
    ck.eq("basis sum", an, gamma_assemble(ctx, table, n - 1))
    gammas = gamma_expand(CoeffSeq.from_poly(an, "x", m=n - 1))
    ck.eq(
        "gamma vector",
        [int(g) for g in gammas],
        [table.get(i, 0) for i in range(len(gammas))],
    )


@_sweep(
    "cor-zeng-dnxq",
    "derangement q-polynomials expand over no-double-ascent derangements",
    5,
    {"max_n": 8},
    {"max_n": 6},
    start=1,
)
def _run_zeng(ck, ctx, bounds, n):
    rows = []  # the x^exc q^cyc rows of the derangements
    qrows: dict[int, list] = {k: [] for k in range(1, n // 2 + 1)}  # k -> the q^cyc rows
    for (fix, cda, exc, cyc), cnt in marginal("plain", n, ("fix", "cda", "exc", "cyc")).items():
        if fix == 0:
            rows.append(((exc, cyc), cnt))
            if cda == 0 and exc in qrows:
                qrows[exc].append(((cyc,), cnt))
    qsums = {k: ctx.polynomial(["q"], qs) for k, qs in qrows.items()}
    ck.eq("", ctx.polynomial(["x", "q"], rows), gamma_assemble(ctx, qsums, n))


@_sweep(
    "cor-petersen-lpk",
    "type-B Eulerian polynomials expand over left-peak counts with weight 4^i",
    5,
    {"max_n": 7},
    {"max_n": 5},
)
def _run_petersen(ck, ctx, bounds, n):
    bn = gen_poly(ctx, "signed", n, {"wexc": "x"})
    weighted = {
        lpk: 4**lpk * cnt
        for (lpk,), cnt in marginal("plain", n, ("lpk",)).items()
    }
    ck.eq("", bn, gamma_assemble(ctx, weighted, n))


@_sweep(
    "cor-springer",
    "no-double-ascent permutations weighted 2^(n-exc) sum to binomial Springer sums",
    5,
    {"max_n": 7},
    {"max_n": 6},
)
def _run_springer(ck, ctx, bounds, n):
    lhs = sum(
        cnt * 2 ** (n - exc)
        for (cda, exc), cnt in marginal("plain", n, ("cda", "exc")).items()
        if cda == 0
    )
    rhs = sum(comb(n, i) * springer(i) for i in range(n + 1))
    ck.eq("", lhs, rhs)


@_sweep(
    "cor-lpk-nocda",
    "left peaks are equidistributed with a 2-power weighting of no-double-ascent classes",
    5,
    {"max_n": 8},
    {"max_n": 6},
)
def _run_lpk_nocda(ck, ctx, bounds, n):
    lhs = gen_poly(ctx, "plain", n, {"lpk": "x"})
    rhs = ctx.polynomial(["x"], (
        ((exc,), cnt * 2 ** (n - fix - 2 * exc))
        for (cda, exc, fix), cnt in marginal("plain", n, ("cda", "exc", "fix")).items()
        if cda == 0
    ))
    ck.eq("", lhs, rhs)


# ---------------------------------------------------------------------------
# criterion 6: shape verdicts on exact coefficient sequences
# ---------------------------------------------------------------------------

GRID_POINTS = tuple(Fraction(i, 4) for i in range(5))
SPIRAL_POINTS = (Fraction(0), Fraction(1, 2), Fraction(1))
ALT_POINTS = (Fraction(1), Fraction(2), Fraction(3))
GAMMA_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))
BIGAMMA_POINTS = (Fraction(1), Fraction(2))


def _verdict(ck, label, poly, m, prop):
    """Check shape ``prop`` on the length-``m`` x-coefficients of ``poly``;
    a failure shows the coefficients."""
    seq = CoeffSeq.from_poly(poly, "x", m=m)
    ck.ok(label, shape_check(seq, prop), str(seq.coeffs))


@_sweep(
    "shape-anpq-grid",
    "A_n(x,p,q) is alternatingly increasing on the rational unit grid",
    6,
    {"max_n": 8},
    {"max_n": 6},
    start=1,
)
def _run_shape_grid(ck, ctx, bounds, n):
    fam = fix_cyc_eulerian(ctx, n)
    for pv in GRID_POINTS:
        for qv in GRID_POINTS:
            inst = fam.eval_rational({"p": pv, "q": qv})
            seq = CoeffSeq.from_poly(inst, "x", m=max(n - 1, 0))
            report = shape_report(seq)
            ck.ok(
                f"p={pv} q={qv} alternatingly increasing",
                report.verdicts["alternatingly_increasing"],
                str(seq.coeffs),
            )
            nonneg = all(c >= 0 for c in seq.coeffs)
            ck.ok(
                f"p={pv} q={qv} implication chain",
                shape.implications_hold(report.verdicts, nonneg),
                str(report.verdicts),
            )


@_sweep(
    "shape-onek-bigamma",
    "A_n(x, 1/k) and A_n^{(k)}(x) are bi-gamma-positive",
    6,
    {"max_n": 8, "ks": (1, 2, 3, 4)},
    {"max_n": 6, "ks": (1, 2, 3)},
    over="ks", start=1,
)
def _run_shape_onek(ck, ctx, bounds, n, k):
    m = max(n - 1, 0)
    rational = q_eulerian(ctx, n).eval_rational({"q": Fraction(1, k)})
    _verdict(ck, "A_n(x,1/k) bi-gamma", rational, m, "bi_gamma_positive")
    onek = one_over_k_eulerian(ctx, n, k)
    _verdict(ck, "A_n^(k) bi-gamma", onek, m, "bi_gamma_positive")
    ck.eq("scaling", onek, k**n * rational)


@_sweep(
    "shape-dnb-altinc",
    "type-B derangement polynomials are alternatingly increasing",
    6,
    {"max_n": 6},
    {"max_n": 5},
    start=1,
)
def _run_shape_dnb(ck, ctx, bounds, n):
    dnb = gen_poly(ctx, "signed", n, {"exc": "x", "fix": "t"}).substitute({"t": 0})
    ck.eq(
        "equals 2^n A_n(x,1/2,1)",
        dnb,
        (2**n * fix_cyc_eulerian(ctx, n)).eval_rational({"p": Fraction(1, 2)})
        .substitute({"q": 1}),
    )
    _verdict(ck, "alternatingly increasing", dnb, max(n - 1, 0), "alternatingly_increasing")


@_sweep(
    "shape-bnq-spiral",
    "B_n(x,q) is spiral for q <= 1 and alternatingly increasing for q >= 1",
    6,
    {"max_n": 7},
    {"max_n": 5},
    start=1,
)
def _run_shape_bnq(ck, ctx, bounds, n):
    fam = type_b_q_eulerian(ctx, n)
    for qv in SPIRAL_POINTS:
        _verdict(ck, f"q={qv} spiral", fam.eval_rational({"q": qv}), n, "spiral")
    for qv in ALT_POINTS:
        _verdict(
            ck, f"q={qv} alternatingly increasing", fam.eval_rational({"q": qv}), n,
            "alternatingly_increasing",
        )


@_sweep(
    "shape-dfexc-gamma",
    "flag-excedance derangement polynomials are gamma-positive; the full-group version is bi-gamma",
    6,
    {"max_n": 6},
    {"max_n": 5},
    start=1,
)
def _run_shape_dfexc(ck, ctx, bounds, n):
    dn = gen_poly(ctx, "signed", n, {"fexc": "x", "cyc": "q", "fix": "t"}).substitute({"t": 0})
    for qv in GAMMA_POINTS:
        _verdict(
            ck, f"q={qv} gamma-positive", dn.eval_rational({"q": qv}), 2 * n, "gamma_positive"
        )
    fn = gen_poly(ctx, "signed", n, {"fexc": "x", "neg": "p"})
    for pv in BIGAMMA_POINTS:
        _verdict(
            ck, f"p={pv} bi-gamma-positive", fn.eval_rational({"p": pv}), 2 * n - 1,
            "bi_gamma_positive",
        )


# ---------------------------------------------------------------------------
# criterion 7: the convolution recurrence and its specialisations
# ---------------------------------------------------------------------------


@_identity(
    "thm11-phi-recurrence",
    "the six-variable signed polynomial satisfies the binomial convolution with Phi",
    7,
    {"max_n": 6},
    {"max_n": 4},
)
def _run_thm11(bounds, rng, ck):
    ctx = Context()
    weights = {"exc": "x", "aexc": "y", "single": "s", "fix": "t", "neg": "p"}
    bs = [gen_poly(ctx, "signed", m, weights) for m in range(bounds["max_n"] + 1)]
    tsp = ctx.poly("t + s*p")
    onep = ctx.poly("1 + p")
    for n in range(2, bounds["max_n"] + 1):
        rhs = tsp**n + ctx.combine(
            (comb(n, k) * bs[k], phi_kernel(ctx, n - k) * onep ** (n - k))
            for k in range(n - 1)
        )
        ck.eq(f"n={n}", bs[n], rhs)


@_identity(
    "cor-four-specializations",
    "the four univariate convolution recurrences (classical, derangement, type B, type-B derangement)",
    7,
    {"max_n": 7},
    {"max_n": 5},
)
def _run_four_spec(bounds, rng, ck):
    ctx = Context()
    x = ctx.var("x")
    top = bounds["max_n"]
    a = [gen_poly(ctx, "plain", m, {"exc": "x"}) for m in range(top + 1)]
    d = [
        gen_poly(ctx, "plain", m, {"exc": "x", "fix": "t"}).substitute({"t": 0})
        for m in range(top + 1)
    ]
    b = [gen_poly(ctx, "signed", m, {"wexc": "x"}) for m in range(top + 1)]
    db = [
        gen_poly(ctx, "signed", m, {"exc": "x", "fix": "t"}).substitute({"t": 0})
        for m in range(top + 1)
    ]

    def geom(m):
        return x * q_bracket(ctx, m, "x")

    for n in range(2, top + 1):
        blocks = [comb(n, k) * geom(n - 1 - k) for k in range(n - 1)]
        rhs_a = ctx.combine([(1, 1), *zip(blocks, a)])
        rhs_d = ctx.combine(zip(blocks, d))
        doubled = [2 ** (n - k) * block for k, block in enumerate(blocks)]
        rhs_b = ctx.combine([(1, (1 + x) ** n), *zip(doubled, b)])
        rhs_db = ctx.combine([(1, 1), *zip(doubled, db)])
        ck.eq(f"n={n} classical", a[n], rhs_a)
        ck.eq(f"n={n} derangement", d[n], rhs_d)
        ck.eq(f"n={n} type B", b[n], rhs_b)
        ck.eq(f"n={n} type-B derangement", db[n], rhs_db)


# ---------------------------------------------------------------------------
# criterion 8: k-Stirling permutations
# ---------------------------------------------------------------------------


@_sweep(
    "stirling-ap-onek",
    "ascent plateaux of k-Stirling permutations generate A_n^{(k)} and its decomposition",
    8,
    {"max_n": 5, "ks": (1, 2, 3)},
    {"max_n": 4, "ks": (1, 2)},
    over="ks", start=1,
)
def _run_stirling(ck, ctx, bounds, n, k):
    ap_poly, lap_poly = permstats.stirling_identities(ctx, n, k)
    onek = one_over_k_eulerian(ctx, n, k)
    ck.eq("ascent plateaux", ap_poly, onek)
    ck.eq(
        "left plateaux are the reversal",
        lap_poly,
        ap_poly.reverse_in("x", n),
    )
    slices: dict[int, list] = {}  # first_block_constant -> the x^ap rows of its slice
    for (first, ap), cnt in marginal("stirling", n, ("first_block_constant", "ap"), k=k).items():
        slices.setdefault(first, []).append(((ap,), cnt))
    a_enum = ctx.polynomial(["x"], slices.get(1, ()))
    xb_enum = ctx.polynomial(["x"], slices.get(0, ()))
    a_rec, b_rec = one_over_k_decomposition(ctx, n, k)
    ck.eq("constant-first-block slice", a_enum, a_rec)
    ck.eq("complement slice", xb_enum, ctx.var("x") * b_rec)
    da, db = decompose(CoeffSeq.from_poly(ap_poly, "x", m=max(n - 1, 0)))
    ck.eq("a vs decompose", a_enum, da.to_poly(ctx))
    ck.eq("b vs decompose", xb_enum, ctx.var("x") * db.to_poly(ctx))


# ---------------------------------------------------------------------------
# criterion 9: the cycle action
# ---------------------------------------------------------------------------


@_identity(
    "fs-bijection",
    "the modified cycle action is a (n-i-2j)-to-one-cell bijection on every class",
    9,
    {"max_n": 8},
    {"max_n": 6},
)
def _run_fs(bounds, rng, ck):
    for n in range(1, bounds["max_n"] + 1):
        ck.ok(f"n={n} all cells", fsaction.verify_bijection_all(n))
    perm = fsaction.parse_cycles("(1,10,6,5,7,3,2,8)(4,9)")
    ck.eq("worked example CDD", fsaction.cdd_values(perm), [3, 6])
    img3 = fsaction.act(perm, 3)
    img6 = fsaction.act(perm, 6)
    ck.eq("worked example phi'_3", img3.cycle_string(), "(1,3,10,6,5,7,2,8)(4,9)")
    ck.eq("worked example phi'_6", img6.cycle_string(), "(1,6,10,5,7,3,2,8)(4,9)")

    def fix_cda_exc_cyc(p):
        stats = dict(zip(permstats.PLAIN_BASE, permstats.base_stats("plain", p.word)))
        return tuple(stats[name] for name in ("fix", "cda", "exc", "cyc"))

    ck.eq("example class", fix_cda_exc_cyc(perm), (0, 0, 4, 2))
    for img in (img3, img6):
        ck.eq("image class", fix_cda_exc_cyc(img), (0, 1, 5, 2))


# ---------------------------------------------------------------------------
# criterion 10: seeded property tests
# ---------------------------------------------------------------------------


def _random_poly(ctx, rng, nvars=3, max_terms=4, max_exp=3, big=False):
    vars_ = ("x", "y", "z")[:nvars]
    rows = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = rng.randint(-8, 8)
        if big and rng.random() < 0.3:
            coeff = rng.choice([-1, 1]) * (2**64 + rng.randint(0, 2**20))
        rows.append(([rng.randint(0, max_exp) for _ in vars_], coeff))
    return ctx.polynomial(vars_, rows)


@_property(
    "prop-ring-axioms",
    "ring axioms on random sparse polynomials with past-64-bit coefficients",
    10,
)
def _prop_ring(ctx, rng):
    f = _random_poly(ctx, rng, big=True)
    g = _random_poly(ctx, rng, big=True)
    h = _random_poly(ctx, rng)
    return (
        ((f + g) * h != f * h + g * h)
        + (f * g != g * f)
        + ((f * g) * h != f * (g * h))
        + (f + (-f) != ctx.zero())
    )


@_property(
    "prop-leibniz",
    "formal derivatives and grammar derivatives satisfy linearity and the product rule",
    10,
)
def _prop_leibniz(ctx, rng):
    f = _random_poly(ctx, rng)
    g = _random_poly(ctx, rng)
    var = rng.choice(("x", "y", "z"))
    failures = (f * g).differentiate(var) != f.differentiate(var) * g + f * g.differentiate(var)
    rules = {}
    for v in ("x", "y", "z"):
        if rng.random() < 0.7:
            rules[v] = _random_poly(ctx, rng, max_terms=2, max_exp=2)
    gram = Grammar(ctx, rules)
    failures += gram.derive(f * g) != gram.derive(f) * g + f * gram.derive(g)
    c1, c2 = rng.randint(-5, 5), rng.randint(-5, 5)
    failures += gram.derive(c1 * f + c2 * g) != c1 * gram.derive(f) + c2 * gram.derive(g)
    return failures


@_property(
    "prop-substitution",
    "substitution composes and full rational evaluation matches Horner evaluation",
    10,
)
def _prop_subst(ctx, rng):
    f = _random_poly(ctx, rng)
    g = _random_poly(ctx, rng, nvars=2, max_terms=2, max_exp=2)
    h = _random_poly(ctx, rng, nvars=1, max_terms=2, max_exp=2)
    step = f.substitute({"z": g}).substitute({"x": h})
    composed = f.substitute({"z": g.substitute({"x": h}), "x": h})
    point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for v in ("x", "y", "z")}
    direct = f.eval_rational(point)
    rest = {"y": point["y"], "z": point["z"]}
    horner = horner_eval([c.eval_rational(rest) for c in f.coeffs_in("x")], point["x"])
    return (step != composed) + (direct != horner)


def _random_gamma_positive(ctx, rng, m, zero_at_origin=False):
    table = {}
    for i in range(m // 2 + 1):
        if zero_at_origin and i == 0:
            continue
        if rng.random() < 0.8:
            table[i] = rng.randint(0, 6)
    if not table:
        table[1 if zero_at_origin and m >= 2 else 0] = rng.randint(1, 6)
    return gamma_assemble(ctx, table, m)


@_property(
    "prop-gamma-closure",
    "products of gamma-positive with (bi-)gamma-positive polynomials keep the property",
    10,
)
def _prop_gamma_closure(ctx, rng):
    mf = rng.randint(0, 5)
    mg = rng.randint(0, 5)
    f = _random_gamma_positive(ctx, rng, mf)
    g = _random_gamma_positive(ctx, rng, mg)
    seq = CoeffSeq.from_poly(f * g, "x", m=mf + mg)
    failures = not shape_check(seq, "gamma_positive")
    ga = _random_gamma_positive(ctx, rng, mg)
    gb = _random_gamma_positive(ctx, rng, mg - 1) if mg >= 1 else ctx.zero()
    seq_bi = CoeffSeq.from_poly(f * (ga + ctx.var("x") * gb), "x", m=mf + mg)
    return failures + (not shape_check(seq_bi, "bi_gamma_positive"))


@_property(
    "prop-gamma-derivative",
    "derivatives of gamma-positive polynomials vanishing at zero are bi-gamma-positive",
    10,
)
def _prop_gamma_derivative(ctx, rng):
    m = rng.randint(2, 8)
    f = _random_gamma_positive(ctx, rng, m, zero_at_origin=True)
    if f.constant_term() != 0:
        return 1
    # gamma_0 = 0 forces f_0 = f_m = 0, so f' has declared length m - 2
    seq = CoeffSeq.from_poly(f.differentiate("x"), "x", m=m - 2)
    return not shape_check(seq, "bi_gamma_positive")


# ---------------------------------------------------------------------------
# module invariants beyond the numbered criteria
# ---------------------------------------------------------------------------


@_property(
    "prop-decompose-unique",
    "symmetric decomposition is the unique symmetric pair reassembling random sequences",
    None,
)
def _prop_decompose(ctx, rng):
    m = rng.randint(0, 8)
    f = CoeffSeq.make(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m + 1)], m
    )
    a, b = decompose(f)
    sym_a = all(a[i] == a[a.m - i] for i in range(a.m + 1))
    sym_b = all(b[i] == b[b.m - i] for i in range(b.m + 1))
    back = all(
        a[i] + (b[i - 1] if 0 <= i - 1 <= b.m else 0) == f[i]
        for i in range(m + 1)
    )
    failures = not (sym_a and sym_b and back)
    # uniqueness: a symmetric perturbation that still reassembles must be zero
    if m >= 1:
        delta = [Fraction(0)] * (m + 1)
        j = rng.randint(0, m)
        delta[j] += 1
        delta[m - j] += 1 if j != m - j else 0
        a2, b2 = decompose(CoeffSeq.make([f[i] + delta[i] for i in range(m + 1)], m))
        failures += a2 == a and b2 == b
    return failures


@_sweep(
    "equidist-des-exc-drop",
    "descents, excedances and drops are equidistributed",
    None,
    {"max_n": 8},
    {"max_n": 6},
)
def _run_equidist(ck, ctx, bounds, n):
    des = gen_poly(ctx, "plain", n, {"des": "x"})
    exc = gen_poly(ctx, "plain", n, {"exc": "x"})
    drop = gen_poly(ctx, "plain", n, {"drop": "x"})
    ck.eq("des vs exc", des, exc)
    ck.eq("exc vs drop", exc, drop)


@_sweep(
    "equidist-desb-wexc",
    "type-B descents and weak excedances are equidistributed",
    None,
    {"max_n": 6},
    {"max_n": 5},
)
def _run_equidist_b(ck, ctx, bounds, n):
    ck.eq(
        "",
        gen_poly(ctx, "signed", n, {"des_B": "x"}),
        gen_poly(ctx, "signed", n, {"wexc": "x"}),
    )


@_identity(
    "stat-identities",
    "per-object statistic identities: cycle runs, flag excedances, order-based excedances",
    None,
    {"plain_max_n": 7, "signed_max_n": 4, "colored_max_n": 4, "rs": (1, 2, 3)},
    {"plain_max_n": 6, "signed_max_n": 3, "colored_max_n": 3, "rs": (1, 2)},
)
def _run_stat_identities(bounds, rng, ck):
    bad = 0
    for n in range(1, bounds["plain_max_n"] + 1):
        for obj, stats in permstats.enumerate_class("plain", n):
            runs = 0
            for cyc in obj.cycles():
                word = list(cyc) + [float("inf")]
                segment = 0
                direction = 0
                for i in range(len(word) - 1):
                    d = 1 if word[i + 1] > word[i] else -1
                    if d != direction:
                        segment += 1
                        direction = d
                runs += segment
            if stats["crun"] != runs or stats["crun"] != 2 * stats["cpk_inf"] + stats["cyc"]:
                bad += 1
            if not 1 <= stats["crun"] <= n:
                bad += 1
            if stats["exc"] + stats["drop"] + stats["fix"] != n:
                bad += 1
    for n in range(bounds["signed_max_n"] + 1):
        for obj, stats in permstats.enumerate_class("signed", n):
            word = obj.word
            exc_a = sum(1 for i, v in enumerate(word, 1) if v > i)
            neg = sum(1 for v in word if v < 0)
            if stats["fexc"] != 2 * exc_a + neg:
                bad += 1
            if stats["exc"] + stats["aexc"] + stats["fix"] + stats["single"] != n:
                bad += 1
    for r in bounds["rs"]:
        for n in range(bounds["colored_max_n"] + 1):
            for obj, stats in permstats.enumerate_class("colored", n, r=r):
                word = obj.word
                exc_f = sum(
                    1 for i, (v, c) in enumerate(word, 1)
                    if v > i or (v == i and c > 0)
                )
                if stats["exc_f"] != exc_f or stats["exc_f"] != stats["exc_B"] + stats["single"]:
                    bad += 1
                if stats["fexc_r"] != r * stats["exc_A"] + stats["csum"]:
                    bad += 1
    ck.eq("violations", bad, 0)


@_identity(
    "dnr-wexc-formula",
    "colored derangement q-polynomials equal the weak-excedance formula over S_n",
    None,
    {"max_n": 6, "rs": (1, 2, 3), "rev_max_n": 7},
    {"max_n": 4, "rs": (1, 2), "rev_max_n": 6},
)
def _run_dnr(bounds, rng, ck):
    for r in bounds["rs"]:
        for n in range(bounds["max_n"] + 1):
            ctx = Context()
            lhs = gen_poly(
                ctx, "colored", n, {"exc_f": "x", "cyc": "q", "fix": "t"}, r=r
            ).substitute({"t": 0})
            x = ctx.var("x")
            rhs = _eulerian_xypq(ctx, n, {"x": r * x, "y": r, "p": (r - 1) * x})
            ck.eq(f"r={r} n={n}", lhs, rhs)
    for n in range(bounds["rev_max_n"] + 1):
        ctx = Context()
        wexc_poly = gen_poly(ctx, "plain", n, {"wexc": "x", "fix": "p", "cyc": "q"})
        exc_poly = gen_poly(ctx, "plain", n, {"exc": "x", "fix": "p", "cyc": "q"})
        ck.eq(f"n={n} reversal", wexc_poly, exc_poly.reverse_in("x", n))


@_sweep(
    "mongelli-signed",
    "the two doubled-excedance formulas for signed permutations and their derangements",
    None,
    {"max_n": 6},
    {"max_n": 4},
)
def _run_mongelli(ck, ctx, bounds, n):
    lhs_full = gen_poly(
        ctx, "signed", n, {"exc_A": "u", "neg": "p"}
    ).substitute({"u": ctx.poly("x^2")})
    arg = ctx.poly("x^2 + p")
    onep = ctx.poly("1 + p")

    def lift(f, deg):
        # sum_j f_j (x^2 + p)^j (1 + p)^(deg - j)
        return ctx.combine((c, arg**j * onep ** (deg - j)) for j, c in enumerate(f.coeffs_in("x")))

    ck.eq("full group", lhs_full, lift(classical_eulerian(ctx, n), n))
    lhs_der = gen_poly(
        ctx, "signed", n, {"exc_A": "u", "neg": "p", "fix": "t"}
    ).substitute({"u": ctx.poly("x^2"), "t": 0})
    rhs_der = ctx.combine(
        (ctx.monomial({"p": n - k}, comb(n, k)), lift(derangement_poly(ctx, k), k))
        for k in range(n + 1)
    )
    ck.eq("derangements", lhs_der, rhs_der)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def identity_ids() -> list[str]:
    return list(REGISTRY)


def criterion_map() -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for ident in REGISTRY.values():
        if ident.criterion is not None:
            out.setdefault(ident.criterion, []).append(ident.id)
    return out


def run_verify(
    ident: str,
    *,
    profile: str = "full",
    overrides: Optional[dict] = None,
    seed: int = DEFAULT_SEED,
) -> IdentityResult:
    record = REGISTRY.get(ident)
    if record is None:
        raise UnknownIdentity(ident)
    bounds = record.effective_bounds(profile, overrides)
    ck = Checker()
    mismatches = ck.mismatches
    start = time.monotonic()
    try:
        record.run(bounds, random.Random(f"{seed}:{ident}"), ck)
    except SizeExceeded as exc:
        # a skip reports the checks made before the guard fired, not their mismatches
        status, detail, mismatches = "skipped", f"size guard: {exc}", []
    except Exception as exc:
        # a refuted route can raise (a shape helper on an asymmetric row, say):
        # that is this identity's failure, not bad input to the suite
        raised = f"{type(exc).__name__}: {exc}"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        mismatches.append({
            "context": ck.label("raised"), "lhs": "no exception", "rhs": raised,
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        })
        status, detail = "fail", f"raised {raised}"
    else:
        if mismatches:
            status, detail = "fail", f"{len(mismatches)} mismatch(es)"
        elif ck.checks:
            status, detail = "pass", ""
        else:
            status, detail = "vacuous", "no comparison ran"
    return IdentityResult(
        ident, status, time.monotonic() - start, detail, ck.details, mismatches, ck.checks
    )


def _run_one(args):
    ident, profile, seed = args
    # run_verify is read at call time, so a tracer that rebinds it reaches the workers
    return run_verify(ident, profile=profile, seed=seed)


def run_suite(
    *,
    profile: str = "full",
    ids: Optional[list[str]] = None,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> list[IdentityResult]:
    """Run a deterministic-ordered batch of identities, optionally in parallel;
    forked workers inherit the environment, and with it the size guard.

    The pool has ``min(jobs, len(selected))`` workers and is sent one identity
    per dispatch, so a worker that draws a slow identity does not hold a
    queue of others behind it; results come back in the batch's order.
    """
    _check_profile(profile)
    if type(jobs) is not int or jobs < 1:
        raise BadOverride(f"jobs must be an int >= 1, got {jobs!r}")
    selected = ids if ids is not None else identity_ids()
    for ident in selected:
        if ident not in REGISTRY:
            raise UnknownIdentity(ident)
    if jobs > 1 and len(selected) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(jobs, len(selected))) as pool:
            batch = [(ident, profile, seed) for ident in selected]
            return pool.map(_run_one, batch, chunksize=1)
    return [run_verify(ident, profile=profile, seed=seed) for ident in selected]
