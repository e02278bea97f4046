import json
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from excedance_lab import multipoly
from excedance_lab.families import family
from excedance_lab.multipoly import (
    BadCoefficient,
    BadInput,
    Context,
    ExponentOverflow,
    ParseError,
    Poly,
    as_fraction,
    horner_eval,
    poly_from_json,
    _normalised,
)
from excedance_lab.shape import CoeffSeq

from oracles import descent_counts, signed_words, signed_exc, signed_fix


@pytest.fixture
def ctx():
    return Context()


def test_binomial_square(ctx):
    x = ctx.var("x")
    assert (1 + x) * (1 + x) == ctx.poly("1 + 2*x + x^2")


def test_difference_of_squares(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    assert (x - y) * (x + y) == x**2 - y**2


def test_eulerian_four_from_gamma_basis(ctx):
    # (1+x)^3 + 8x(1+x) must equal the descent polynomial of S_4
    x = ctx.var("x")
    lhs = (1 + x) ** 3 + 8 * x * (1 + x)
    expected = ctx.zero()
    for des, cnt in descent_counts(4).items():
        expected = expected + cnt * x**des
    assert lhs == expected
    assert lhs == ctx.poly("1 + 11*x + 11*x^2 + x^3")


def test_pow_rejects_negative(ctx):
    with pytest.raises(ValueError):
        ctx.var("x") ** -1


def test_differentiate_basics(ctx):
    assert ctx.poly("x^2*y").differentiate("x") == ctx.poly("2*x*y")
    assert ctx.const(17).differentiate("x") == ctx.zero()
    assert ctx.poly("5*y").differentiate("x").is_zero()
    # integral fractions come back as int, as everywhere in the module
    d = ctx.poly("x^2/2").differentiate("x")
    assert d == ctx.var("x") and type(d.coeffs_in("x")[1].constant_term()) is int


def test_differentiate_recurrence_step(ctx):
    # one derivative-recurrence step lifts q(x+q) to the next cycle polynomial
    x, q = ctx.var("x"), ctx.var("q")
    a2 = q * (x + q)
    a3 = (2 * x + q) * a2 + x * (1 - x) * a2.differentiate("x")
    assert a3 == ctx.poly("q^3 + (q + 3*q^2)*x + q*x^2")


def test_substitute_examples(ctx):
    f = ctx.poly("u + v")
    assert f.substitute({"u": ctx.poly("x+y"), "v": ctx.poly("x*y")}) == ctx.poly("x + y + x*y")
    g = ctx.poly("x*y*(x+y)")
    assert g.substitute({"y": 1}) == ctx.poly("x*(x+1)")


def test_substitute_known_decomposition_pair(ctx):
    a = ctx.poly("1 + 7*x + x^2")
    b = ctx.poly("3 + 3*x")
    assert a + ctx.var("x") * b == ctx.poly("1 + 10*x + 4*x^2")


def test_eval_rational_signed_derangement_cross_check(ctx):
    # 8*A_3(x, p, 1) at p = 1/2 equals the excedance polynomial of the
    # fixed-point-free signed permutations of order 3
    a3 = ctx.poly("p^3*q^3 + (q + 3*p*q^2)*x + q*x^2")
    lhs = (8 * a3).eval_rational({"p": Fraction(1, 2)}).substitute({"q": 1})
    counts = {}
    for word in signed_words(3):
        if signed_fix(word) == 0:
            e = signed_exc(word)
            counts[e] = counts.get(e, 0) + 1
    expected = ctx.zero()
    for e, c in counts.items():
        expected = expected + c * ctx.var("x") ** e
    assert lhs == expected == ctx.poly("1 + 20*x + 8*x^2")


def _substitute_reference(f, bindings):
    """Term by term with ``Poly`` ``*`` and ``**``: each bound variable's value
    (a raw scalar as a constant) raised to its exponent, each free variable
    kept as itself."""
    ctx = f.ctx
    total = ctx.zero()
    for key, c in f.terms.items():
        piece = ctx.const(c)
        for vid, e in key:
            name = ctx.name(vid)
            value = bindings.get(name, ctx.var(name))
            if not isinstance(value, Poly):
                value = ctx.const(as_fraction(value))
            piece = piece * value ** e
        total = total + piece
    return total


def _snapshot(f, bindings):
    """Copies of ``f``'s terms and of every binding, to show nothing was mutated."""
    return dict(f.terms), {
        name: dict(v.terms) if isinstance(v, Poly) else v for name, v in bindings.items()
    }


def test_substitute_matches_a_term_by_term_reference(ctx):
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    polys = [
        ctx.const(Fraction(2, 3)), ctx.const(Fraction(-3, 2)), ctx.zero(), ctx.const(5),
        x - y, x + y, x * y + 1, z**2 - 2 * x, Fraction(1, 2) * y + Fraction(1, 2),
        _random_terms(ctx, random.Random("substitute:value"), fractions=True),
    ]
    scalars = [7, Fraction(-5, 4), 0, "3/7"]  # raw values, not polynomials
    rng = random.Random("substitute")
    mixed = {False: 0, True: 0}  # calls binding both kinds, by Fraction coefficients in f
    for _ in range(300):
        fractions = rng.random() < 0.3
        f = _random_terms(ctx, rng, fractions=fractions) * (z ** rng.randint(0, 2))
        names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
        bindings = {name: rng.choice(polys + scalars) for name in names}
        before = _snapshot(f, bindings)
        got = f.substitute(bindings)
        assert got.terms == _substitute_reference(f, bindings).terms
        assert all(c != 0 for c in got.terms.values())
        assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
                   for c in got.terms.values())
        assert _snapshot(f, bindings) == before
        if {isinstance(v, Poly) for v in bindings.values()} == {False, True}:
            mixed[fractions] += 1
    assert all(mixed.values()), mixed
    # cancelling values: (x - y)(x + y) = x^2 - y^2
    assert ctx.poly("x*y").substitute({"x": x - y, "y": x + y}) == ctx.poly("x^2 - y^2")
    assert ctx.poly("x - y").substitute({"x": y, "y": x}) == ctx.poly("y - x")
    half = ctx.const(Fraction(1, 2))
    assert type(ctx.poly("4*x^2").substitute({"x": half}).constant_term()) is int
    assert type(ctx.poly("4*x^2").substitute({"x": "1/2"}).constant_term()) is int
    # a zero scalar kills the terms it binds, with or without other bindings
    assert ctx.poly("x^2*y + 3*y + x").substitute({"x": 0}) == 3 * y
    assert ctx.poly("x^2*y + 3*y + x").substitute({"x": 0, "y": x + 1}) == 3 * x + 3


def test_a_rational_point_multiplies_no_polynomials(ctx, monkeypatch):
    """Evaluation at a rational point scales coefficients by ints: no ``Poly``
    product is made, not even for the powers of the point."""
    f = family(ctx, "A_pq", 12)
    products = []

    def counted(mul):
        def wrapper(*args):
            products.append(mul.__name__)
            return mul(*args)
        return wrapper

    monkeypatch.setattr(multipoly, "_product", counted(multipoly._product))
    monkeypatch.setattr(Poly, "__mul__", counted(Poly.__mul__))
    got = f.eval_rational({"p": "1/3", "q": "2/5"})
    assert products == []
    monkeypatch.undo()
    point = {"p": ctx.const(Fraction(1, 3)), "q": ctx.const(Fraction(2, 5))}
    assert got == _substitute_reference(f, point)


def test_eval_rational_simple(ctx):
    a2 = ctx.poly("p^2*q^2 + q*x")
    assert a2.eval_rational({"p": 1, "q": 1}) == ctx.poly("1 + x")
    assert a2.eval_rational({}) == a2


def test_coeffs_in(ctx):
    a2 = ctx.poly("p^2*q^2 + q*x")
    coeffs = a2.coeffs_in("x")
    assert coeffs == [ctx.poly("p^2*q^2"), ctx.var("q")]
    assert ctx.const(5).coeffs_in("x") == [ctx.const(5)]
    a4 = ctx.poly(
        "p^4*q^4 + (q + 4*p*q^2 + 6*p^2*q^3)*x + (4*q + 3*q^2 + 4*p*q^2)*x^2 + q*x^3"
    )
    assert a4.coeffs_in("x")[2] == ctx.poly("4*q + 3*q^2 + 4*p*q^2")


def test_coeffs_in_reassembles(ctx):
    f = ctx.poly("3*x^2*y - 2*x + 7*y^3 + 5")
    x = ctx.var("x")
    total = ctx.zero()
    for i, c in enumerate(f.coeffs_in("x")):
        total = total + c * x**i
    assert total == f


def test_reverse_in(ctx):
    f = ctx.poly("1 + 3*x + 2*x^2")
    assert f.reverse_in("x", 2) == ctx.poly("2 + 3*x + x^2")
    assert f.reverse_in("x", 3) == ctx.poly("2*x + 3*x^2 + x^3")
    with pytest.raises(ValueError):
        f.reverse_in("x", 1)


def _reverse_by_coefficients(f, var, length):
    v = f.ctx.var(var)
    return f.ctx.combine((c, v ** (length - i)) for i, c in enumerate(f.coeffs_in(var)) if c)


def test_reverse_in_agrees_with_the_coefficient_list():
    rng = random.Random(29)
    for i in range(60):
        ctx = Context()
        f = ctx.polynomial(
            ["x", "y", "z"],
            [
                (
                    [rng.randint(0, 5) for _ in range(3)],
                    rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))]),
                )
                for _ in range(rng.randint(0, 5))
            ],
        )
        if i % 3 == 0:
            f = f * ctx.var("x")  # no term free of x
        deg = len(f.coeffs_in("x")) - 1
        for length in (deg, deg + 1, deg + rng.randint(2, 9), LIMIT - 1, LIMIT):
            try:
                expected = _reverse_by_coefficients(f, "x", length)
            except ExponentOverflow:
                with pytest.raises(ExponentOverflow):
                    f.reverse_in("x", length)
                continue
            got = f.reverse_in("x", length)
            assert got.to_json_obj() == expected.to_json_obj()
            assert got.reverse_in("x", length) == f
        if deg:
            with pytest.raises(ValueError):
                f.reverse_in("x", deg - 1)
    zero = Context().zero()
    assert zero.reverse_in("x", 0).is_zero() and zero.reverse_in("x", LIMIT).is_zero()
    with pytest.raises(ValueError):
        zero.reverse_in("x", -1)
    ctx = Context()
    with pytest.raises(ExponentOverflow):
        ctx.poly("1 + x").reverse_in("x", LIMIT)
    assert ctx.poly("x + x^2").reverse_in("x", LIMIT) == ctx.poly(
        f"x^{LIMIT - 1} + x^{LIMIT - 2}"
    )


def test_canonical_text_and_parse_round_trip(ctx):
    f = ctx.poly("q*x + p^2*q^2")
    assert f.to_text() == "p^2*q^2 + q*x"
    assert ctx.poly(f.to_text()) == f
    g = ctx.poly("x^2 - y^2")
    assert g.to_text() == "x^2 - y^2"
    assert ctx.poly(g.to_text()) == g
    assert ctx.zero().to_text() == "0"
    assert ctx.poly("0").is_zero()


def test_fraction_coefficients_render_and_parse(ctx):
    f = ctx.poly("x").eval_rational({"x": Fraction(1, 1)}) + ctx.poly("3/4*x")
    assert ctx.poly(f.to_text()) == f


def test_json_round_trip(ctx):
    f = ctx.poly("p^2*q^2 + q*x - 5")
    data = json.loads(f.to_json())
    assert data[0]["coeff"] == "-5"
    assert poly_from_json(ctx, data) == f
    other = Context()
    assert poly_from_json(other, f.to_json()) == other.poly("p^2*q^2 + q*x - 5")


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: ctx.const(True),
        lambda ctx: ctx.combine([(True, ctx.var("y")), (1, True)]),
        lambda ctx: ctx.var("x") + True,
        lambda ctx: ctx.polynomial(["x"], [((1,), True)]),
    ],
)
def test_a_bool_coefficient_is_stored_as_an_int(ctx, build):
    # a stored True printed as "True", which poly_from_json rejects
    f = build(ctx)
    assert poly_from_json(ctx, f.to_json()) == f


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: ctx.const(0.5),
        lambda ctx: ctx.const(None),
        lambda ctx: ctx.polynomial(["x"], [((1,), 0.5)]),
        # a float that cancels is refused too, not dropped as a zero
        lambda ctx: ctx.polynomial(["x"], [((1,), 0.5), ((1,), -0.5)]),
        lambda ctx: ctx.polynomial(["x"], [((1,), ctx.var("y"))]),
        lambda ctx: ctx.monomial({"x": 1}, 0.5),
        lambda ctx: Poly(ctx, {((ctx.varid("x"), 1),): 0.5}),
        lambda ctx: Poly(ctx, {(): None}),
        lambda ctx: CoeffSeq.make([0.5, 1]).to_poly(ctx),
        lambda ctx: ctx.combine([(1, ctx.var("x")), (1, 0.5)]),
        lambda ctx: ctx.combine([(ctx.var("x"), 0.5)]),
    ],
)
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(ctx, build):
    with pytest.raises(BadCoefficient) as exc:
        build(ctx)
    assert isinstance(exc.value, BadInput) and isinstance(exc.value, TypeError)


def test_an_operator_given_a_float_returns_not_implemented(ctx):
    x = ctx.var("x")
    for op in (x.__add__, x.__radd__, x.__sub__, x.__rsub__, x.__mul__, x.__rmul__, x.__eq__):
        assert op(0.5) is NotImplemented
    with pytest.raises(TypeError):
        x + 0.5


def test_cross_context_equality(ctx):
    other = Context(["q", "x", "p"])  # different interning order
    assert ctx.poly("p^2*q^2 + q*x") == other.poly("q*x + p^2*q^2")


def test_constants_hash_as_their_scalars(ctx):
    for c in (0, 3, -7, 2**70, Fraction(3, 2), Fraction(-1, 3), Fraction(4, 2)):
        assert ctx.const(c) == c and hash(ctx.const(c)) == hash(c)
        assert len({ctx.const(c), c}) == 1
    assert hash(ctx.zero()) == hash(0) and len({ctx.zero(), 0}) == 1
    assert hash(ctx.poly("6/4")) == hash(Fraction(3, 2))
    # equal polynomials from two contexts still hash equal, constants included
    other = Context(["q", "x", "p"])
    for text in ("p^2*q^2 + q*x - 5", "3", "0", "1/2"):
        assert hash(ctx.poly(text)) == hash(other.poly(text))


def test_parse_errors(ctx):
    for bad in ("", "x +", "x ^ y", "(x", "x $ y", "1/(x+1)"):
        with pytest.raises(ParseError):
            ctx.poly(bad)
    # nesting past the depth limit: a ParseError, never a RecursionError
    for deep in (
        "(" * 300 + "x" + ")" * 300, "2*" + "-" * 1000 + "x", "x^(" * 150 + "1" + ")" * 150,
    ):
        with pytest.raises(ParseError, match="nested deeper than 100 levels"):
            ctx.poly(deep)


def test_nesting_at_the_depth_limit_parses(ctx):
    assert ctx.poly("(" * 100 + "x" + ")" * 100) == ctx.var("x")
    assert ctx.poly("2*" + "-" * 100 + "x") == ctx.poly("2*x")
    assert ctx.poly("-" * 1000 + "x") == ctx.var("x")  # leading signs do not nest


@pytest.mark.parametrize(
    "text, message",
    [
        ("x/0", "division by zero"),
        ("1/0", "division by zero"),
        ("x/(1-1)", "division by zero"),
        ("x/y", "division by a non-constant"),
    ],
)
def test_division_errors_name_the_divisor(ctx, text, message):
    with pytest.raises(ParseError) as err:
        ctx.poly(text)
    assert str(err.value) == message


def test_as_fraction():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)
    with pytest.raises(ParseError):
        as_fraction("x")


def test_horner_matches_eval(ctx):
    f = ctx.poly("2*x^3 - x + 4")
    point = Fraction(5, 3)
    direct = f.eval_rational({"x": point})
    via_horner = horner_eval(f.coeffs_in("x"), point)
    assert direct == via_horner


# -- sums through Context.combine: each summand p is the pair (1, p) ------------


def _plain_sum(ctx, summands):
    return ctx.combine((1, p) for p in summands)


def _random_terms(ctx, rng, fractions=False):
    total = ctx.zero()
    for _ in range(rng.randint(0, 5)):
        coeff = rng.randint(-6, 6)
        if fractions:
            coeff = Fraction(coeff, rng.randint(1, 3))
        exps = {"x": rng.randint(0, 3), "y": rng.randint(0, 2)}
        total = total + ctx.monomial(exps, coeff)
    return total


@pytest.mark.parametrize("fractions", [False, True])
def test_sum_equals_left_fold_and_leaves_inputs_alone(ctx, fractions):
    rng = random.Random(f"context-sum:{fractions}")
    for _ in range(300):
        polys = [_random_terms(ctx, rng, fractions) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            # cancel part of the total, or all of it
            polys.append(-reduce(operator.add, polys[: rng.randint(1, len(polys))]))
        before = [dict(p.terms) for p in polys]
        folded = reduce(operator.add, polys)
        got = _plain_sum(ctx, polys)
        assert got.terms == folded.terms
        assert all(c != 0 for c in got.terms.values())
        assert [p.terms for p in polys] == before
        assert _plain_sum(ctx, iter(polys)) == folded


def test_sum_cancels_to_zero(ctx):
    f, g = ctx.poly("3*x^2 - y + 1"), ctx.poly("x*y - 1")
    total = _plain_sum(ctx, [f, g, -(f + g)])
    assert total.is_zero() and total.terms == {}
    assert f == ctx.poly("3*x^2 - y + 1") and g == ctx.poly("x*y - 1")


def test_sum_normalises_integral_fractions(ctx):
    x = ctx.var("x")
    third = ctx.const(Fraction(1, 3))
    total = _plain_sum(ctx, [third * x, ctx.const(Fraction(2, 3)) * x, third, third, third])
    assert total.terms == {((ctx.varid("x"), 1),): 1, (): 1}
    assert all(type(c) is int for c in total.terms.values())
    assert _plain_sum(ctx, [third, third]).constant_term() == Fraction(2, 3)


def test_len_counts_terms(ctx):
    assert len(ctx.zero()) == 0 and not ctx.zero()
    assert len(ctx.poly("x + 2*y + 3")) == 3
    assert len(ctx.poly("x + x - 2*x + y")) == 1  # equal monomials merge, zeros drop
    assert len(ctx.poly("(1 + x)^20")) == 21
    f = ctx.poly("x*y^2 - 3/2*z + 1")
    assert len(f) == len(f.terms) == len(f.to_json_obj()) == 3


def test_sum_of_nothing_is_zero(ctx):
    assert ctx.combine([]).terms == {}
    assert ctx.combine(pair for pair in ()).is_zero()


def test_sum_rejects_a_foreign_context(ctx):
    with pytest.raises(ValueError):
        _plain_sum(ctx, [ctx.var("x"), Context().var("x")])


def test_sum_takes_scalars_as_plus_does(ctx):
    x = ctx.var("x")
    assert _plain_sum(ctx, [x, 1]) == x + 1 and _plain_sum(ctx, [1, x]) == 1 + x
    total = _plain_sum(ctx, [Fraction(1, 2), x, Fraction(3, 2), 0, -x])
    assert total.terms == {(): 2} and type(total.constant_term()) is int
    assert _plain_sum(ctx, [Fraction(1, 3), 2]).constant_term() == Fraction(7, 3)
    assert _plain_sum(ctx, [1, -1]).is_zero() and _plain_sum(ctx, [0]).is_zero()
    assert ctx.combine([(2, 3), (Fraction(1, 2), -6)]) == ctx.const(3)
    for bad in (1.5, "x", None):
        with pytest.raises(TypeError):
            _plain_sum(ctx, [x, bad])


# -- Context.combine ----------------------------------------------------------


def test_combine_leaves_its_inputs_alone(ctx):
    f, g = ctx.poly("3*x^2 - y + 1"), ctx.poly("x*y - 1/2")
    pairs = [(f, g), (g, f), (2, f), (g, Fraction(3, 2)), (f, f), (-f, f)]
    snapshot = lambda: [_typed(v._t) if isinstance(v, Poly) else v for pair in pairs for v in pair]
    before = snapshot()
    assert ctx.combine(pairs) == 2 * f * g + 2 * f + Fraction(3, 2) * g
    assert snapshot() == before


def test_combine_rejects_a_foreign_context_and_other_types(ctx):
    x, foreign = ctx.var("x"), Context().var("x")
    for pairs in ([(x, foreign)], [(foreign, x)], [(x, x), (2, foreign)], [(foreign, 0)]):
        with pytest.raises(ValueError):
            ctx.combine(pairs)
    for bad in (1.5, "x", None):
        with pytest.raises(TypeError):
            ctx.combine([(x, bad)])
        with pytest.raises(TypeError):
            ctx.combine([(bad, x)])


def test_combine_checks_the_guard_bits_before_zero_sums_drop(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    top = x ** (LIMIT - 1)
    # x^LIMIT cancels, but its key set the guard bit on the way
    with pytest.raises(ExponentOverflow):
        ctx.combine([(top, x), (-top, x)])
    with pytest.raises(ExponentOverflow):
        ctx.combine([(y, top + 1), (x * y, top), (-y, top + 1), (-x, top * y)])
    assert ctx.combine([(top, 1), (-1, top)]).is_zero()
    assert ctx.combine([(x ** (LIMIT - 2), x), (top, y)]) == top * (1 + y)


def test_polynomial_from_rows(ctx):
    # a repeated name adds its exponents, equal monomials merge, zeros drop
    rows = [
        ((1, 0, 1), 2), ((2, 0, 0), 3), ((0, 1, 0), 0),
        ((0, 0, 0), Fraction(4, 2)), ((0, 2, 0), 1), ((0, 2, 0), -1),
    ]
    f = ctx.polynomial(["x", "y", "x"], rows)
    assert f == ctx.poly("5*x^2 + 2")
    assert type(f.constant_term()) is int
    assert ctx.polynomial([], []).is_zero()
    with pytest.raises(ValueError):
        ctx.polynomial(["x"], [((-1,), 1)])
    with pytest.raises(ParseError):
        ctx.polynomial([0], [((1,), 1)])


@pytest.mark.parametrize(
    "names, exponents",
    [
        (["x", "y"], (1,)),  # too few exponents
        (["x"], (1, 2)),  # too many
        (["x", "y", "x"], (1, 2)),  # the same, where a repeated name folds
        (["x", "x"], (1, 2, 3)),
    ],
)
def test_polynomial_rows_must_align_with_names(ctx, names, exponents):
    # a misaligned row is an error, never cut to the shorter side
    with pytest.raises(ParseError, match="does not align"):
        ctx.polynomial(names, [((0,) * len(names), 1), (exponents, 3)])


@pytest.mark.parametrize(
    "document, message",
    [
        ('[{"exponents": {"x": -1}, "coeff": "2"}]', "negative exponent -1 of x"),
        ([{"exponents": {"x": "2"}, "coeff": "2"}], "integers"),
        ([{"exponents": {"x": 1.5}, "coeff": "2"}], "integers"),
        ([{"exponents": {"x": True}, "coeff": "2"}], "integers"),
        ([{"coeff": "2"}], "needs exponents and coeff"),
        ([{"exponents": {"x": 1}}], "needs exponents and coeff"),
        ([3], "needs exponents and coeff"),
        ({"exponents": {"x": 1}, "coeff": "2"}, "list of terms, got dict"),
        ("7", "list of terms, got int"),
        ("x + 1", "does not parse"),
    ],
)
def test_malformed_json_documents_raise_parse_error(ctx, document, message):
    with pytest.raises(ParseError, match=message):
        poly_from_json(ctx, document)


def test_negative_exponents_raise_parse_error(ctx):
    # on the plain path, the repeated-name path and through monomial alike
    for call in (
        lambda: ctx.polynomial(["x"], [((-3,), 1)]),
        lambda: ctx.polynomial(["x", "y", "x"], [((1, 0, -2), 1)]),
        lambda: ctx.monomial({"y": -1}),
    ):
        with pytest.raises(ParseError, match="negative exponent"):
            call()
    assert issubclass(ParseError, ValueError)


@pytest.mark.parametrize("e", [1.5, 1.0])
def test_float_exponents_raise_parse_error(ctx, e):
    # on the plain path, the repeated-name path, through monomial and through
    # a tuple key alike; ``**`` already refused one
    for call in (
        lambda: ctx.polynomial(["x"], [((e,), 1)]),
        lambda: ctx.polynomial(["x", "x"], [((e, 1), 1)]),
        lambda: ctx.monomial({"x": e}),
        lambda: Poly(ctx, {((ctx.varid("x"), e),): 1}),
    ):
        with pytest.raises(ParseError, match="is not an int"):
            call()
    with pytest.raises(ParseError):
        ctx.var("x") ** e


# -- packed keys -------------------------------------------------------------

LIMIT = 1 << 19  # exponents stay below each field's guard bit


def test_exponent_past_the_field_width_raises(ctx):
    x = ctx.var("x")
    with pytest.raises(ExponentOverflow):
        x ** LIMIT
    with pytest.raises(ExponentOverflow):
        ctx.poly("x^524288")
    with pytest.raises(ExponentOverflow):
        ctx.polynomial(["x"], [((LIMIT,), 1)])
    with pytest.raises(ExponentOverflow):
        ctx.polynomial(["x", "x", "x"], [((LIMIT - 1, LIMIT - 1, LIMIT - 1), 1)])
    with pytest.raises(ExponentOverflow):
        Poly(ctx, {((ctx.varid("x"), LIMIT),): 1})
    half = x ** (1 << 18)
    with pytest.raises(ExponentOverflow):
        half * half
    # the guard covers every interned variable's field, not only the first
    with pytest.raises(ExponentOverflow):
        ctx.var("y") ** LIMIT


def test_largest_exponent_works(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    top = x ** (LIMIT - 1)
    assert top.degree("x") == LIMIT - 1 and top.to_text() == f"x^{LIMIT - 1}"
    assert ctx.poly(top.to_text()) == top
    z = ctx.var("z")
    f = top * y ** (LIMIT - 1) * (1 + z)
    assert f.degree("x") == f.degree("y") == LIMIT - 1 and f.degree("z") == 1
    assert f.differentiate("y") == (LIMIT - 1) * top * y ** (LIMIT - 2) * (1 + z)
    with pytest.raises(ExponentOverflow):
        top * x


def test_substitution_past_the_field_width_raises(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    # in the power table
    with pytest.raises(ExponentOverflow):
        (x ** (1 << 18)).substitute({"x": x**2})
    with pytest.raises(ExponentOverflow):
        (x**2).substitute({"x": y ** (1 << 18)})
    # unchecked, y^(2^18)^4 would carry out of y's field into the next one
    with pytest.raises(ExponentOverflow):
        (x**4).substitute({"x": y ** (1 << 18)})
    # in the product of a term's free monomial with its powers, in y's field
    with pytest.raises(ExponentOverflow):
        (x * y ** (LIMIT - 1)).substitute({"x": y})
    assert (x * y ** (LIMIT - 2)).substitute({"x": y}) == y ** (LIMIT - 1)


# the general kernel written out: every term pair, then the canonical pass
def _general_product(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + ca * cb
    return _normalised(out)


def _typed(store):
    return {key: (type(c), c) for key, c in store.items()}


def _random_store(rng, ctx):
    rows = []
    for _ in range(rng.randint(0, 6)):
        c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        rows.append(([rng.randint(0, 5) for _ in range(3)], c))
    return ctx.polynomial(["x", "y", "z"], rows)


def test_single_term_products_match_the_general_kernel(ctx):
    rng = random.Random(20261019)
    scalars = [0, 1, -1, 2, -7, 2**70, Fraction(3, 2), Fraction(-1, 3), Fraction(2)]
    for _ in range(200):
        f = _random_store(rng, ctx)
        c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        exps = {v: rng.choice([0, 0, 1, 3]) for v in "xyz"}
        for operand in (rng.choice(scalars), ctx.monomial(exps, c)):
            store = operand._t if isinstance(operand, Poly) else ctx.const(operand)._t
            before_f, before_store = _typed(f._t), _typed(store)
            expected = _typed(_general_product(f._t, store))
            for product in (f * operand, operand * f):
                assert _typed(product._t) == expected
                assert 0 not in product._t.values()
            assert _typed(f._t) == before_f and _typed(store) == before_store
    # integral fractions come back as int, whichever factor carries the fraction
    three = Fraction(3, 2) * ctx.const(2)
    assert three == 3 and type(three.constant_term()) is int
    assert type((ctx.const(Fraction(3, 2)) * 2).constant_term()) is int
    f = ctx.poly("2*x + 4*y")
    assert f * Fraction(3, 2) == ctx.poly("3*x + 6*y")
    assert all(type(c) is int for c in (f * Fraction(3, 2)).terms.values())
    assert (f * 0).is_zero() and (0 * f).is_zero() and (f * ctx.zero()).is_zero()
    # other contexts and other types behave as before
    with pytest.raises(ValueError):
        f * Context().var("x")
    for bad in (1.5, "x", None):
        with pytest.raises(TypeError):
            f * bad
        with pytest.raises(TypeError):
            bad * f


def test_single_term_products_run_the_guard_check(ctx):
    x, y = ctx.var("x"), ctx.var("y")
    top = x ** (LIMIT - 1)
    for one_term in (x, x * y, 3 * x, Fraction(1, 2) * x * y):
        with pytest.raises(ExponentOverflow):
            top * one_term
        with pytest.raises(ExponentOverflow):
            one_term * top
        with pytest.raises(ExponentOverflow):
            (top + y) * one_term
    assert x ** (LIMIT - 2) * x == top
    assert (x ** (LIMIT - 2) * (x * y)).degree("x") == LIMIT - 1
    assert (x * y) * (x ** (LIMIT - 2) + 1) == top * y + x * y
    assert (top * 5) * 1 == 5 * top


def test_overflow_raises_under_python_O():
    code = (
        "import sys\n"
        "from excedance_lab.multipoly import Context, ExponentOverflow\n"
        "ctx = Context()\n"
        "x, y = ctx.var('x'), ctx.var('y')\n"
        "try:\n"
        "    x ** (1 << 19)\n"
        "except ExponentOverflow:\n"
        "    print('raised', sys.flags.optimize)\n"
        "try:\n"
        "    (x * y ** ((1 << 19) - 1)).substitute({'x': y})\n"
        "except ExponentOverflow:\n"
        "    print('raised', sys.flags.optimize)\n"
        "try:\n"
        "    x ** ((1 << 19) - 1) * x\n"
        "except ExponentOverflow:\n"
        "    print('raised', sys.flags.optimize)\n"
        "try:\n"
        "    ctx.combine([(x ** ((1 << 19) - 1), x), (-x ** ((1 << 19) - 1), x)])\n"
        "except ExponentOverflow:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "raised 1\n" * 4, proc.stderr


def test_terms_is_a_read_only_tuple_keyed_view(ctx):
    x, y = ctx.varid("x"), ctx.varid("y")
    terms = {((x, 2),): 3, ((x, 1), (y, 4)): -1, (): 5}
    f = Poly(ctx, terms)
    assert f == ctx.poly("3*x^2 - x*y^4 + 5")
    assert f.terms == terms and terms == f.terms
    assert Poly(ctx, {((x, 2),): 3}).terms == {((x, 2),): 3}
    assert len(f.terms) == 3
    assert dict(f.terms.items()) == terms and sorted(f.terms) == sorted(terms)
    assert sorted(f.terms.values()) == [-1, 3, 5]
    assert f.terms[((x, 2),)] == 3 and f.terms.get(()) == 5
    for absent in (((x, 3),), ((x, 2), (y, 0)), ((y, 4), (x, 1)), "x", 7):
        assert absent not in f.terms
    assert not hasattr(f.terms, "__setitem__")
    with pytest.raises(TypeError):
        f.terms[()] = 1
    # equal tuple keys merge, zero terms drop
    assert Poly(ctx, {((x, 1),): 2, ((x, 1), (y, 0)): -2, (): 0}).terms == {}
    for bad in ({((y, 1), (x, 1)): 1}, {((x, 1), (x, 1)): 1}, {((9, 1),): 1}, {((x, True),): 1}):
        with pytest.raises(ValueError):
            Poly(ctx, bad)
    with pytest.raises(ValueError):
        Poly(ctx, {((x, -1),): 1})


# a tuple-keyed reference, independent of the packed layout: a monomial is a
# sorted tuple of (name, exponent) pairs, and each term pair merges exponents
def _ref(pairs):
    out = {}
    for exps, c in pairs:
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _ref_json(terms):
    return [{"exponents": dict(key), "coeff": str(c)} for key, c in sorted(terms.items())]


_NAMES = ("a", "b", "c", "d", "e")
_TOP = (1 << 18) - 1  # two such exponents add up to one below the guard bit


def _draw_rows(rng, count):
    """``count`` rows of exponents in [0, ``_TOP``], the boundary values 0, 1
    and ``_TOP`` often, with coefficients in [-5, 5]."""
    def exponent():
        return rng.choice((0, 1, _TOP, rng.randint(0, _TOP)))
    return [
        (tuple(exponent() for _ in _NAMES), rng.randint(-5, 5)) for _ in range(count)
    ]


def _packed_key_examples(count=40, seed=17):
    """A fixed draw of ``(order, rows_f, rows_g, var)``: a shuffled interning
    order, two row lists and a variable.  Every fourth example has a one-row
    ``f`` and every second a one-row ``g``, so the one-term product meets
    exponents near the guard.  Every exponent lies in [0, ``_TOP``]."""
    rng = random.Random(seed)
    for i in range(count):
        order = rng.sample(_NAMES, len(_NAMES))
        rows_f = _draw_rows(rng, 1 if i % 4 == 1 else rng.randint(0, 6))
        rows_g = _draw_rows(rng, 1 if i % 2 == 0 else rng.randint(0, 6))
        yield order, rows_f, rows_g, rng.choice(_NAMES)


# the examples come from a seeded random.Random, not from hypothesis, whose
# draws follow the literal constants of the loaded source
def test_packed_keys_agree_with_a_tuple_keyed_reference():
    for order, rows_f, rows_g, var in _packed_key_examples():
        _check_packed_keys(order, rows_f, rows_g, var)


def _check_packed_keys(order, rows_f, rows_g, var):
    ctx = Context(order)  # interned in a shuffled order
    f, g = ctx.polynomial(_NAMES, rows_f), ctx.polynomial(_NAMES, rows_g)
    ref_f = _ref((dict(zip(_NAMES, exps)), c) for exps, c in rows_f)
    ref_g = _ref((dict(zip(_NAMES, exps)), c) for exps, c in rows_g)
    assert f.to_json_obj() == _ref_json(ref_f)
    product = _ref(
        ({v: dict(ka).get(v, 0) + dict(kb).get(v, 0) for v in _NAMES}, ca * cb)
        for ka, ca in ref_f.items() for kb, cb in ref_g.items()
    )
    assert (f * g).to_json_obj() == _ref_json(product)
    derivative = _ref(
        ({**dict(key), var: dict(key)[var] - 1}, c * dict(key)[var])
        for key, c in ref_f.items() if var in dict(key)
    )
    assert f.differentiate(var).to_json_obj() == _ref_json(derivative)
    at_minus_one = _ref(
        ({**dict(key), var: 0}, c * (-1) ** dict(key).get(var, 0)) for key, c in ref_f.items()
    )
    assert f.substitute({var: -1}).to_json_obj() == _ref_json(at_minus_one)
    rows_by_degree = {}
    for key, c in ref_f.items():
        rest = tuple(p for p in key if p[0] != var)
        rows_by_degree.setdefault(dict(key).get(var, 0), {})[rest] = c
    coeffs = f.coeffs_in(var)
    assert len(coeffs) == 1 + max(rows_by_degree, default=0)
    assert {i: _ref_json(row) for i, row in rows_by_degree.items()} == {
        i: c.to_json_obj() for i, c in enumerate(coeffs) if c
    }


# -- property tests ---------------------------------------------------------

_coeffs = st.integers(min_value=-(2**66), max_value=2**66)
_exps = st.integers(min_value=0, max_value=4)


@st.composite
def polys(draw, ctx):
    terms = draw(st.lists(st.tuples(_coeffs, _exps, _exps), min_size=0, max_size=5))
    total = ctx.zero()
    for c, ex, ey in terms:
        total = total + ctx.monomial({"x": ex, "y": ey}, c)
    return total


_CTX = Context()


@given(polys(_CTX), polys(_CTX), polys(_CTX))
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f - f == _CTX.zero()


_scalars = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)


@st.composite
def operands(draw, ctx):
    """A polynomial with int or Fraction coefficients, or a scalar."""
    if draw(st.booleans()):
        return draw(_scalars)
    rows = draw(st.lists(st.tuples(_scalars, _exps, _exps), max_size=4))
    return ctx.polynomial(["x", "y"], [((ex, ey), c) for c, ex, ey in rows])


@given(st.lists(st.tuples(operands(_CTX), operands(_CTX)), max_size=5), st.integers(0, 5))
def test_combine_equals_the_left_fold(pairs, cancelled):
    # the first ``cancelled`` pairs come back negated, so part or all of the sum cancels
    pairs = pairs + [(-w, p) for w, p in pairs[:cancelled]]
    folded = reduce(operator.add, (w * p for w, p in pairs), _CTX.zero())
    got = _CTX.combine(pairs)
    assert _typed(got._t) == _typed(folded._t)
    assert 0 not in got._t.values()
    assert all(type(c) is int or c.denominator > 1 for c in got._t.values())


_HALF_X = _CTX.polynomial(["x", "y"], [((1, 0), Fraction(1, 2)), ((0, 1), 1)])


@example(_HALF_X, _CTX.monomial({"x": 1}, Fraction(1, 2)), False)
@example(_HALF_X, 3, True)
@given(operands(_CTX), operands(_CTX), st.booleans())
def test_add_equals_the_one_dict_sum(a, b, cancel):
    a = _CTX.combine([(1, a)])  # a polynomial; b may stay a scalar, for __radd__
    if cancel:  # b holds -a too, so part or all of a + b cancels
        b = _CTX.combine([(1, b), (-1, a)])
    stores = [p._t for p in (a, b) if isinstance(p, Poly)]
    before = [_typed(store) for store in stores]
    expected = _typed(_CTX.combine([(1, a), (1, b)])._t)
    for got in (a + b, b + a):
        assert _typed(got._t) == expected
        assert 0 not in got._t.values()
        assert all(type(c) is int or c.denominator > 1 for c in got._t.values())
    assert [_typed(store) for store in stores] == before


@given(polys(_CTX), polys(_CTX))
def test_product_rule(f, g):
    d = lambda p: p.differentiate("x")
    assert d(f * g) == d(f) * g + f * d(g)


@given(polys(_CTX), polys(_CTX))
def test_substitution_composes(f, g):
    h = _CTX.poly("1 - y")
    lhs = f.substitute({"x": g}).substitute({"y": h})
    rhs = f.substitute({"x": g.substitute({"y": h}), "y": h})
    assert lhs == rhs
