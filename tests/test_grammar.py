import pytest

from excedance_lab.grammar import Grammar, parse_rules
from excedance_lab.multipoly import Context, ContextMismatch, ParseError


@pytest.fixture
def ctx():
    return Context()


def test_derive_basic(ctx):
    g = Grammar(ctx, {"x": "x*y", "y": "x*y"})
    assert g.derive(ctx.var("x")) == ctx.poly("x*y")
    assert g.derive(ctx.var("y")) == ctx.poly("x*y")
    assert g.iterate(ctx.var("x"), 2) == ctx.poly("x*y*(x+y)")


def test_rule_free_variables_are_constants(ctx):
    g = Grammar(ctx, {"x": "x*y"})
    assert g.derive(ctx.var("z")).is_zero()
    assert g.derive(ctx.const(7)).is_zero()
    # constants factor out through the product rule
    assert g.derive(ctx.poly("3*z*x")) == ctx.poly("3*z*x*y")


def test_derive_product_of_powers(ctx):
    g = Grammar(ctx, {"x": "y", "y": "x"})
    # D(x^2 y) = 2xy*y + x^2*x
    assert g.derive(ctx.poly("x^2*y")) == ctx.poly("2*x*y^2 + x^3")


def test_iterate_zero_is_identity(ctx):
    g = Grammar(ctx, {"x": "x*y"})
    f = ctx.poly("x^2 + 3")
    assert g.iterate(f, 0) == f
    with pytest.raises(ValueError):
        g.iterate(f, -1)


def test_marked_grammar_small_steps(ctx):
    g0 = Grammar(ctx, {"I": "I*y", "x": "k*x*y", "y": "k*x*y"})
    assert g0.iterate(ctx.var("I"), 1) == ctx.poly("I*y")
    assert g0.iterate(ctx.var("I"), 2) == ctx.poly("I*(y^2 + k*x*y)")


def test_transformed_grammar_small_steps(ctx):
    g1 = Grammar(ctx, {"I": "J", "J": "J*u + (k-1)*I*v", "u": "2*k*v", "v": "k*u*v"})
    assert g1.iterate(ctx.var("I"), 1) == ctx.var("J")
    assert g1.iterate(ctx.var("I"), 2) == ctx.poly("J*u + (k-1)*I*v")


def test_fixpoint_cycle_grammar_steps(ctx):
    g2 = Grammar(ctx, {"I": "I*p*q", "p": "u", "u": "u*v", "v": "2*u"})
    assert g2.iterate(ctx.var("I"), 2) == ctx.poly("I*(p^2*q^2 + q*u)")
    assert g2.iterate(ctx.var("I"), 3) == ctx.poly("I*(p^3*q^3 + 3*p*q^2*u + q*u*v)")


def test_symbolic_weight_specialises(ctx):
    g_sym = Grammar(ctx, {"I": "I*y", "x": "k*x*y", "y": "k*x*y"})
    for k in (1, 2, 3):
        g_num = Grammar(ctx, {"I": "I*y", "x": f"{k}*x*y", "y": f"{k}*x*y"})
        for n in range(5):
            assert g_sym.iterate(ctx.var("I"), n).substitute({"k": k}) == g_num.iterate(
                ctx.var("I"), n
            )


def test_linearity_and_leibniz(ctx):
    g = Grammar(ctx, {"x": "x^2", "y": "1 + x*y"})
    f1 = ctx.poly("x*y + 3*x")
    f2 = ctx.poly("y^2 - x")
    assert g.derive(f1 + f2) == g.derive(f1) + g.derive(f2)
    assert g.derive(f1 * f2) == g.derive(f1) * f2 + f1 * g.derive(f2)


def test_parse_rules(ctx):
    g = parse_rules(ctx, """
        # comment line
        x -> x*y

        y -> x*y
    """)
    assert g.iterate(ctx.var("x"), 2) == ctx.poly("x*y*(x+y)")
    with pytest.raises(ParseError):
        parse_rules(ctx, "x = x*y")
    with pytest.raises(ParseError):
        parse_rules(ctx, "x -> x\nx -> y")


def test_rules_from_other_context_rejected(ctx):
    other = Context()
    with pytest.raises(ValueError):
        Grammar(ctx, {"x": other.poly("x*y")})


def test_derive_of_a_polynomial_from_other_context_rejected():
    # the same names interned in another order must not be read by raw id
    c1, c2 = Context(["x", "y"]), Context(["y", "x"])
    g = Grammar(c1, {"x": "x*y"})
    with pytest.raises(ValueError):
        g.derive(c2.poly("y"))
    with pytest.raises(ValueError):
        g.derive(c2.poly("x"))


def test_derive_and_iterate_check_the_context_first():
    a, b = Context(), Context()
    f = b.var("x")
    calls = [
        lambda: Grammar(a, {}).derive(f),
        lambda: Grammar(a, {"y": "y"}).derive(f),
        lambda: Grammar(a, {"y": "y"}).iterate(f, 0),
        lambda: Grammar(a, {"y": "y"}).iterate(f, 2),
    ]
    for call in calls:
        with pytest.raises(ContextMismatch):
            call()
    # no rule variable was interned into f's context
    assert b._names == ["x"]


def test_rules_are_keyed_by_name(ctx):
    ctx.varid("x")
    with pytest.raises(ParseError):
        Grammar(ctx, {0: "x*y"})
