import gc
import random
import weakref
from math import comb

import pytest

from excedance_lab import families
from excedance_lab.families import (
    BadParams,
    OutOfTable,
    REGISTRY,
    alpha_polys,
    alpha_tables,
    colored_eulerian,
    derangement_poly,
    classical_eulerian,
    family,
    fix_cyc_eulerian,
    gamma_poly,
    gamma_triangle,
    one_over_k_decomposition,
    one_over_k_eulerian,
    one_over_k_pm_polys,
    one_over_k_pm_tables,
    phi_kernel,
    q_bracket,
    q_eulerian,
    springer,
    type_b_q_eulerian,
)
from excedance_lab.multipoly import Context, Poly

from oracles import plain_exc_fix_cyc


@pytest.fixture
def ctx():
    return Context()


def test_q_eulerian_values(ctx):
    assert q_eulerian(ctx, 0) == ctx.const(1)
    assert q_eulerian(ctx, 1) == ctx.var("q")
    assert family(ctx, "A_q", 2) == ctx.poly("q*(x+q)")


def test_fix_cyc_values(ctx):
    # the recurrence starts at the empty permutation
    assert family(ctx, "A_pq", 0) == ctx.const(1)
    assert family(ctx, "A_pq", 1) == ctx.poly("p*q")
    assert fix_cyc_eulerian(ctx, 1) == ctx.poly("p*q")
    assert fix_cyc_eulerian(ctx, 2) == ctx.poly("p^2*q^2 + q*x")
    assert fix_cyc_eulerian(ctx, 3) == ctx.poly("p^3*q^3 + (q + 3*p*q^2)*x + q*x^2")
    assert fix_cyc_eulerian(ctx, 4) == ctx.poly(
        "p^4*q^4 + (q + 4*p*q^2 + 6*p^2*q^3)*x + (4*q + 3*q^2 + 4*p*q^2)*x^2 + q*x^3"
    )


def test_fix_cyc_matches_enumeration_oracle(ctx):
    for n in range(6):
        expected = ctx.zero()
        for (e, f, c), cnt in plain_exc_fix_cyc(n).items():
            expected = expected + cnt * ctx.monomial({"x": e, "p": f, "q": c})
        assert fix_cyc_eulerian(ctx, n) == expected


def test_gamma_poly_values(ctx):
    assert gamma_triangle(ctx, 0) == {(0, 0): ctx.const(1)}
    assert gamma_triangle(ctx, 1) == {(1, 0): ctx.var("q")}
    assert family(ctx, "gamma_pq", 0) == ctx.const(1)
    assert family(ctx, "gamma_pq", 1) == ctx.poly("p*q")
    assert gamma_poly(ctx, 1) == ctx.poly("p*q")
    assert gamma_poly(ctx, 2) == ctx.poly("p^2*q^2 + q*x")
    assert family(ctx, "gamma_pq", 3) == ctx.poly("p^3*q^3 + q*(1 + 3*p*q)*x")


def test_one_over_k_values(ctx):
    for k in ({}, {"k": 1}, {"k": 2}, {"k": 3}):
        assert family(ctx, "one_over_k", 0, **k) == ctx.const(1)
        assert family(ctx, "one_over_k", 1, **k) == ctx.const(1)
    assert one_over_k_eulerian(ctx, 1, None) == ctx.const(1)
    assert one_over_k_eulerian(ctx, 2, None) == ctx.poly("1 + k*x")
    assert family(ctx, "one_over_k", 3) == ctx.poly("1 + 3*k*x + k^2*x*(1+x)")
    assert family(ctx, "one_over_k", 3, k=2) == ctx.poly("1 + 10*x + 4*x^2")


def test_pm_tables_values(ctx):
    for n, plus_expected, minus_expected in (
        (2, "1", "k - 1"),
        (3, "1 + (3*k - 1)*x", "k^2 - 1"),
        (4, "1 + (6*k + 4*k^2 - 2)*x", "k^3 - 1 + (1 - 6*k + 3*k^2 + 2*k^3)*x"),
    ):
        fp, fm = one_over_k_pm_polys(ctx, n, None)
        assert fp == ctx.poly(plus_expected)
        assert fm == ctx.poly(minus_expected)


def test_one_over_k_decomposition_values(ctx):
    a3, b3 = one_over_k_decomposition(ctx, 3, 2)
    assert a3 == ctx.poly("1 + 7*x + x^2")
    assert b3 == ctx.poly("3 + 3*x")
    a4, b4 = one_over_k_decomposition(ctx, 4, 2)
    assert a4 == ctx.poly("1 + 29*x + 29*x^2 + x^3")
    assert b4 == ctx.poly("7 + 31*x + 7*x^2")
    assert a4 + ctx.var("x") * b4 == one_over_k_eulerian(ctx, 4, 2)


def test_xi_values(ctx):
    assert family(ctx, "xi_plus", 2) == ctx.const(1)
    assert family(ctx, "xi_minus", 2) == ctx.const(1)
    assert family(ctx, "xi_plus", 3) == ctx.poly("1 + 5*x")
    assert family(ctx, "xi_minus", 3) == ctx.const(3)


def test_colored_eulerian_values(ctx):
    assert colored_eulerian(ctx, 1, None) == ctx.poly("1 + (r-1)*x")
    assert colored_eulerian(ctx, 2, None) == ctx.poly(
        "1 + (r^2 + 2*r - 2)*x + (r-1)^2*x^2"
    )
    assert family(ctx, "A_r", 2, r=2) == ctx.poly("1 + 6*x + x^2")


def test_alpha_values(ctx):
    assert family(ctx, "alpha_minus", 1) == ctx.poly("r - 2")
    assert family(ctx, "alpha_plus", 1) == ctx.const(1)
    fp, fm = alpha_polys(ctx, 2, None)
    assert fp == ctx.poly("1 + (4*r - 4)*x")
    assert fm == ctx.poly("r^2 - 2*r")


def test_type_b_q_values(ctx):
    assert type_b_q_eulerian(ctx, 0) == ctx.const(1)
    assert type_b_q_eulerian(ctx, 1) == ctx.poly("1 + q*x")
    assert family(ctx, "B_typeB_q", 2) == ctx.poly("1 + (1 + 4*q + q^2)*x + q^2*x^2")


def test_phi_values(ctx):
    assert phi_kernel(ctx, 0).is_zero()
    assert phi_kernel(ctx, 1).is_zero()
    assert family(ctx, "phi", 0).is_zero() and family(ctx, "phi", 1).is_zero()
    assert family(ctx, "phi", 2) == ctx.poly("x*y")
    assert family(ctx, "phi", 3) == ctx.poly("x*y*(x+y)")


def test_springer_values():
    assert [springer(n) for n in range(8)] == [1, 1, 3, 11, 57, 361, 2763, 24611]
    with pytest.raises(OutOfTable):
        springer(8)
    with pytest.raises(OutOfTable):
        springer(-1)


def test_q_bracket_values(ctx):
    assert q_bracket(ctx, 0, "p").is_zero()
    assert q_bracket(ctx, 1, "p") == ctx.const(1)
    assert q_bracket(ctx, 3, "x") == ctx.poly("1 + x + x^2")


def test_classical_and_derangement(ctx):
    assert classical_eulerian(ctx, 4) == ctx.poly("1 + 11*x + 11*x^2 + x^3")
    assert derangement_poly(ctx, 0) == ctx.const(1)
    assert derangement_poly(ctx, 1).is_zero()
    assert derangement_poly(ctx, 4) == ctx.poly("x + 7*x^2 + x^3")


def test_derangement_is_inclusion_exclusion_over_one_sweep(ctx, monkeypatch):
    for n in range(11):
        expected = ctx.zero()
        for j in range(n + 1):
            expected = expected + (-1) ** j * comb(n, j) * classical_eulerian(ctx, n - j)
        assert derangement_poly(ctx, n) == expected
    calls = []
    differentiate = Poly.differentiate
    monkeypatch.setattr(
        Poly, "differentiate", lambda f, var: calls.append(var) or differentiate(f, var)
    )
    derangement_poly(ctx, 30)
    assert calls == ["x"] * 30  # one recurrence step per row, not one sweep per row
    with pytest.raises(BadParams):
        q_eulerian(ctx, -1)
    with pytest.raises(BadParams):
        derangement_poly(ctx, -1)


def test_registry_and_bad_params(ctx):
    assert "one_over_k" in REGISTRY
    with pytest.raises(BadParams):
        family(ctx, "no_such_family", 3)
    with pytest.raises(BadParams):
        family(ctx, "A_q", -1)
    with pytest.raises(BadParams):
        family(ctx, "one_over_k", 3, k=0)
    # n = 0 is the empty-product convention, not an error
    assert family(ctx, "gamma_pq", 0) == ctx.const(1)


@pytest.mark.parametrize("name, params", [("one_over_k", {"k": 0}), ("A_r", {"r": 0})])
def test_bad_parameter_at_n_zero(ctx, name, params):
    # the parameter is checked before the n = 0 shortcut returns 1
    with pytest.raises(BadParams, match="positive integer"):
        family(ctx, name, 0, **params)


@pytest.mark.parametrize(
    "name, params",
    [
        ("one_over_k", {"k": True}),
        ("onek_plus", {"k": True}),
        ("A_r", {"r": True}),
        ("alpha_minus", {"r": True}),
    ],
)
def test_a_bool_is_not_a_size_parameter(ctx, name, params):
    # k=True used to build the k = 1 member
    with pytest.raises(BadParams, match="positive integer"):
        family(ctx, name, 3, **params)


@pytest.mark.parametrize(
    "name, params",
    [
        ("A_q", {"k": 2}),
        ("A_classic", {"r": 5}),
        ("one_over_k", {"r": 2}),
        ("A_r", {"k": None}),
        ("xi_plus", {"k": 2}),
    ],
)
def test_family_rejects_a_parameter_it_does_not_read(ctx, name, params):
    with pytest.raises(BadParams, match=f"reads no {next(iter(params))}"):
        family(ctx, name, 3, **params)


def test_family_parameter_none_is_symbolic_like_an_omitted_one(ctx):
    assert family(ctx, "one_over_k", 2, k=None) == family(ctx, "one_over_k", 2)
    assert family(ctx, "A_r", 1, r=None) == ctx.poly("1 + (r-1)*x")


@pytest.mark.parametrize("param", [None, 1, 2, 3])
def test_table_reach(ctx, param):
    # the runner derives each table's entries from the previous level; these
    # are the index bounds of the recurrences
    for n in range(1, 13):
        assert all(i + 2 * j <= n for i, j in gamma_triangle(ctx, n))
        plus, minus = one_over_k_pm_tables(ctx, n, param)
        assert all(i <= (n - 1) // 2 for i in plus)
        assert all(i <= (n - 2) // 2 for i in minus)
    for n in range(13):
        plus, minus = alpha_tables(ctx, n, param)
        assert all(i <= n // 2 for i in plus)
        assert all(i <= (n - 1) // 2 for i in minus)


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: family(ctx, "A_q", 2.5),
        lambda ctx: family(ctx, "A_pq", "3"),
        lambda ctx: family(ctx, "phi", 1.5),
        lambda ctx: family(ctx, "A_pq", True),
        lambda ctx: family(ctx, "springer", False),
        lambda ctx: gamma_triangle(ctx, 3.0),
        lambda ctx: one_over_k_pm_tables(ctx, 2.0, 2),
        lambda ctx: alpha_tables(ctx, True, None),
        lambda ctx: q_eulerian(ctx, 3.0),
        lambda ctx: derangement_poly(ctx, True),
        lambda ctx: gamma_poly(ctx, 0.0),
        lambda ctx: fix_cyc_eulerian(ctx, False),
    ],
)
def test_n_must_be_an_int(ctx, build):
    # a float, string or bool n used to raise TypeError or give a silent answer
    with pytest.raises(BadParams, match="n must be an int"):
        build(ctx)


# members that read one table system, which one context builds once for all
SHARED_BUILDS = [
    (("onek_plus", "onek_minus"), {"k": 3}),
    (("onek_plus", "onek_minus", "onek_plus"), {}),
    (("xi_plus", "xi_minus"), {}),
    (("alpha_plus", "alpha_minus"), {"r": 2}),
    (("alpha_plus", "alpha_minus"), {}),
    (("A_pq", "gamma_pq"), {}),
]


@pytest.mark.parametrize("names, params", SHARED_BUILDS)
def test_one_table_system_build_per_context(monkeypatch, names, params):
    calls = []
    recur = families._recur
    monkeypatch.setattr(families, "_recur", lambda *args: calls.append(1) or recur(*args))
    shared = Context()
    built = [family(shared, name, 9, **params) for name in names]
    assert len(calls) == 1
    assert [family(Context(), name, 9, **params) for name in names] == built
    assert len(calls) == 1 + len(names)


def test_one_q_eulerian_sweep_per_context(monkeypatch):
    calls = []
    differentiate = Poly.differentiate
    monkeypatch.setattr(
        Poly, "differentiate", lambda f, var: calls.append(var) or differentiate(f, var)
    )
    shared = Context()
    built = [family(shared, name, 8) for name in ("A_q", "A_classic", "d_classic", "A_q")]
    assert len(calls) == 8  # one sweep of eight steps serves all three members
    assert [family(Context(), name, 8) for name in ("A_q", "A_classic", "d_classic")] == built[:3]
    assert len(calls) == 8 + 3 * 8


def test_each_derivative_recurrence_step_is_one_combination(monkeypatch):
    # a step adds its two weighted products in one combine, not as two Polys and a +
    wide_sums = []
    add = Poly.__add__

    def spy(f, g):
        if isinstance(g, Poly) and len(f) > 1 and len(g) > 1:
            wide_sums.append((f, g))
        return add(f, g)

    monkeypatch.setattr(Poly, "__add__", spy)
    ctx = Context()
    for name in ("A_q", "A_classic", "d_classic", "B_typeB_q"):
        family(ctx, name, 12)
    assert wide_sums == []


def test_returned_tables_are_the_callers_to_mutate(ctx):
    tables = {
        "gamma": lambda: (gamma_triangle(ctx, 6),),
        "pm": lambda: one_over_k_pm_tables(ctx, 6, None),
        "alpha": lambda: alpha_tables(ctx, 6, 3),
    }
    for name, build in tables.items():
        first = build()
        expected = [dict(t) for t in first]
        for t in first:
            t.clear()
            t[99] = ctx.const(1)
        assert list(build()) == expected, name


def test_a_dropped_context_is_collected():
    ctx = Context()
    for name in sorted(REGISTRY):
        if name != "springer":
            family(ctx, name, 6)
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def _text_or_error(ctx, name, n, params):
    try:
        return family(ctx, name, n, **params).to_text()
    except BadParams as exc:  # the plus/minus members start at n = 1
        return f"BadParams: {exc}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_shared_context_builds_what_a_fresh_one_does(seed):
    members = [
        (name, n, params)
        for name, fam in REGISTRY.items()
        for n in range(8 if name == "springer" else 13)
        for params in ([{}] + [{p: 2 + n % 2} for p in fam.params])
    ]
    random.Random(seed).shuffle(members)
    shared = Context()
    for name, n, params in members:
        got = _text_or_error(shared, name, n, params)
        assert got == _text_or_error(Context(), name, n, params), (name, n, params)
