import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import excedance_lab

from excedance_lab.families import classical_eulerian, fix_cyc_eulerian, q_eulerian
from excedance_lab.multipoly import Context
from excedance_lab.shape import (
    PROPERTIES,
    BadLength,
    CoeffSeq,
    NotSymmetric,
    PartialGamma,
    PartialGammaFailure,
    check,
    decompose,
    gamma_assemble,
    gamma_expand,
    implications_hold,
    partial_gamma_expand,
    shape_report,
)


@pytest.fixture
def ctx():
    return Context()


def seq(coeffs, m=None):
    return CoeffSeq.make(coeffs, m)


def test_decompose_known_pair():
    a, b = decompose(seq([1, 10, 4], m=2))
    assert list(a.coeffs) == [1, 7, 1]
    assert list(b.coeffs) == [3, 3]


def test_decompose_symmetric_input_has_zero_shift():
    a, b = decompose(seq([1, 2, 1]))
    assert list(a.coeffs) == [1, 2, 1]
    assert list(b.coeffs) == [0, 0]


def test_decompose_doubled_weight_example():
    a, b = decompose(seq([1, 36, 60, 8], m=3))
    assert list(a.coeffs) == [1, 29, 29, 1]
    assert list(b.coeffs) == [7, 31, 7]


def test_decompose_reassembles_with_declared_length():
    # trailing zeros matter: the same support at a longer length decomposes differently
    f_short = seq([1, 4], m=1)
    a1, b1 = decompose(f_short)
    assert list(a1.coeffs) == [1, 1] and list(b1.coeffs) == [3]
    f_long = seq([1, 4], m=2)
    a2, b2 = decompose(f_long)
    assert list(a2.coeffs) == [1, 5, 1] and list(b2.coeffs) == [-1, -1]
    # the chain verdicts differ with the declared length
    assert check(f_short, "alternatingly_increasing")
    assert not check(f_long, "alternatingly_increasing")


def test_decompose_zero_length():
    a, b = decompose(seq([7], m=0))
    assert list(a.coeffs) == [7]
    assert b.m == -1 and b.coeffs == ()


def test_gamma_expand_values():
    assert gamma_expand(seq([1, 6, 1])) == [1, 4]
    assert gamma_expand(seq([1, 2, 1])) == [1, 0]
    assert gamma_expand(seq([1, 11, 11, 1])) == [1, 8]
    assert gamma_expand(CoeffSeq((), -1)) == []
    with pytest.raises(NotSymmetric):
        gamma_expand(seq([1, 2, 3]))


def test_gamma_expand_respects_declared_length():
    # x + x^2 is symmetric at length 3 but not at its support length
    assert gamma_expand(seq([0, 1, 1, 0], m=3)) == [0, 1]
    with pytest.raises(NotSymmetric):
        gamma_expand(seq([0, 1, 1], m=2))


def test_gamma_assemble_round_trip(ctx):
    gs = [2, 5, 1]
    poly = gamma_assemble(ctx, gs, 5)
    got = gamma_expand(CoeffSeq.from_poly(poly, "x", m=5))
    assert got == [2, 5, 1]


def test_gamma_assemble_symbolic_coefficients(ctx):
    # Poly coefficients, as in the tables with a symbolic k or r
    k = ctx.var("k")
    got = gamma_assemble(ctx, {0: 1 + k, 1: k**2}, 3)
    assert got == ctx.poly("(1+k)*(1+x)^3 + k^2*x*(1+x)")
    assert got.substitute({"k": 2}) == gamma_assemble(ctx, [3, 4], 3)
    assert gamma_assemble(ctx, {}, 4).is_zero()


@pytest.mark.parametrize("symbolic", [False, True])
def test_gamma_assemble_rejects_entries_outside_the_basis(ctx, symbolic):
    # a nonzero gamma_k needs 0 <= 2k <= m; zero entries are ignored anywhere
    one = ctx.var("k") if symbolic else 1
    cases = [({2: one}, 3, 2), ({-1: one}, 4, -1), ({0: one}, -1, 0), ([0, 0, one], 3, 2)]
    for table, m, k in cases:
        with pytest.raises(BadLength, match=f"gamma_{k} .* m = {m}$"):
            gamma_assemble(ctx, table, m)
    zero = ctx.zero() if symbolic else 0
    assert gamma_assemble(ctx, {0: 2 * one, 2: zero, -1: zero}, 3) == 2 * one * ctx.poly("(1+x)^3")
    # a partial-gamma row past n has an empty basis
    with pytest.raises(BadLength, match="m = -1$"):
        PartialGamma(2, {(0, 1): one, (3, 0): one}).assemble(ctx)
    assert PartialGamma(2, {(0, 1): one, (3, 0): zero}).assemble(ctx) == one * ctx.var("x")


# Each snippet breaks one certificate's premise, so a result that is still
# returned is wrong; under -O a plain assert would let it through.
_SABOTAGED = {
    "decompose": (
        "shape._is_symmetric = lambda f: False\n"
        "shape.decompose(shape.CoeffSeq.make([1, 10, 4]))"
    ),
    "gamma_expand": (
        "shape._is_symmetric = lambda f: True\n"
        "shape.gamma_expand(shape.CoeffSeq.make([1, 10, 4]))"
    ),
    # a scale one too large leaves both parts symmetric and a + x*b equal to
    # the scaled ints; only the reassembly against f itself catches it
    "decompose-scale": (
        "scaled = shape._scaled\n"
        "shape._scaled = lambda c: (lambda s, w: (s + 1, w))(*scaled(c))\n"
        "shape.decompose(shape.CoeffSeq.make([1, 10, 4]))"
    ),
}


@pytest.mark.parametrize("name", sorted(_SABOTAGED))
def test_certificates_survive_optimised_mode(name):
    src = str(Path(excedance_lab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import excedance_lab.shape as shape\n" + _SABOTAGED[name]],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def test_check_chains():
    assert check(seq([1, 1]), "alternatingly_increasing")
    assert check(seq([1, 20, 8], m=2), "alternatingly_increasing")
    # reversal swaps the two chain types
    assert check(seq([8, 20, 1], m=2), "spiral")
    assert not check(seq([1, 20, 8, 0], m=3), "alternatingly_increasing")
    assert check(seq([0, 3, 2]), "alternatingly_increasing")
    assert check(seq([2, 3, 0]), "spiral")
    # spiral chains spelled out: f_m <= f_0 <= f_{m-1} <= f_1 <= ...
    assert check(seq([], m=0), "spiral") and check(seq([5]), "spiral")
    assert check(seq([2, 1]), "spiral") and not check(seq([1, 2]), "spiral")
    assert check(seq([2, 4, 3, 1]), "spiral")  # 1 <= 2 <= 3 <= 4
    assert not check(seq([2, 3, 4, 1]), "spiral")  # 1 <= 2 <= 4, but 4 > 3
    assert not check(seq([1, 4, 3, 2]), "spiral")  # f_3 = 2 > f_0 = 1
    assert check(seq([1, 3, 2]), "unimodal")
    assert not check(seq([2, 1, 3]), "unimodal")
    assert check(seq([1, 6, 1]), "gamma_positive")
    assert not check(seq([1, 1, 1, 6]), "gamma_positive")
    assert check(seq([1, 10, 4]), "bi_gamma_positive")
    with pytest.raises(ValueError):
        check(seq([1]), "positive_definite")


def test_spiral_alt_inc_reversal_duality():
    for coeffs in ([1, 4], [1, 20, 8], [2, 9, 7, 1]):
        m = len(coeffs) - 1
        fwd = seq(coeffs, m)
        reved = seq(list(reversed(coeffs)), m)
        assert check(fwd, "alternatingly_increasing") == check(reved, "spiral")


def test_shape_report_structure():
    report = shape_report(seq([1, 10, 4]))
    assert report.verdicts["bi_gamma_positive"]
    assert report.gamma_a == [1, 5]
    assert report.gamma_b == [3]
    obj = report.to_json_obj()
    assert obj["verdicts"]["unimodal"] is True
    assert obj["a"] == ["1", "7", "1"]


def test_rational_coefficients():
    f = seq([Fraction(1, 8), Fraction(5, 2), 1], m=2)
    a, b = decompose(f)
    assert a[0] == Fraction(1, 8)
    assert check(f, "alternatingly_increasing")


def test_partial_gamma_example(ctx):
    p = fix_cyc_eulerian(ctx, 3).substitute({"q": 1})
    pg = partial_gamma_expand(p, "x", "p", 3)
    assert pg.mu == {(3, 0): 1, (1, 1): 3, (0, 1): 1}
    assert pg.assemble(ctx, "x", "p") == p
    assert pg.is_nonnegative()


def test_partial_gamma_pure_power(ctx):
    p = ctx.poly("y^2")
    pg = partial_gamma_expand(p, "x", "y", 2)
    assert pg.mu == {(2, 0): 1}


def test_partial_gamma_failure(ctx):
    with pytest.raises(PartialGammaFailure):
        partial_gamma_expand(ctx.poly("x^2 + y"), "x", "y", 2)


def test_partial_gamma_matches_triangle(ctx):
    # the y-slices of the assembled polynomial recover the defining triangle
    for n in (2, 3, 4, 5):
        p = fix_cyc_eulerian(ctx, n).substitute({"q": 1})
        pg = partial_gamma_expand(p, "x", "p", n)
        from excedance_lab.families import gamma_triangle

        tri = {
            key: val.substitute({"q": 1}).constant_term()
            for key, val in gamma_triangle(ctx, n).items()
        }
        assert pg.mu == {key: val for key, val in tri.items() if val}


def test_derivative_of_gamma_positive_shifted_eulerian(ctx):
    # x * A_n(x) vanishes at 0 and is gamma-positive, so its derivative
    # splits into two nonnegative gamma vectors
    for n in range(1, 9):
        f = ctx.var("x") * classical_eulerian(ctx, n)
        deriv = f.differentiate("x")
        s = CoeffSeq.from_poly(deriv, "x", m=n - 1)
        assert check(s, "bi_gamma_positive")


def test_product_closure_on_family_instances(ctx):
    a4 = classical_eulerian(ctx, 4)
    b2 = ctx.poly("1 + 6*x + x^2")
    prod = a4 * b2
    assert check(CoeffSeq.from_poly(prod, "x", m=5), "gamma_positive")
    onek = ctx.poly("1 + 10*x + 4*x^2")  # bi-gamma-positive, not symmetric
    mixed = a4 * onek
    assert check(CoeffSeq.from_poly(mixed, "x", m=5), "bi_gamma_positive")


def test_implication_chain_on_eulerian_instances(ctx):
    for n in range(1, 7):
        inst = q_eulerian(ctx, n).eval_rational({"q": Fraction(1, 3)})
        s = CoeffSeq.from_poly(inst, "x", m=n - 1)
        report = shape_report(s)
        assert implications_hold(report.verdicts, all(c >= 0 for c in s.coeffs))


def test_decomposition_uniqueness_random():
    import random

    rng = random.Random(7)
    draws = [
        lambda: rng.randint(-9, 9),
        # mixed denominators
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        # past 2^64
        lambda: rng.choice((-1, 1)) * rng.randint(2**64, 2**70),
    ]
    for draw in draws:
        for _ in range(200):
            m = rng.randint(0, 7)
            coeffs = [draw() for _ in range(m + 1)]
            # m + 2 declares a length above the degree
            for f in (seq(coeffs, m), seq(coeffs, m + 2)):
                a, b = decompose(f)
                assert all(a[i] == a[a.m - i] for i in range(a.m + 1))
                assert all(b[i] == b[b.m - i] for i in range(b.m + 1))
                for i in range(f.m + 1):
                    back = a[i] + (b[i - 1] if 0 <= i - 1 <= b.m else 0)
                    assert back == f[i]
                # exact, and integral values stored as int
                assert all(type(c) is int or c.denominator > 1 for c in a.coeffs + b.coeffs)


def test_gamma_expand_gives_back_random_rational_gammas(ctx):
    import random

    rng = random.Random("gamma-expand:rational")
    for _ in range(200):
        m = rng.randint(0, 9)
        gammas = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m // 2 + 1)]
        f = CoeffSeq.from_poly(gamma_assemble(ctx, gammas, m), "x", m)
        got = gamma_expand(f)
        assert got == gammas
        # exact, and integral values stored as int
        assert all(type(g) is int or type(g) is Fraction and g.denominator > 1 for g in got)


def _random_sequence(rng):
    """An int or Fraction sequence of length 0 to 8, symmetric half the time."""
    m = rng.randint(0, 8)
    half = [rng.randint(-2, 9) for _ in range(m // 2 + 1)]
    if rng.random() < 0.5:
        half = [Fraction(c, rng.randint(1, 4)) for c in half]
    if rng.random() < 0.5:
        return seq(half + half[: m + 1 - len(half)][::-1], m)
    return seq(half + [rng.choice(half) + rng.randint(-2, 2) for _ in range(m + 1 - len(half))], m)


def test_shape_report_verdicts_agree_with_check():
    import random

    rng = random.Random("shape-report:check")
    seen = {prop: set() for prop in PROPERTIES}
    for f in [CoeffSeq((), -1)] + [_random_sequence(rng) for _ in range(400)]:
        verdicts = shape_report(f).verdicts
        assert list(verdicts) == list(PROPERTIES)
        assert verdicts == {prop: check(f, prop) for prop in PROPERTIES}, f
        for prop, verdict in verdicts.items():
            seen[prop].add(verdict)
    assert all(values == {False, True} for values in seen.values()), seen


@pytest.fixture
def shape_calls(monkeypatch):
    """The names of the decompose and gamma_expand calls a test makes."""
    calls = []

    def counted(name):
        real = getattr(excedance_lab.shape, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("decompose", "gamma_expand"):
        monkeypatch.setattr(excedance_lab.shape, name, counted(name))
    return calls


@pytest.mark.parametrize("coeffs", [[1, 10, 4], [1, 3, 1], [Fraction(1, 2), 1, Fraction(1, 2)]])
def test_shape_report_decomposes_once_and_expands_each_part_once(shape_calls, coeffs):
    shape_report(seq(coeffs))
    assert sorted(shape_calls) == ["decompose", "gamma_expand", "gamma_expand"]


def test_gamma_positive_of_an_asymmetric_sequence_expands_nothing(shape_calls):
    assert check(seq([1, 10, 4]), "gamma_positive") is False
    assert shape_calls == []
