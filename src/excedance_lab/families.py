"""Recurrence- and formula-defined polynomial families.

Everything here is built by exact recurrences or closed combinatorial
formulas, never by enumerating permutation classes: the module imports nothing
from the enumeration side (``tests/test_layering.py`` checks this), and the
verification layer compares these families against it.  Size parameters ``k``
(inverse-Eulerian weight) and ``r`` (color count) may be numeric or symbolic:
pass an int for a numeric value or ``None`` to keep the parameter as a
registry variable, wherever the recurrence is polynomial in it.  A numeric k
or r stays an int, so the weights of a numeric table system are ints, which
only scale the entries they weight.

The central triangle gamma[n, i, j](q) is defined by

    gamma[n+1,i,j] = q*gamma[n,i-1,j] + (i+1)*gamma[n,i+1,j-1]
                     + j*gamma[n,i,j] + (2n-2i-4j+4)*gamma[n,i,j-1]

with gamma[1,1,0] = q, and reassembles the fix/cycle Eulerian polynomials:

    A_n(x,p,q) = sum_i p^i sum_j gamma[n,i,j](q) x^j (1+x)^(n-i-2j).

This triangle, the 1/k-Eulerian and colored Eulerian coefficient rows, and the
plus/minus and alpha systems are linear table recurrences.  Each family lists
its terms, ``(source table, index offset, weight)``, with weights written in
the target's indices as the recurrence is stated above, and ``_recur`` runs
them: it collects every ``(weight, entry)`` pair of a target and accumulates
the target once, through :meth:`Context.combine`.  The runner shares plumbing
only, never a formula.  The derivative recurrences of A_n(x,q) and B_n(x,q)
are not table recurrences; each of their steps is one ``combine`` of the
weighted row and the weighted derivative.  ``q_bracket`` is one
:meth:`Context.polynomial` with a row per power.

Each table system is built once per :class:`Context` (:meth:`Context.cached`):
the gamma triangle (``A_pq``, ``gamma_pq``), the plus/minus system (the 1/k
halves, ``xi_plus``, ``xi_minus``), the alpha system (the colored halves) and
the q-Eulerian sweep (``A_q``, ``A_classic``, ``d_classic``); each serves one
route only.  Parameters are checked before the lookup on every call, and the
public table functions return fresh dicts of the shared, immutable ``Poly``s.

``REGISTRY`` (read by :func:`family`, hence by the CLI) maps each name to a
:class:`Family` row whose ``build`` is the builder itself: a member of a
plus/minus pair is one half of its pair builder's result, and ``springer`` is
the tabulated number as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Callable, Iterable, Iterator, Optional

from .multipoly import BadInput, Context, Poly
from .shape import PartialGamma, gamma_assemble

SPRINGER = (1, 1, 3, 11, 57, 361, 2763, 24611)


class BadParams(BadInput, ValueError):
    """Family parameters outside the recurrence's domain."""


class OutOfTable(BadInput, LookupError):
    """Index beyond a table-backed sequence."""


def springer(n: int) -> int:
    """Tabulated Springer numbers (type-B Euler numbers)."""
    _check_n(n, least=-inf)  # a negative int is outside the table, not a bad type
    if not 0 <= n < len(SPRINGER):
        raise OutOfTable(f"springer({n}) outside the stored range 0..{len(SPRINGER)-1}")
    return SPRINGER[n]


def _check_n(n: int, least: int = 0, message: str = "n must be nonnegative") -> None:
    """BadParams unless ``n`` is an int, not a bool, and at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadParams(f"n must be an int, not {type(n).__name__}")
    if n < least:
        raise BadParams(message)


def q_bracket(ctx: Context, n: int, base: str = "p") -> Poly:
    """[n]_base = 1 + base + ... + base^(n-1), with [0] = 0; ``base`` names a variable."""
    _check_n(n, message="bracket index must be nonnegative")
    return ctx.polynomial([base], (((i,), 1) for i in range(n)))


def _param_poly(ctx: Context, value: Optional[int], name: str) -> Poly | int:
    """The size parameter ``name`` as a weight factor: a numeric value itself,
    or its variable for ``None``; BadParams for anything but a positive int."""
    if value is None:
        return ctx.var(name)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BadParams(f"{name} must be a positive integer or None for symbolic")
    return value


def _x_polys(ctx: Context, tables: Iterable[dict[int, Poly]]) -> tuple[Poly, ...]:
    """Each table {i: c_i} as the polynomial  sum c_i x^i."""
    return tuple(ctx.combine((c, ctx.monomial({"x": i})) for i, c in t.items()) for t in tables)


def _recur(ctx: Context, tables: dict[str, dict], steps: Iterable[int], terms: dict) -> dict:
    """Advance named coefficient tables one level per m in ``steps``.

    ``terms[name]`` lists ``(source, offset, weight)``: the new ``tables[name][t]``
    is the sum of ``weight(m, *t) * tables[source][t + offset]``.  Indices are
    ints or tuples, offsets alike.  Targets come from the source entries, zero
    weights are skipped and zero sums dropped, so no index range is written out.
    """
    for m in steps:
        nxt = {}
        for name, name_terms in terms.items():
            parts: dict = {}
            for source, offset, weight in name_terms:
                for s, c in tables[source].items():
                    if isinstance(s, int):
                        t = s - offset
                        w = weight(m, t)
                    else:
                        t = tuple(a - b for a, b in zip(s, offset))
                        w = weight(m, *t)
                    if w:
                        parts.setdefault(t, []).append((w, c))
            nxt[name] = {t: v for t, pairs in parts.items() if (v := ctx.combine(pairs))}
        tables = nxt
    return tables


# ---------------------------------------------------------------------------
# the gamma triangle and the (p,q)-Eulerian polynomials
# ---------------------------------------------------------------------------


def gamma_triangle(ctx: Context, n: int) -> dict[tuple[int, int], Poly]:
    """Level-n coefficients gamma[n,i,j](q) as polynomials in q (n >= 1)."""
    _check_n(n, 1, "gamma triangle starts at n = 1")
    q = ctx.var("q")
    return dict(ctx.cached((gamma_triangle, n), lambda: _recur(
        ctx, {"g": {(1, 0): q}}, range(1, n), {"g": [
            ("g", (-1, 0), lambda m, i, j: q),
            ("g", (1, -1), lambda m, i, j: i + 1),
            ("g", (0, 0), lambda m, i, j: j),
            ("g", (0, -1), lambda m, i, j: 2 * m - 2 * i - 4 * j + 4),
        ]})["g"]))


def gamma_poly(ctx: Context, n: int) -> Poly:
    """gamma_n(x,p,q) = sum_{i,j} gamma[n,i,j](q) p^i x^j."""
    _check_n(n)
    if n == 0:
        return ctx.const(1)
    return ctx.combine(
        (g, ctx.monomial({"p": i, "x": j})) for (i, j), g in gamma_triangle(ctx, n).items()
    )


def fix_cyc_eulerian(ctx: Context, n: int) -> Poly:
    """A_n(x,p,q): the gamma triangle read as a partial-gamma expansion in (x, p),
    assembled by :meth:`PartialGamma.assemble`."""
    _check_n(n)
    if n == 0:
        return ctx.const(1)
    return PartialGamma(n, gamma_triangle(ctx, n)).assemble(ctx, "x", "p")


def _q_eulerian_rows(ctx: Context, n: int) -> tuple[Poly, ...]:
    """A_0(x,q), ..., A_n(x,q), from one sweep of
    A_{m+1} = (m x + q) A_m + x(1-x) dA_m/dx,  A_0 = 1."""
    _check_n(n)

    def sweep() -> Iterator[Poly]:
        x, q = ctx.var("x"), ctx.var("q")
        weight = x * (1 - x)
        f = ctx.const(1)
        yield f
        for m in range(n):
            f = ctx.combine([(m * x + q, f), (weight, f.differentiate("x"))])
            yield f

    return ctx.cached((_q_eulerian_rows, n), lambda: tuple(sweep()))


def q_eulerian(ctx: Context, n: int) -> Poly:
    """A_n(x,q), the last row of one sweep of the recurrence
    A_{m+1} = (m x + q) A_m + x(1-x) dA_m/dx,  A_0 = 1."""
    return _q_eulerian_rows(ctx, n)[-1]


def classical_eulerian(ctx: Context, n: int) -> Poly:
    """A_n(x), via the q-Eulerian recurrence at q = 1."""
    return q_eulerian(ctx, n).substitute({"q": 1})


def derangement_poly(ctx: Context, n: int) -> Poly:
    """d_n(x) = sum_j (-1)^j C(n,j) A_{n-j}(x), inclusion-exclusion over fixed
    points: A_0..A_n(x,q) come from one sweep of the q-Eulerian recurrence, and
    q = 1 is substituted once, in the sum."""
    rows = _q_eulerian_rows(ctx, n)
    return ctx.combine(
        ((-1) ** j * comb(n, j), rows[n - j]) for j in range(n + 1)
    ).substitute({"q": 1})


# ---------------------------------------------------------------------------
# 1/k-Eulerian polynomials and their symmetric-decomposition tables
# ---------------------------------------------------------------------------


def one_over_k_eulerian(ctx: Context, n: int, k: Optional[int] = None) -> Poly:
    """A_n^{(k)}(x) = k^n A_n(x, 1/k) = sum_j A_{n,j;k} x^j, from the row recurrence
    A_{m+1,j;k} = (1 + jk) A_{m,j;k} + (m - j + 1) k A_{m,j-1;k},  A_{1,0;k} = 1."""
    _check_n(n)
    kp = _param_poly(ctx, k, "k")
    if n == 0:
        return ctx.const(1)
    row = _recur(ctx, {"A": {0: ctx.const(1)}}, range(1, n), {"A": [
        ("A", 0, lambda m, j: 1 + j * kp),
        ("A", -1, lambda m, j: (m - j + 1) * kp),
    ]})["A"]
    return _x_polys(ctx, [row])[0]


def one_over_k_pm_tables(
    ctx: Context, n: int, k: Optional[int]
) -> tuple[dict[int, Poly], dict[int, Poly]]:
    """(A+_{n,i;k}, A-_{n,i;k}) tables from the coupled recurrence."""
    _check_n(n, 1, "the plus/minus system starts at n = 1")
    kp = _param_poly(ctx, k, "k")
    tables = ctx.cached((one_over_k_pm_tables, n, k), lambda: _recur(
        ctx, {"+": {0: ctx.const(1)}, "-": {}}, range(1, n), {
            "+": [
                ("+", 0, lambda m, i: 1 + i * kp),
                ("+", -1, lambda m, i: 2 * (m - 2 * i + 1) * kp),
                ("-", -1, lambda m, i: 1),
            ],
            "-": [
                ("-", 0, lambda m, i: (i + 1) * kp),
                ("-", -1, lambda m, i: 2 * (m - 2 * i) * kp),
                ("+", 0, lambda m, i: kp - 1),
            ],
        }))
    return dict(tables["+"]), dict(tables["-"])


def one_over_k_pm_polys(ctx: Context, n: int, k: Optional[int] = None) -> tuple[Poly, Poly]:
    """(A+_{n;k}(x), A-_{n;k}(x)) = generating polynomials of the pm tables."""
    return _x_polys(ctx, one_over_k_pm_tables(ctx, n, k))


def one_over_k_decomposition(ctx: Context, n: int, k: Optional[int]) -> tuple[Poly, Poly]:
    """(a_n^{(k)}, b_n^{(k)}):  a = sum A+ x^i (1+x)^{n-1-2i},  likewise b."""
    plus, minus = one_over_k_pm_tables(ctx, n, k)
    return gamma_assemble(ctx, plus, n - 1), gamma_assemble(ctx, minus, n - 2)


# ---------------------------------------------------------------------------
# colored Eulerian polynomials
# ---------------------------------------------------------------------------


def colored_eulerian(ctx: Context, n: int, r: Optional[int] = None) -> Poly:
    """A_{n,r}(x): the flag-order excedance polynomial of the wreath product, from
    A_r(m,j) = (rj + 1) A_r(m-1,j) + (r(m-j) + r - 1) A_r(m-1,j-1),  A_r(0,0) = 1."""
    _check_n(n)
    rp = _param_poly(ctx, r, "r")
    row = _recur(ctx, {"A": {0: ctx.const(1)}}, range(1, n + 1), {"A": [
        ("A", 0, lambda m, j: rp * j + 1),
        ("A", -1, lambda m, j: rp * (m - j) + rp - 1),
    ]})["A"]
    return _x_polys(ctx, [row])[0]


def alpha_tables(
    ctx: Context, n: int, r: Optional[int]
) -> tuple[dict[int, Poly], dict[int, Poly]]:
    """(alpha+_{n,k;r}, alpha-_{n,k;r}) tables for the colored decomposition."""
    _check_n(n)
    rp = _param_poly(ctx, r, "r")
    tables = ctx.cached((alpha_tables, n, r), lambda: _recur(
        ctx, {"+": {0: ctx.const(1)}, "-": {}}, range(n), {
            "+": [
                ("+", 0, lambda m, i: 1 + rp * i),
                ("+", -1, lambda m, i: 2 * (m - 2 * i + 2) * rp),
                ("-", -1, lambda m, i: 2),
            ],
            "-": [
                ("+", 0, lambda m, i: rp - 2),
                ("-", 0, lambda m, i: rp - 1 + rp * i),
                ("-", -1, lambda m, i: 2 * (m - 2 * i + 1) * rp),
            ],
        }))
    return dict(tables["+"]), dict(tables["-"])


def alpha_polys(ctx: Context, n: int, r: Optional[int] = None) -> tuple[Poly, Poly]:
    """Generating polynomials  sum alpha+- x^k  of the alpha tables."""
    return _x_polys(ctx, alpha_tables(ctx, n, r))


def colored_decomposition(ctx: Context, n: int, r: Optional[int]) -> tuple[Poly, Poly]:
    """Symmetric-decomposition parts of A_{n,r}(x) built from the alpha tables."""
    plus, minus = alpha_tables(ctx, n, r)
    return gamma_assemble(ctx, plus, n), gamma_assemble(ctx, minus, n - 1)


def type_b_q_eulerian(ctx: Context, n: int) -> Poly:
    """B_n(x,q) from its derivative recurrence (descent/negative-entry pair)."""
    _check_n(n)
    x, q = ctx.var("x"), ctx.var("q")
    weight = (1 + q) * (x - x * x)
    f = ctx.const(1)
    for m in range(1, n + 1):
        f = ctx.combine([(1 + (1 + q) * m * x - x, f), (weight, f.differentiate("x"))])
    return f


def phi_kernel(ctx: Context, n: int) -> Poly:
    """Phi_n(x,y) = xy (x^{n-1} - y^{n-1}) / (x - y); zero for n < 2."""
    _check_n(n)
    if n < 2:
        return ctx.zero()
    return ctx.polynomial(["x", "y"], (((a, n - a), 1) for a in range(1, n)))


# ---------------------------------------------------------------------------
# the family registry (CLI surface)
# ---------------------------------------------------------------------------


@dataclass
class Family:
    name: str
    description: str
    build: Callable  # build(ctx, n, **params) -> Poly
    params: tuple[str, ...] = ()  # size parameters the builder reads, of "k", "r"
    default_m: Optional[Callable[[int], int]] = None


def _half(pair: Callable, index: int, **fixed: int) -> Callable:
    """A builder of one half (0 plus, 1 minus) of ``pair``'s result, ``fixed`` set."""
    return lambda ctx, n, **params: pair(ctx, n, **fixed, **params)[index]


def _below_n(n: int) -> int:
    """The declared x-length of the type-A rows: n - 1, or 0 at n = 0."""
    return max(n - 1, 0)


REGISTRY: dict[str, Family] = {fam.name: fam for fam in (
    Family("A_pq", "fix/cycle Eulerian polynomial A_n(x,p,q)",
           fix_cyc_eulerian, default_m=_below_n),
    Family("A_q", "cycle q-Eulerian polynomial A_n(x,q)", q_eulerian, default_m=_below_n),
    Family("A_classic", "classical Eulerian polynomial A_n(x)",
           classical_eulerian, default_m=_below_n),
    Family("d_classic", "derangement polynomial d_n(x)", derangement_poly, default_m=_below_n),
    Family("gamma_pq", "partial-gamma generating polynomial gamma_n(x,p,q)", gamma_poly),
    Family("one_over_k", "1/k-Eulerian polynomial  sum_pi x^exc k^(n-cyc)",
           one_over_k_eulerian, params=("k",), default_m=_below_n),
    Family("onek_plus", "gamma vector of the symmetric part of A_n^{(k)}",
           _half(one_over_k_pm_polys, 0), params=("k",)),
    Family("onek_minus", "gamma vector of the shifted part of A_n^{(k)}",
           _half(one_over_k_pm_polys, 1), params=("k",)),
    Family("xi_plus", "cycle-run gamma vector (k = 2 specialisation, 4^cpk weights)",
           _half(one_over_k_pm_polys, 0, k=2)),
    Family("xi_minus", "cycle-run gamma vector, shifted part", _half(one_over_k_pm_polys, 1, k=2)),
    Family("A_r", "colored Eulerian polynomial A_{n,r}(x)",
           colored_eulerian, params=("r",), default_m=lambda n: n),
    Family("alpha_plus", "colored decomposition gamma vector, symmetric part",
           _half(alpha_polys, 0), params=("r",)),
    Family("alpha_minus", "colored decomposition gamma vector, shifted part",
           _half(alpha_polys, 1), params=("r",)),
    Family("B_typeB_q", "type-B q-Eulerian polynomial B_n(x,q)",
           type_b_q_eulerian, default_m=lambda n: n),
    Family("phi", "convolution kernel Phi_n(x,y)", phi_kernel),
    Family("springer", "Springer number s_n (constant)", lambda ctx, n: ctx.const(springer(n))),
    Family("q_bracket", "[n]_p = 1 + p + ... + p^(n-1)", q_bracket),
)}


def family(ctx: Context, name: str, n: int, **params: Optional[int]) -> Poly:
    """Build a registered family member; BadParams on a bad name, index or parameter.

    ``params`` are the size parameters the family reads (``k``, ``r``): an int,
    or ``None`` for symbolic; an omitted one is symbolic too.  Passing one the
    family does not read, ``None`` included, is an error rather than ignored.
    """
    fam = REGISTRY.get(name)
    if fam is None:
        raise BadParams(f"unknown family {name!r} (try: {', '.join(sorted(REGISTRY))})")
    for param in params:
        if param not in fam.params:
            raise BadParams(f"family {name} reads no {param}")
    _check_n(n)
    return fam.build(ctx, n, **params)
