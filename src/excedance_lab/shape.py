"""Symmetric decompositions, gamma expansions, and unimodality-type verdicts.

All operations work on an exact coefficient sequence together with a declared
length ``m`` (the intended degree).  The declared length matters: trailing
zero coefficients change which inequality chains are being asserted, so ``m``
is authoritative and the stored support is not.

Conventions, for ``f = f_0 + f_1 x + ... + f_m x^m``:

* symmetric          f_i == f_{m-i}
* gamma expansion    f = sum_k  gamma_k x^k (1+x)^{m-2k}       (needs symmetry)
* decomposition      f = a + x b  with a symmetric about m/2 and b about (m-1)/2;
                     a = (f - x^{m+1} f(1/x)) / (1-x),  b = (x^m f(1/x) - f) / (1-x),
                     both divisions exact
* alternatingly increasing   f_0 <= f_m <= f_1 <= f_{m-1} <= ...
* spiral                     f_m <= f_0 <= f_{m-1} <= f_1 <= ...

Verdicts use non-strict inequalities throughout; ties pass.

Coefficients are exact: a :class:`CoeffSeq` holds ints and ``Fraction``s
only.  :func:`gamma_expand` scales the sequence by the lcm of its
denominators, runs its subtraction loop on ints and divides each gamma once.
:func:`shape_report` decomposes once and expands each part once; its two
gamma verdicts read those expansions, since f is symmetric exactly when its
b-part is 0.  :func:`check` reads the same helper, expands a symmetric f as
its own a-part and answers gamma_positive of an asymmetric f at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Sequence, Union

from .multipoly import BadInput, BadLength, Context, Poly, _norm_coeff

Number = Union[int, Fraction]
Coefficient = Union[Number, Poly]

PROPERTIES = (
    "symmetric",
    "unimodal",
    "gamma_positive",
    "bi_gamma_positive",
    "alternatingly_increasing",
    "spiral",
)


class NotSymmetric(BadInput, ValueError):
    """Raised when a gamma expansion is requested for an asymmetric sequence."""


class NotUnivariate(BadInput, ValueError):
    """A polynomial whose coefficients in the chosen variable are not constants."""


class UnknownProperty(BadInput, ValueError):
    """A shape property that is not one of ``PROPERTIES``."""


def _check_length(m) -> None:
    """BadLength unless the declared length ``m`` is an int (a bool is not one)."""
    if type(m) is not int:
        raise BadLength(f"declared length {m!r} is not an int")


@dataclass(frozen=True)
class CoeffSeq:
    """Exact coefficients ``coeffs[0..m]`` of a polynomial of declared length m.

    ``m = -1`` with no coefficients denotes the zero polynomial of empty length
    (it shows up as the b-part of a symmetric input).  A coefficient that is
    not an int or a ``Fraction`` raises ``multipoly.BadCoefficient``; a bool
    or an integral ``Fraction`` is stored as an int, as in a polynomial.
    """

    coeffs: tuple[Number, ...]
    m: int

    def __post_init__(self):
        if not all(type(c) is int for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(map(_norm_coeff, self.coeffs)))

    @staticmethod
    def make(coeffs: Sequence, m: int | None = None) -> "CoeffSeq":
        vals = tuple(coeffs)
        if m is None:
            m = len(vals) - 1
        _check_length(m)
        if m < len(vals) - 1:
            raise BadLength(f"declared length {m} below the support, which reaches {len(vals) - 1}")
        vals = vals + (0,) * (m + 1 - len(vals))
        return CoeffSeq(vals, m)

    @staticmethod
    def from_poly(f: Poly, var: str, m: int | None = None) -> "CoeffSeq":
        """Extract the coefficient sequence of a univariate polynomial."""
        free = [v for v in f.variables() if v != var]
        if free:
            raise NotUnivariate(f"not univariate in {var}; still free: {free}")
        return CoeffSeq.make([c.constant_term() for c in f.coeffs_in(var)], m)

    def __getitem__(self, i: int) -> Number:
        return self.coeffs[i]

    def to_poly(self, ctx: Context) -> Poly:
        return ctx.polynomial(["x"], (((i,), c) for i, c in enumerate(self.coeffs)))


def _div_one_minus_x(coeffs: Sequence[Number]) -> list[Number]:
    """Exact division of a coefficient list by (1 - x); asserts exactness."""
    out: list[Number] = []
    acc = 0
    for c in coeffs:
        acc = c + acc
        out.append(acc)
    if out and out[-1] != 0:
        raise AssertionError("division by (1-x) left a remainder")
    return out[:-1] if out else []


def decompose(f: CoeffSeq) -> tuple[CoeffSeq, CoeffSeq]:
    """Unique symmetric decomposition f = a + x*b at declared length m."""
    m = f.m
    if m < 0:
        return CoeffSeq((), -1), CoeffSeq((), -1)
    fw = list(f.coeffs)
    rev = [0] + fw[::-1]                       # x^{m+1} f(1/x)
    num_a = [fw[i] - rev[i] for i in range(m + 1)] + [-rev[m + 1]]
    a = _div_one_minus_x(num_a)
    rev_b = fw[::-1]                           # x^m f(1/x)
    num_b = [rev_b[i] - fw[i] for i in range(m + 1)]
    b = _div_one_minus_x(num_b)
    a_seq = CoeffSeq.make(a, m)
    b_seq = CoeffSeq.make(b, m - 1) if m >= 1 else CoeffSeq((), -1)
    if not (_is_symmetric(a_seq) and _is_symmetric(b_seq)):
        raise AssertionError("decomposition parts are not symmetric")
    for i in range(m + 1):
        fi = a_seq[i] + (b_seq[i - 1] if 1 <= i <= b_seq.m + 1 else 0)
        if fi != f[i]:
            raise AssertionError(f"a + x*b differs from f at x^{i}")
    return a_seq, b_seq


def _is_symmetric(f: CoeffSeq) -> bool:
    return all(f[i] == f[f.m - i] for i in range(f.m + 1))


def gamma_expand(f: CoeffSeq) -> list[Number]:
    """Gamma coefficients of a symmetric sequence; raises NotSymmetric otherwise.

    The sequence is scaled by the lcm of its denominators, the subtraction
    loop runs on ints, and each gamma is divided by that scale once.
    """
    if f.m < 0:
        return []
    if not _is_symmetric(f):
        raise NotSymmetric(f"not symmetric about {f.m}/2: {f.coeffs}")
    m = f.m
    scale = lcm(*(c.denominator for c in f.coeffs))
    work = [c.numerator * (scale // c.denominator) for c in f.coeffs]
    gammas: list[int] = []
    for k in range(m // 2 + 1):
        g = work[k]
        gammas.append(g)
        if g:
            # subtract g * x^k (1+x)^{m-2k}
            top = m - 2 * k
            for j in range(top + 1):
                work[k + j] -= g * comb(top, j)
    if any(work):
        raise AssertionError("gamma expansion left a remainder")
    if scale == 1:
        return gammas
    return [_norm_coeff(Fraction(g, scale)) for g in gammas]


def gamma_assemble(
    ctx: Context,
    gammas: Union[Sequence[Coefficient], Mapping[int, Coefficient]],
    m: int,
    var: str = "x",
) -> Poly:
    """Build ``sum gamma_k x^k (1+x)^{m-2k}`` as a polynomial.

    ``gammas`` is a list ``[gamma_0, gamma_1, ...]`` or a ``{k: gamma_k}``
    table; each coefficient is a number or a :class:`Poly` of ``ctx`` (for
    tables with a symbolic parameter).  This is the one builder of the gamma
    basis expansion: each ``x^k (1+x)^{m-2k}`` is built from the binomial row
    of ``m-2k`` and :meth:`Context.combine` sums the weighted elements.  Zero
    entries are ignored; an ``m`` that is not an int, or a nonzero gamma_k with
    ``k < 0`` or ``2k > m``, raises :class:`BadLength`.
    """
    _check_length(m)
    if not isinstance(gammas, Mapping):
        gammas = dict(enumerate(gammas))

    def basis(k: int) -> Poly:
        if k < 0 or 2 * k > m:
            raise BadLength(f"gamma_{k} is nonzero, but k = {k} is outside 0 <= 2k <= m = {m}")
        top = m - 2 * k
        return ctx.polynomial([var], (((k + j,), comb(top, j)) for j in range(top + 1)))

    return ctx.combine((g, basis(k)) for k, g in gammas.items() if g)


def _gamma_verdicts(gamma_a: list[Number], gamma_b: list[Number]) -> dict[str, bool]:
    """gamma_positive and bi_gamma_positive, read off the gamma vectors of the
    parts of f = a + x*b.  f is symmetric exactly when b, hence every gamma of
    b, is 0."""
    a_ok = all(g >= 0 for g in gamma_a)
    return {
        "gamma_positive": a_ok and not any(gamma_b),
        "bi_gamma_positive": a_ok and all(g >= 0 for g in gamma_b),
    }


def check(f: CoeffSeq, prop: str) -> bool:
    """Verdict for one shape property at the declared length."""
    if prop not in PROPERTIES:
        raise UnknownProperty(f"unknown property {prop!r}")
    if f.m < 0:
        return True
    if prop == "symmetric":
        return _is_symmetric(f)
    if prop == "unimodal":
        i = 0
        while i < f.m and f[i] <= f[i + 1]:
            i += 1
        while i < f.m and f[i] >= f[i + 1]:
            i += 1
        return i == f.m
    if prop == "gamma_positive" and not _is_symmetric(f):
        return False
    if prop in ("gamma_positive", "bi_gamma_positive"):
        # a symmetric f is its own a-part, with b = 0
        a, b = (f, CoeffSeq((), -1)) if _is_symmetric(f) else decompose(f)
        return _gamma_verdicts(gamma_expand(a), gamma_expand(b))[prop]
    # alternatingly increasing: f_0 <= f_m <= f_1 <= f_{m-1} <= ...; spiral is
    # the same chain of the reversed sequence, f_m <= f_0 <= f_{m-1} <= ...
    c = f.coeffs if prop == "alternatingly_increasing" else f.coeffs[::-1]
    chain = [c[f.m - t // 2] if t % 2 else c[t // 2] for t in range(f.m + 1)]
    return all(lo <= hi for lo, hi in zip(chain, chain[1:]))


@dataclass
class ShapeReport:
    """Decomposition, gamma data and the six shape verdicts for one sequence."""

    seq: CoeffSeq
    a: CoeffSeq
    b: CoeffSeq
    gamma_a: list[Number]
    gamma_b: list[Number]
    verdicts: dict[str, bool]

    def to_json_obj(self) -> dict:
        def nums(vals):
            return [str(v) for v in vals]

        return {
            "m": self.seq.m,
            "coeffs": nums(self.seq.coeffs),
            "a": nums(self.a.coeffs),
            "b": nums(self.b.coeffs),
            "gamma_a": nums(self.gamma_a),
            "gamma_b": nums(self.gamma_b),
            "verdicts": dict(self.verdicts),
        }


def shape_report(f: CoeffSeq) -> ShapeReport:
    """Full report: decomposition, gamma vectors of both parts, all verdicts.

    ``f`` is decomposed once and each part expanded once; the two gamma
    verdicts read those expansions (see :func:`_gamma_verdicts`), and
    :func:`check` gives the other four.
    """
    a, b = decompose(f)
    gamma_a, gamma_b = gamma_expand(a), gamma_expand(b)
    gammas = _gamma_verdicts(gamma_a, gamma_b)
    verdicts = {prop: gammas[prop] if prop in gammas else check(f, prop) for prop in PROPERTIES}
    return ShapeReport(f, a, b, gamma_a, gamma_b, verdicts)


def implications_hold(verdicts: dict[str, bool], nonnegative: bool) -> bool:
    """The expected chain: gamma => bi-gamma => alternatingly increasing => unimodal.

    The last step needs nonnegative coefficients (unimodality as defined here
    compares raw values).
    """
    if verdicts["gamma_positive"] and not verdicts["bi_gamma_positive"]:
        return False
    if verdicts["bi_gamma_positive"] and not verdicts["alternatingly_increasing"]:
        return False
    if (
        nonnegative
        and verdicts["alternatingly_increasing"]
        and not verdicts["unimodal"]
    ):
        return False
    return True


class PartialGammaFailure(NotSymmetric):
    """A y-slice of a bivariate polynomial failed to be symmetric."""


@dataclass
class PartialGamma:
    """Triangle mu[(i, j)] with  p(x,y) = sum_i y^i sum_j mu_ij x^j (1+x)^{n-i-2j}.

    Entries are numbers, or polynomials of one context in a symbolic parameter
    (which :meth:`assemble` accepts, as :func:`gamma_assemble` does)."""

    n: int
    mu: dict[tuple[int, int], Coefficient]

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.mu.values())

    def assemble(self, ctx: Context, xvar: str = "x", yvar: str = "y") -> Poly:
        rows: dict[int, dict[int, Number]] = {}
        for (i, j), v in self.mu.items():
            rows.setdefault(i, {})[j] = v
        return ctx.combine(
            (ctx.monomial({yvar: i}), gamma_assemble(ctx, row, self.n - i, xvar))
            for i, row in rows.items()
        )


def partial_gamma_expand(
    p: Poly, xvar: str, yvar: str, n: int
) -> PartialGamma:
    """Per-slice gamma expansion of a bivariate polynomial in (xvar, yvar).

    The coefficient of ``yvar^i`` is expanded in the basis
    ``x^j (1+x)^{n-i-2j}``; raises :class:`PartialGammaFailure` if any slice
    is not symmetric at its declared length ``n - i``, and
    :class:`BadLength` if ``n`` is not an int.
    """
    _check_length(n)
    mu: dict[tuple[int, int], Number] = {}
    for i, slice_poly in enumerate(p.coeffs_in(yvar)):
        if i > n:
            if not slice_poly.is_zero():
                raise PartialGammaFailure(f"slice y^{i} beyond declared length {n}")
            continue
        seq = CoeffSeq.from_poly(slice_poly, xvar, m=n - i)
        try:
            gammas = gamma_expand(seq)
        except NotSymmetric as exc:
            raise PartialGammaFailure(f"slice y^{i}: {exc}") from exc
        for j, g in enumerate(gammas):
            if g:
                mu[(i, j)] = g
    return PartialGamma(n, mu)
