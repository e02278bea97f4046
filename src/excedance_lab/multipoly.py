"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial lives in a :class:`Context`, which owns the bijection between
variable names and small integer ids.  Terms are stored sparsely as

    monomial key -> coefficient

where a monomial key is a tuple of ``(var_id, exponent)`` pairs sorted by id,
with no zero exponents, and coefficients are Python ints (or
``fractions.Fraction`` after rational evaluation; integral fractions are
normalised back to int).  The zero polynomial has no terms.

This module is the only reader and builder of monomial keys: other modules
name variables as strings and build polynomials through the ``Context``
constructors, with :meth:`Context.polynomial` as the bulk constructor for
rows of exponents.

Everything here is pure and values are immutable by convention: no operation
mutates its inputs, so polynomials are safe to share across workers.  Sums of
many polynomials go through :meth:`Context.sum`, which accumulates in place in
one fresh dict (no copy of the running total per summand) and never mutates
its inputs.

Canonical text form sorts terms by the monomial's ``(name, exponent)`` pair
list (names as strings), e.g. ``p^2*q^2 + q*x``; :func:`Context.poly` parses
that form back losslessly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Coeff = Union[int, Fraction]
MonoKey = tuple[tuple[int, int], ...]


class ParseError(ValueError):
    """Raised for malformed polynomial or rational text."""


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def as_fraction(value) -> Fraction:
    """Coerce an int / Fraction / 'a/b' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"cannot interpret {value!r} as an exact rational")


class Context:
    """Variable registry: a per-context bijection between names and ids.

    Ids are assigned in order of first use.  Term ordering and printing go
    through names, so two contexts that intern the same names in different
    orders still render and compare polynomials identically.
    """

    def __init__(self, names: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        for name in names:
            self.varid(name)

    def varid(self, name: str) -> int:
        """Intern ``name`` and return its id."""
        vid = self._ids.get(name)
        if vid is None:
            if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ParseError(f"bad variable name {name!r}")
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
        return vid

    def name(self, vid: int) -> str:
        return self._names[vid]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    # -- constructors ---------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c: Coeff) -> "Poly":
        c = _norm_coeff(c)
        return Poly(self, {(): c} if c else {})

    def var(self, name: str) -> "Poly":
        return Poly(self, {((self.varid(name), 1),): 1})

    def monomial(self, exponents: Mapping[str, int], coeff: Coeff = 1) -> "Poly":
        """Build ``coeff * prod(var^e)`` from a name->exponent mapping."""
        return self.polynomial(exponents, [(exponents.values(), coeff)])

    def polynomial(self, names: Iterable[str], rows: Iterable[tuple[Iterable[int], Coeff]]) -> "Poly":
        """``sum coeff * prod(name^e)`` over ``(exponents, coeff)`` rows whose
        exponents align with ``names``, which are resolved once.  A repeated
        name adds its exponents, equal monomials merge, zero terms drop."""
        vids = [self.varid(v) for v in names]
        out: dict[MonoKey, Coeff] = {}
        for exponents, c in rows:
            exps: dict[int, int] = {}
            for vid, e in zip(vids, exponents):
                if e < 0:
                    raise ValueError("negative exponent")
                if e:
                    exps[vid] = exps.get(vid, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + c
        return Poly(self, {key: _norm_coeff(c) for key, c in out.items() if c})

    def poly(self, text: str) -> "Poly":
        """Parse canonical (or any reasonable) polynomial text."""
        return _parse_poly(self, text)

    def sum(self, polys: Iterable["Poly"]) -> "Poly":
        """Sum of polynomials from this context, accumulated in one fresh dict.

        Equal to folding ``+`` from the left (zero coefficients dropped,
        integral fractions normalised to int), without copying the running
        total at every step.  The inputs are never mutated.
        """
        out: dict[MonoKey, Coeff] = {}
        for p in polys:
            if p.ctx is not self:
                raise ValueError("polynomials from different contexts")
            if not out:
                out.update(p.terms)
                continue
            for key, c in p.terms.items():
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self, {key: _norm_coeff(c) for key, c in out.items()})


class Poly:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[MonoKey, Coeff]):
        self.ctx = ctx
        self.terms = terms

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise ValueError("polynomials from different contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = _norm_coeff(s)
            else:
                out.pop(key, None)
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[MonoKey, Coeff] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = _mono_mul(ka, kb)
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.ctx, {k: _norm_coeff(c) for k, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial power needs a nonnegative integer exponent")
        result = self.ctx.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.ctx is self.ctx:
            return self.terms == other.terms
        return self._named_terms() == other._named_terms()

    def __hash__(self):
        return hash(frozenset(self._named_terms().items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> tuple[str, ...]:
        seen = {vid for key in self.terms for vid, _ in key}
        return tuple(sorted(self.ctx.name(v) for v in seen))

    def degree(self, var: str) -> int:
        """Degree in one variable (0 for the zero polynomial)."""
        vid = self.ctx.varid(var)
        deg = 0
        for key in self.terms:
            for v, e in key:
                if v == vid:
                    deg = max(deg, e)
        return deg

    def constant_term(self) -> Coeff:
        return self.terms.get((), 0)

    def _named_terms(self) -> dict[tuple[tuple[str, int], ...], Coeff]:
        name = self.ctx.name
        return {
            tuple(sorted((name(v), e) for v, e in key)): c
            for key, c in self.terms.items()
        }

    # -- calculus and substitution ---------------------------------------

    def differentiate(self, var: str) -> "Poly":
        """Formal partial derivative (linear, satisfies the product rule)."""
        vid = self.ctx.varid(var)
        out: dict[MonoKey, Coeff] = {}
        for key, c in self.terms.items():
            for i, (v, e) in enumerate(key):
                if v == vid:
                    # lowering one exponent is injective on keys: nothing merges
                    lower = ((v, e - 1),) if e > 1 else ()
                    out[key[:i] + lower + key[i + 1 :]] = _norm_coeff(c * e)
                    break
        return Poly(self.ctx, out)

    def substitute(self, bindings: Mapping) -> "Poly":
        """Simultaneous substitution of polynomials (or constants) for variables.

        Unbound variables pass through.  Bindings are keyed by variable name.
        """
        ctx = self.ctx
        subs: dict[int, Poly] = {}
        for var, val in bindings.items():
            if not isinstance(val, Poly):
                val = ctx.const(val if isinstance(val, (int, Fraction)) else as_fraction(val))
            elif val.ctx is not ctx:
                raise ValueError("binding from a different context")
            subs[ctx.varid(var)] = val
        if not subs:
            return self
        powcache: dict[tuple[int, int], Poly] = {}

        def image(key: MonoKey, c: Coeff) -> Poly:
            # the unbound part stays one monomial (a subsequence of a sorted key)
            piece = Poly(ctx, {tuple(ve for ve in key if ve[0] not in subs): c})
            for v, e in key:
                if v in subs:
                    pw = powcache.get((v, e))
                    if pw is None:
                        pw = subs[v] ** e
                        powcache[(v, e)] = pw
                    piece = piece * pw
            return piece

        return ctx.sum(image(key, c) for key, c in self.terms.items())

    def eval_rational(self, point: Mapping) -> "Poly":
        """Evaluate some variables at exact rationals; the rest stay free."""
        return self.substitute({var: as_fraction(val) for var, val in point.items()})

    def coeffs_in(self, var: str) -> list["Poly"]:
        """Coefficient list [c_0, ..., c_d] with  f = sum c_i * var^i."""
        vid = self.ctx.varid(var)
        buckets: dict[int, dict[MonoKey, Coeff]] = {}
        deg = 0
        for key, c in self.terms.items():
            e = 0
            rest = key
            for i, (v, ee) in enumerate(key):
                if v == vid:
                    e = ee
                    rest = key[:i] + key[i + 1 :]
                    break
            deg = max(deg, e)
            buckets.setdefault(e, {})[rest] = c
        return [Poly(self.ctx, buckets.get(i, {})) for i in range(deg + 1)]

    def reverse_in(self, var: str, length: int) -> "Poly":
        """Coefficient reversal  var^length * f(1/var)  as a polynomial.

        Requires length >= degree in ``var``.
        """
        coeffs = self.coeffs_in(var)
        if length < len(coeffs) - 1:
            raise ValueError("length below the actual degree")
        v = self.ctx.var(var)
        return self.ctx.sum(c * v ** (length - i) for i, c in enumerate(coeffs))

    # -- rendering --------------------------------------------------------

    def _sorted_named(self):
        return sorted(self._named_terms().items())

    def to_text(self) -> str:
        """Canonical text form, parseable back by :meth:`Context.poly`."""
        if not self.terms:
            return "0"
        pieces = []
        for named, c in self._sorted_named():
            factors = [
                name if e == 1 else f"{name}^{e}" for name, e in named
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Poly({self.to_text()})"

    def to_json_obj(self) -> list[dict]:
        """JSON form: list of {"exponents": {var: e}, "coeff": "string"}."""
        out = []
        for named, c in self._sorted_named():
            out.append({"exponents": {name: e for name, e in named}, "coeff": str(c)})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def poly_from_json(ctx: Context, data) -> Poly:
    """Inverse of :meth:`Poly.to_json` / ``to_json_obj``."""
    if isinstance(data, str):
        data = json.loads(data)
    return ctx.sum(
        ctx.monomial(term["exponents"], as_fraction(term["coeff"])) for term in data
    )


def _mono_mul(a: MonoKey, b: MonoKey) -> MonoKey:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


# -- parser ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character at {text[pos:]!r}")
            break
        tokens.append(m.group("int") or m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ctx: Context, tokens: list[str]):
        self.ctx = ctx
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        pieces = [self.signed_term()]
        while self.peek() in ("+", "-"):
            pieces.append(self.signed_term())
        return self.ctx.sum(pieces)

    def signed_term(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return self.term() * sign

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                result = result * rhs
            else:
                # exact division is only supported for nonzero rational literals
                if not rhs.terms:
                    raise ParseError("division by zero")
                if set(rhs.terms) != {()}:
                    raise ParseError("division by a non-constant")
                result = result * self.ctx.const(Fraction(1, 1) / Fraction(rhs.constant_term()))
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if tok == "(":
                inner = self.expr()
                if self.take() != ")":
                    raise ParseError("unclosed exponent parenthesis")
                if set(inner.terms) - {()} or not isinstance(inner.constant_term(), int):
                    raise ParseError("exponent must be an integer literal")
                e = inner.constant_term()
            elif tok is not None and tok.isdigit():
                e = int(tok)
            else:
                raise ParseError(f"expected integer exponent, got {tok!r}")
            if e < 0:
                raise ParseError("negative exponent")
            return base**e
        return base

    def atom(self) -> Poly:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unclosed parenthesis")
            return inner
        if tok == "-":
            return -self.factor()
        if tok.isdigit():
            return self.ctx.const(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return self.ctx.var(tok)
        raise ParseError(f"unexpected token {tok!r}")


def _parse_poly(ctx: Context, text: str) -> Poly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    parser = _Parser(ctx, tokens)
    result = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at {parser.tokens[parser.pos:]!r}")
    return result


def horner_eval(coeffs: Iterable[Poly], value: Fraction):
    """Horner evaluation of a coefficient list at an exact rational."""
    result = None
    for c in reversed(list(coeffs)):
        result = c if result is None else result * value + c
    return result


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
