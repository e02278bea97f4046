"""Context-free grammar calculus: formal derivatives in the sense of Chen.

A grammar assigns to some variables a polynomial replacement rule; the
induced derivative ``D_G`` is the linear operator with ``D_G(v) = G(v)``,
``D_G(c) = 0`` for constants and for variables without a rule, extended by
the Leibniz rule ``D_G(uv) = D_G(u) v + u D_G(v)``.  That derivation is

    D_G = sum over ruled v of  G(v) * d/dv,

so :meth:`Grammar.derive` is a sum of partial derivatives times rules.

Rules here are restricted to polynomial right-hand sides, which covers every
grammar used by the enclosing toolkit.  Symbolic parameters appearing inside
rules (a weight ``k``, a color count ``r``) are ordinary variables with no
rule of their own, so they behave as constants under ``D_G``.
"""

from __future__ import annotations

from typing import Mapping, Union

from .multipoly import BadInput, Context, ContextMismatch, ParseError, Poly, _check_arg


class BadIterations(BadInput, ValueError):
    """An iteration count that is negative or not an int (a ``bool`` is not one)."""


class Grammar:
    """A substitution-rule map ``variable name -> polynomial`` over one context."""

    def __init__(self, ctx: Context, rules: Mapping[str, Union[Poly, str]]):
        _check_arg(rules, Mapping, "rules")
        self.ctx = ctx
        self.rules: dict[str, Poly] = {}
        for var, rhs in rules.items():
            if isinstance(rhs, str):
                rhs = ctx.poly(rhs)
            elif not isinstance(rhs, Poly):
                raise ParseError(f"rule for {var} must be text or a Poly, got {rhs!r}")
            if rhs.ctx is not ctx:
                raise ContextMismatch("rule right-hand side from a different context")
            ctx.varid(var)
            self.rules[var] = rhs

    def derive(self, f: Poly) -> Poly:
        """Apply ``D_G`` once: ``sum G(v) * df/dv`` over the ruled variables.

        ``f`` must be a :class:`Poly` (:class:`ParseError` otherwise) of the
        grammar's context (:class:`ContextMismatch` otherwise).
        """
        self._check_context(f)
        return self.ctx.combine((rule, f.differentiate(v)) for v, rule in self.rules.items())

    def iterate(self, f: Poly, n: int) -> Poly:
        """n-fold application of :meth:`derive`; ``iterate(f, 0) == f``.

        ``f`` must be a polynomial of the grammar's context, as for :meth:`derive`.
        """
        if type(n) is bool or not isinstance(n, int) or n < 0:
            raise BadIterations(f"iteration count must be a nonnegative int, got {n!r}")
        self._check_context(f)
        for _ in range(n):
            f = self.derive(f)
        return f

    def _check_context(self, f: Poly) -> None:
        # before any rule variable is looked up in f's context, which would intern it there
        _check_arg(f, Poly, "f")
        if f.ctx is not self.ctx:
            raise ContextMismatch("polynomial from a different context than the grammar's")

    def __repr__(self):
        body = ", ".join(f"{v} -> {rhs}" for v, rhs in sorted(self.rules.items()))
        return f"Grammar({body})"


def parse_rules(ctx: Context, text: str) -> Grammar:
    """Parse the one-rule-per-line DSL, e.g. ``x -> x*y``.

    Blank lines and ``#`` comments are ignored.
    """
    _check_arg(text, str, "rules text")
    rules: dict[str, Poly] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: expected 'var -> polynomial'")
        lhs, rhs = line.split("->", 1)
        name = lhs.strip()
        if name in rules:
            raise ParseError(f"line {lineno}: duplicate rule for {name}")
        rules[name] = ctx.poly(rhs)
    return Grammar(ctx, rules)
