"""Context-free grammar calculus: formal derivatives in the sense of Chen.

A grammar assigns to some variables a polynomial replacement rule; the
induced derivative ``D_G`` is the linear operator with ``D_G(v) = G(v)``,
``D_G(c) = 0`` for constants and for variables without a rule, extended by
the Leibniz rule ``D_G(uv) = D_G(u) v + u D_G(v)``.

Rules here are restricted to polynomial right-hand sides, which covers every
grammar used by the enclosing toolkit.  Symbolic parameters appearing inside
rules (a weight ``k``, a color count ``r``) are ordinary variables with no
rule of their own, so they behave as constants under ``D_G``.
"""

from __future__ import annotations

from typing import Mapping, Union

from .multipoly import Context, ParseError, Poly


class Grammar:
    """A substitution-rule map ``variable -> polynomial`` over one context."""

    def __init__(self, ctx: Context, rules: Mapping[Union[str, int], Poly]):
        self.ctx = ctx
        self.rules: dict[int, Poly] = {}
        for var, rhs in rules.items():
            if isinstance(rhs, str):
                rhs = ctx.poly(rhs)
            if rhs.ctx is not ctx:
                raise ValueError("rule right-hand side from a different context")
            self.rules[ctx._resolve(var)] = rhs

    def derive(self, f: Union[Poly, str]) -> Poly:
        """Apply ``D_G`` once.

        Each monomial contributes, for every ruled variable it contains,
        ``exponent * rule(v) * monomial / v``.
        """
        if isinstance(f, str):
            f = self.ctx.poly(f)
        ctx = self.ctx
        pieces = []
        for key, c in f.terms.items():
            for i, (v, e) in enumerate(key):
                rule = self.rules.get(v)
                if rule is None:
                    continue
                if e == 1:
                    rest = key[:i] + key[i + 1 :]
                else:
                    rest = key[:i] + ((v, e - 1),) + key[i + 1 :]
                pieces.append(rule * Poly(ctx, {rest: c * e}))
        return ctx.sum(pieces)

    def iterate(self, f: Union[Poly, str], n: int) -> Poly:
        """n-fold application of :meth:`derive`; ``iterate(f, 0) == f``."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        if isinstance(f, str):
            f = self.ctx.poly(f)
        for _ in range(n):
            f = self.derive(f)
        return f

    def __repr__(self):
        body = ", ".join(
            f"{self.ctx.name(v)} -> {rhs}" for v, rhs in sorted(
                self.rules.items(), key=lambda kv: self.ctx.name(kv[0])
            )
        )
        return f"Grammar({body})"


def parse_rules(ctx: Context, text: str) -> Grammar:
    """Parse the one-rule-per-line DSL, e.g. ``x -> x*y``.

    Blank lines and ``#`` comments are ignored.
    """
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
