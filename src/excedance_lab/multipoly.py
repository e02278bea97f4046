"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial lives in a :class:`Context`, which owns the bijection between
variable names and small integer ids.  Terms are stored sparsely as

    monomial key -> coefficient

where a monomial key is one packed int: the exponent of variable id ``v``
sits in bits ``20*v`` to ``20*v + 19`` (``Context.FIELD = 20``), so the
constant monomial is key 0 and the key of a product is the sum of the keys.
The top bit of each field is a guard bit.  Stored exponents stay below
``2**19``, so adding two keys never carries into the next field, and a
product or bulk build whose keys would set a guard bit raises
:class:`ExponentOverflow`; an exponent never wraps.  Coefficients are Python
ints (or ``fractions.Fraction`` after rational evaluation; integral fractions
are normalised back to int).  The zero polynomial has no terms.

This module is the only reader and builder of monomial keys: other modules
name variables as strings and build polynomials through the ``Context``
constructors, with :meth:`Context.polynomial` as the bulk constructor for
rows of exponents.  :attr:`Poly.terms` is the boundary for code outside the
package that reads keys: a read-only, live view of the store whose keys are
tuples of ``(var_id, exponent)`` pairs sorted by id, with no zero exponents.
``Poly(ctx, terms)`` packs a mapping in that form.

Everything here is pure and values are immutable by convention: no operation
mutates its inputs, so polynomials are safe to share across workers.
:meth:`Context.combine` is the one way to add many polynomials: ``sum w*p``
over ``(w, p)`` pairs, with a scalar 1 (or a sign) for a plain sum; the
parser and :func:`poly_from_json` assemble through it.  Every sum of stores
runs one multiply-accumulate loop, :func:`_add_scaled`, into one fresh dict,
then drops zero sums and normalises coefficients: ``+`` copies the larger
store and adds the smaller one, so only the smaller one's keys need the pass;
:func:`_combined` (behind ``combine`` and the general branch of
:func:`_product`) runs it for every pair ``w, p`` of ``sum w*p``, and
:meth:`Poly.substitute` for every term's image under its polynomial bindings,
whose power tables are built out of ``*`` and ``**``; a scalar binding
instead scales each term's coefficient by integer powers over one common
denominator, with no ``Poly`` product.  In ``_product`` a scalar or one-term
factor ``c*m`` only shifts the other factor's keys by ``m`` and scales its
coefficients by ``c``: nothing merges and no zero is left to drop.  Every
coefficient that enters a store passes :func:`_norm_coeff`, which raises
:class:`BadCoefficient` for anything but an int (a bool is stored as one) or
a ``Fraction``.  :class:`BadInput` is the base of every error, here and in
the modules above, that reports bad input.

Canonical text form sorts terms by the monomial's ``(name, exponent)`` pair
list (names as strings), e.g. ``p^2*q^2 + q*x``; :func:`Context.poly` parses
that form back losslessly.
"""

from __future__ import annotations

import json
import re
from collections.abc import Collection, Mapping
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Union

Coeff = Union[int, Fraction]
MonoKey = tuple[tuple[int, int], ...]


class BadInput(Exception):
    """A bad argument or bad outside input; the CLI maps it to exit 2."""


class ParseError(BadInput, ValueError):
    """Raised for malformed polynomial input: polynomial or rational text, a
    bad variable name, a negative exponent or one that is not an int (a float
    or a ``bool``; of a monomial or of ``**``), a malformed monomial key,
    exponent rows that do not align with their names, or a malformed JSON
    document."""


class ExponentOverflow(BadInput, ValueError):
    """Raised when an exponent reaches its monomial field's guard bit."""


class ContextMismatch(BadInput, ValueError):
    """Polynomials of different contexts met in one operation."""


class BadLength(BadInput, ValueError):
    """A declared length that is not an int, or is below the degree of the
    coefficient sequence."""


class BadCoefficient(BadInput, TypeError, ValueError):
    """A coefficient that is neither an int nor a ``Fraction`` (a float, say).
    It is a ``TypeError``, so an operator given one returns ``NotImplemented``,
    and a ``ValueError`` like every other error at the public boundary."""


def _norm_coeff(c) -> Coeff:
    """``c`` as stored: a bool or an integral fraction becomes int, and
    anything but an int or a ``Fraction`` raises :class:`BadCoefficient`."""
    if type(c) is bool or isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    if isinstance(c, (int, Fraction)):
        return c
    raise BadCoefficient(f"coefficient {c!r} is not an int or a Fraction")


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
    orders still render and compare polynomials identically.  The context
    also owns the key layout: ``FIELD`` bits per variable, and a guard mask
    with the top bit of every interned variable's field.  :meth:`cached` is
    its memo (``families`` keys table systems by builder, n and k or r): each
    value is built once and lives exactly as long as the context.
    """

    FIELD = 20
    _MASK = (1 << FIELD) - 1
    _LIMIT = 1 << (FIELD - 1)  # exponents stay below the guard bit

    def __init__(self, names: Iterable[str] = ()):
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._guard = 0
        self._memo: dict = {}
        for name in names:
            self.varid(name)

    def cached(self, key, build: Callable[[], object]):
        """``build()``'s value for ``key``, built on the first call only; the
        value is shared by every later call, so it must not be mutated."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def varid(self, name: str) -> int:
        """Intern ``name`` and return its id."""
        vid = self._ids.get(name)
        if vid is None:
            if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ParseError(f"bad variable name {name!r}")
            vid = len(self._names)
            self._ids[name] = vid
            self._names.append(name)
            self._guard |= self._LIMIT << (self.FIELD * vid)
        return vid

    def name(self, vid: int) -> str:
        return self._names[vid]

    # -- monomial keys ----------------------------------------------------

    def _shift(self, name: str) -> int:
        """Bit offset of ``name``'s exponent field."""
        return self.FIELD * self.varid(name)

    def _bad_exponent(self, vid: int, e) -> BadInput:
        if type(e) is not int:  # a float, a bool, ...
            return ParseError(f"exponent {e!r} of {self._names[vid]} is not an int")
        if e < 0:
            return ParseError(f"negative exponent {e} of {self._names[vid]}")
        return ExponentOverflow(
            f"exponent {e} of {self._names[vid]} exceeds {self._LIMIT - 1}"
        )

    def _check(self, keys: Iterable[int]) -> None:
        """Raise :class:`ExponentOverflow` if any of ``keys`` sets a guard bit."""
        hit = reduce(or_, keys, 0) & self._guard
        if hit:
            vid = (hit.bit_length() - 1) // self.FIELD
            raise ExponentOverflow(
                f"exponent of {self._names[vid]} exceeds {self._LIMIT - 1}"
            )

    def _pack(self, key: MonoKey) -> int:
        """Packed form of a tuple key (pairs sorted by interned id)."""
        packed, last = 0, -1
        for vid, e in key:
            if not last < vid < len(self._names):
                raise ParseError(f"bad monomial key {key!r}")
            if type(e) is not int or e >> (self.FIELD - 1):
                raise self._bad_exponent(vid, e)
            packed += e << (self.FIELD * vid)
            last = vid
        return packed

    def _unpack(self, key: int) -> MonoKey:
        """Tuple form of a packed key: ``(var_id, exponent)`` pairs, zeros left out."""
        out = []
        vid = 0
        while key:
            e = key & self._MASK
            if e:
                out.append((vid, e))
            key >>= self.FIELD
            vid += 1
        return tuple(out)

    # -- constructors ---------------------------------------------------

    def zero(self) -> "Poly":
        return Poly._of(self, {})

    def const(self, c: Coeff) -> "Poly":
        c = _norm_coeff(c)
        return Poly._of(self, {0: c} if c else {})

    def var(self, name: str) -> "Poly":
        return Poly._of(self, {1 << self._shift(name): 1})

    def monomial(self, exponents: Mapping[str, int], coeff: Coeff = 1) -> "Poly":
        """Build ``coeff * prod(var^e)`` from a name->exponent mapping."""
        return self.polynomial(exponents, [(exponents.values(), coeff)])

    def polynomial(self, names: Iterable[str], rows: Iterable[tuple[Collection[int], Coeff]]) -> "Poly":
        """``sum coeff * prod(name^e)`` over ``(exponents, coeff)`` rows whose
        exponents align with ``names``, which are resolved once.  A repeated
        name adds its exponents, equal monomials merge, zero terms drop.  A
        row with more or fewer exponents than names raises :class:`ParseError`."""
        vids = [self.varid(v) for v in names]
        if len(set(vids)) < len(vids):
            rows = self._fold_repeats(vids, rows)
            vids = list(dict.fromkeys(vids))
        shifts = [self.FIELD * vid for vid in vids]
        width = len(shifts)
        guard_bit = self.FIELD - 1
        out: dict[int, Coeff] = {}
        for exponents, c in rows:
            if len(exponents) != width:
                raise _misaligned(exponents, width)
            key = 0
            for s, e in zip(shifts, exponents):
                if type(e) is not int or e >> guard_bit:  # not an int, negative or at the guard bit
                    raise self._bad_exponent(s // self.FIELD, e)
                key += e << s
            out[key] = out.get(key, 0) + (c if type(c) is int else _norm_coeff(c))
        return Poly._of(self, _normalised(out))

    def _fold_repeats(self, vids: list[int], rows):
        """Rows with a repeated id's exponents added, in first-seen id order."""
        for exponents, c in rows:
            if len(exponents) != len(vids):
                raise _misaligned(exponents, len(vids))
            total = dict.fromkeys(vids, 0)
            for vid, e in zip(vids, exponents):
                if type(e) is not int or e < 0:
                    raise self._bad_exponent(vid, e)
                total[vid] += e
            yield total.values(), c

    def poly(self, text: str) -> "Poly":
        """Parse canonical (or any reasonable) polynomial text."""
        return _parse_poly(self, text)

    def combine(self, pairs: Iterable[tuple]) -> "Poly":
        """``sum w*p`` over ``(w, p)`` pairs of polynomials of this context or scalars.

        Equal to folding ``*`` and ``+`` from the left, but every term product
        is added into one fresh dict (see :func:`_combined`): no ``Poly`` per
        product, inputs never mutated.
        """
        return Poly._of(self, _combined(self, [(self._store(w), self._store(p)) for w, p in pairs]))

    def _store(self, item) -> dict[int, Coeff]:
        """The canonical store of ``item``, a polynomial of this context or a
        scalar: :class:`ContextMismatch` for another context,
        :class:`BadCoefficient` for any other type."""
        if isinstance(item, Poly):
            if item.ctx is not self:
                raise ContextMismatch("polynomials from different contexts")
            return item._t
        c = _norm_coeff(item)
        return {0: c} if c else {}


def _misaligned(exponents: Collection[int], width: int) -> ParseError:
    return ParseError(f"exponent row {tuple(exponents)} does not align with {width} names")


def _normalised(out: dict[int, Coeff]) -> dict[int, Coeff]:
    """``out`` without zero coefficients and with integral fractions as int."""
    return {key: c if type(c) is int else _norm_coeff(c) for key, c in out.items() if c}


_ONE: dict[int, Coeff] = {0: 1}  # the store of the constant 1; never mutated


def _add_scaled(out: dict[int, Coeff], store: dict[int, Coeff], key: int, c: Coeff) -> None:
    """Add ``c * store`` times the monomial of ``key`` into ``out`` in place.  Keys
    are not guard-checked and zero sums stay: the caller does both."""
    get = out.get
    for k, v in store.items():
        k += key  # a product key is the sum of the factors' keys
        out[k] = get(k, 0) + c * v


def _product(ctx: Context, a: dict[int, Coeff], b: dict[int, Coeff]) -> dict[int, Coeff]:
    """Product of two canonical stores of ``ctx``: a fresh canonical store,
    guard-checked.  A one-term factor ``c*key`` (a scalar is ``key`` 0) only
    shifts the other factor's keys and scales its coefficients, so nothing
    merges, no coefficient vanishes, and ``key`` 0 leaves nothing to check."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((key, c),) = b.items()
        out = {k + key: p if type(p := v * c) is int else _norm_coeff(p) for k, v in a.items()}
        if key:
            ctx._check(out)
        return out
    return _combined(ctx, ((a, b),))


def _combined(ctx: Context, pairs: Iterable[tuple[dict, dict]]) -> dict[int, Coeff]:
    """``sum a*b`` over pairs of canonical stores of ``ctx``, as a fresh canonical
    store: each term of a pair's smaller store adds the larger one, shifted and
    scaled, into one dict.  The guard bits are checked before zero sums drop."""
    out: dict[int, Coeff] = {}
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        for key, c in a.items():
            _add_scaled(out, b, key, c)
    ctx._check(out)
    return _normalised(out)


def _power_table(val: "Poly", exponents: set[int]) -> dict[int, dict[int, Coeff]]:
    """``{e: store of val**e}`` for every ``e`` in ``exponents`` (all >= 1).

    Entries are built in ascending order, each one product from the entry
    below it: ``val**e = val**last * val**(e - last)``.  For consecutive
    exponents the step is ``val`` itself; a wider gap's step is raised once
    with ``**`` and reused, so a sparse high exponent costs log(e) products,
    not e.  Every product is a ``Poly`` product, guard check included.
    """
    table: dict[int, dict[int, Coeff]] = {}
    steps = {1: val}
    prev, last = None, 0
    for e in sorted(exponents):
        step = steps.get(e - last)
        if step is None:
            step = steps[e - last] = val ** (e - last)
        prev = step if prev is None else prev * step
        table[e] = prev._t
        last = e
    return table


def _scalar_powers(n: int, d: int, exponents: set[int]) -> dict[int, int]:
    """``{e: n**e * d**(top - e)}`` for every ``e`` in ``exponents``, ``top``
    their largest: the powers of the scalar ``n/d`` over the common denominator
    ``d**top``.  The powers of ``n`` are built in ascending order and those of
    ``d`` in descending order, each one product from the entry before it.  A
    zero entry (``n = 0``, ``e >= 1``) is left out: its terms vanish.
    """
    ordered = sorted(exponents)
    table: dict[int, int] = {}
    power, last = 1, 0
    for e in ordered:
        power *= n ** (e - last)
        table[e] = power
        last = e
    power = 1
    for e in reversed(ordered):
        power *= d ** (last - e)
        table[e] *= power
        last = e
    return {e: p for e, p in table.items() if p}


class _Terms(Mapping):
    """Read-only view of a polynomial's store with tuple keys."""

    __slots__ = ("_ctx", "_t")

    def __init__(self, ctx: Context, store: dict[int, Coeff]):
        self._ctx = ctx
        self._t = store

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return map(self._ctx._unpack, self._t)

    def __getitem__(self, key):
        try:
            packed = self._ctx._pack(key)
            if self._ctx._unpack(packed) == key:  # canonical: no zero exponents
                return self._t[packed]
        except (TypeError, ValueError, KeyError):
            pass
        raise KeyError(key)


class Poly:
    """Immutable sparse polynomial with exact coefficients."""

    __slots__ = ("ctx", "_t")

    def __init__(self, ctx: Context, terms: Mapping[MonoKey, Coeff]):
        """Pack ``terms``, keyed by tuples as :attr:`terms` shows them."""
        out: dict[int, Coeff] = {}
        for key, c in terms.items():
            packed = ctx._pack(key)
            out[packed] = out.get(packed, 0) + (c if type(c) is int else _norm_coeff(c))
        self.ctx = ctx
        self._t = _normalised(out)

    @classmethod
    def _of(cls, ctx: Context, store: dict[int, Coeff]) -> "Poly":
        """A polynomial that owns ``store``: packed keys, canonical coefficients."""
        p = object.__new__(cls)
        p.ctx = ctx
        p._t = store
        return p

    @property
    def terms(self) -> Mapping[MonoKey, Coeff]:
        """Read-only, live view of the terms with tuple keys (see module doc)."""
        return _Terms(self.ctx, self._t)

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        try:
            store = self.ctx._store(other)
        except TypeError:
            return NotImplemented
        big, small = (self._t, store) if len(self._t) >= len(store) else (store, self._t)
        out = dict(big)
        _add_scaled(out, small, 0, 1)
        for key in small:  # the copy of the larger store is canonical elsewhere
            if not (c := out[key]):
                del out[key]
            elif type(c) is not int:
                out[key] = _norm_coeff(c)
        return Poly._of(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.ctx, {k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        try:
            store = self.ctx._store(other)
        except TypeError:
            return NotImplemented
        return self + -Poly._of(self.ctx, store)

    def __rsub__(self, other):
        return (-self).__add__(other)  # NotImplemented for a bad ``other``, as ``+`` gives

    def __mul__(self, other):
        try:
            store = self.ctx._store(other)
        except TypeError:
            return NotImplemented
        return Poly._of(self.ctx, _product(self.ctx, self._t, store))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if type(e) is bool or not isinstance(e, int) or e < 0:
            raise ParseError("polynomial power needs a nonnegative integer exponent")
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
            return self._t == other._t
        return self._named_terms() == other._named_terms()

    def __hash__(self):
        if self._t.keys() <= {0}:  # a constant hashes as its scalar, which it equals
            return hash(self._t.get(0, 0))
        return hash(frozenset(self._named_terms().items()))

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        """The number of terms, in O(1)."""
        return len(self._t)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def variables(self) -> tuple[str, ...]:
        seen = reduce(or_, self._t, 0)
        ctx = self.ctx
        return tuple(sorted(
            name for vid, name in enumerate(ctx._names)
            if (seen >> (ctx.FIELD * vid)) & ctx._MASK
        ))

    def degree(self, var: str) -> int:
        """Degree in one variable (0 for the zero polynomial)."""
        s, mask = self.ctx._shift(var), Context._MASK
        return max(((key >> s) & mask for key in self._t), default=0)

    def constant_term(self) -> Coeff:
        return self._t.get(0, 0)

    def _named_terms(self) -> dict[tuple[tuple[str, int], ...], Coeff]:
        unpack, name = self.ctx._unpack, self.ctx.name
        return {
            tuple(sorted((name(v), e) for v, e in unpack(key))): c
            for key, c in self._t.items()
        }

    # -- calculus and substitution ---------------------------------------

    def differentiate(self, var: str) -> "Poly":
        """Formal partial derivative (linear, satisfies the product rule)."""
        s, mask = self.ctx._shift(var), Context._MASK
        one = 1 << s
        out: dict[int, Coeff] = {}
        for key, c in self._t.items():
            e = (key >> s) & mask
            if e:
                # lowering one exponent is injective on keys: nothing merges
                out[key - one] = c * e if type(c) is int else _norm_coeff(c * e)
        return Poly._of(self.ctx, out)

    def substitute(self, bindings: Mapping) -> "Poly":
        """Simultaneous substitution of polynomials (or constants) for variables.

        Unbound variables pass through.  Bindings are keyed by variable name;
        bindings that are not a mapping raise :class:`ParseError`.  A value
        that is a number, rational text or a constant polynomial is a scalar
        ``n/d``: with ``E`` the variable's largest exponent here, exponent
        ``e`` becomes the int ``n**e * d**(E - e)`` (see :func:`_scalar_powers`),
        each term's coefficient is multiplied by its powers, and each output
        coefficient is divided once by ``D``, the product of every ``d**E``.
        A zero scalar skips the terms it kills.  Every other value gets one
        power table for the whole call, with an entry for every exponent it
        has in this polynomial (see :func:`_power_table`).  Each term's image,
        the product of its cached powers (a table entry itself when one such
        variable is bound in the term), is shifted by its free monomial,
        scaled and added straight into one output dict.  That output is
        guard-checked, since a free field and a binding can share a variable,
        so an exponent never wraps.
        """
        if not isinstance(bindings, Mapping):
            raise ParseError(f"bindings {bindings!r} are not a mapping of names to values")
        ctx = self.ctx
        scalars: dict[int, Coeff] = {}
        subs: dict[int, Poly] = {}
        for var, val in bindings.items():
            if isinstance(val, Poly):
                if val.ctx is not ctx:
                    raise ContextMismatch("binding from a different context")
                if val._t.keys() - {0}:
                    subs[ctx.varid(var)] = val
                    continue
                val = val.constant_term()
            elif not isinstance(val, (int, Fraction)):
                val = as_fraction(val)
            scalars[ctx.varid(var)] = val
        if not (scalars or subs):
            return self
        mask = Context._MASK
        scaled = []  # (field shift, scalar powers), in id order
        denominator = 1
        for vid in sorted(scalars):
            s = ctx.FIELD * vid
            used = {(key >> s) & mask for key in self._t}
            if used - {0}:
                val = scalars[vid]
                denominator *= val.denominator ** max(used)
                scaled.append((s, _scalar_powers(val.numerator, val.denominator, used)))
        bound = []  # (field shift, power table), in id order
        for vid in sorted(subs):
            s = ctx.FIELD * vid
            used = {(key >> s) & mask for key in self._t} - {0}
            bound.append((s, _power_table(subs[vid], used)))
        free = ~sum(mask << (ctx.FIELD * vid) for vid in (*scalars, *subs))
        out: dict[int, Coeff] = {}
        for key, c in self._t.items():
            for s, powers in scaled:
                power = powers.get((key >> s) & mask)
                if power is None:  # a zero scalar's power: the term vanishes
                    break
                c *= power
            else:
                image = _ONE
                for s, powers in bound:
                    e = (key >> s) & mask
                    if e:
                        image = powers[e] if image is _ONE else _product(ctx, image, powers[e])
                _add_scaled(out, image, key & free, c)
        if bound:
            ctx._check(out)
        if denominator != 1:
            out = {
                key: Fraction(c, denominator) if type(c) is int else c / denominator
                for key, c in out.items() if c
            }
        return Poly._of(ctx, _normalised(out))

    def eval_rational(self, point: Mapping) -> "Poly":
        """Evaluate some variables at exact rationals; the rest stay free."""
        if not isinstance(point, Mapping):
            raise ParseError(f"point {point!r} is not a mapping of names to values")
        return self.substitute({var: as_fraction(val) for var, val in point.items()})

    def coeffs_in(self, var: str) -> list["Poly"]:
        """Coefficient list [c_0, ..., c_d] with  f = sum c_i * var^i."""
        s, mask = self.ctx._shift(var), Context._MASK
        buckets: dict[int, dict[int, Coeff]] = {}
        for key, c in self._t.items():
            e = (key >> s) & mask
            buckets.setdefault(e, {})[key - (e << s)] = c
        zero = self.ctx.zero()  # shared by every missing degree: Polys are immutable
        return [
            Poly._of(self.ctx, buckets[i]) if i in buckets else zero
            for i in range(max(buckets, default=0) + 1)
        ]

    def reverse_in(self, var: str, length: int) -> "Poly":
        """Coefficient reversal  var^length * f(1/var)  as a polynomial: each
        term's exponent e of ``var`` becomes ``length - e``.

        Requires an int length (not a ``bool``) >= degree in ``var``
        (:class:`BadLength` otherwise); a reversed exponent at the guard bit
        raises :class:`ExponentOverflow`.
        """
        if type(length) is bool or not isinstance(length, int):
            raise BadLength(f"length {length!r} is not an int")
        ctx = self.ctx
        s, mask = ctx._shift(var), Context._MASK
        exps = [(key >> s) & mask for key in self._t]
        if length < max(exps, default=0):
            raise BadLength("length below the actual degree")
        top = length - min(exps, default=length)
        if top >> (ctx.FIELD - 1):
            raise ctx._bad_exponent(s // ctx.FIELD, top)
        # key - (e << s) + ((length - e) << s); every length - e fits its field
        out = {key + ((length - 2 * e) << s): c for (key, c), e in zip(self._t.items(), exps)}
        return Poly._of(ctx, out)

    # -- rendering --------------------------------------------------------

    def _sorted_named(self):
        return sorted(self._named_terms().items())

    def to_text(self) -> str:
        """Canonical text form, parseable back by :meth:`Context.poly`."""
        if not self._t:
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
    """Inverse of :meth:`Poly.to_json` / ``to_json_obj``: JSON text, or the
    list it decodes to.  Malformed input raises :class:`ParseError`."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"polynomial JSON does not parse: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError(f"polynomial JSON must be a list of terms, got {type(data).__name__}")
    return ctx.combine(_term_from_json(ctx, term) for term in data)


def _term_from_json(ctx: Context, term) -> tuple[Fraction, Poly]:
    """One term of ``poly_from_json``, {"exponents": {var: e}, "coeff": c}, as
    its ``(coeff, monomial)`` pair."""
    if not isinstance(term, dict) or "exponents" not in term or "coeff" not in term:
        raise ParseError(f"a JSON term needs exponents and coeff, got {term!r}")
    exponents = term["exponents"]
    if not isinstance(exponents, dict) or not all(type(e) is int for e in exponents.values()):
        raise ParseError(f"JSON exponents must map names to integers, got {exponents!r}")
    return as_fraction(term["coeff"]), ctx.monomial(exponents)


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
    # parentheses and unary minus signs after an operator recurse; real input
    # nests a few levels, and this bound keeps far below the interpreter's stack
    MAX_DEPTH = 100

    def __init__(self, ctx: Context, tokens: list[str]):
        self.ctx = ctx
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """``parse()`` one level deeper; raises :class:`ParseError` past ``MAX_DEPTH``."""
        if self.depth == self.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {self.MAX_DEPTH} levels")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

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
        return self.ctx.combine(pieces)

    def signed_term(self) -> tuple[int, Poly]:
        """The ``(sign, term)`` pair of a term and the signs before it."""
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign, self.term()

    def term(self) -> Poly:
        result = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                result = result * rhs
            else:
                # exact division is only supported for nonzero rational literals
                if not rhs._t:
                    raise ParseError("division by zero")
                if rhs._t.keys() != {0}:
                    raise ParseError("division by a non-constant")
                result = result * self.ctx.const(Fraction(1, 1) / Fraction(rhs.constant_term()))
        return result

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if tok == "(":
                inner = self.nested(self.expr)
                if self.take() != ")":
                    raise ParseError("unclosed exponent parenthesis")
                if inner._t.keys() - {0} or not isinstance(inner.constant_term(), int):
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
            inner = self.nested(self.expr)
            if self.take() != ")":
                raise ParseError("unclosed parenthesis")
            return inner
        if tok == "-":
            return -self.nested(self.factor)
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
