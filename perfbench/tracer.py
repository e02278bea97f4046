"""In-memory span tracer that wraps the package's public entry points from outside.

Nothing in the library is edited: the tracer replaces module attributes and
class attributes with timing wrappers, and rebinds every other module-level
name that refers to the same function object (``from .permstats import
gen_poly`` in ``identities``, ``check as shape_check``, the re-exports in the
package ``__init__``...).  Operators on ``Poly`` are patched one class
attribute at a time, because ``__radd__`` and ``__rmul__`` are separate
attributes even where the class body aliased them.

Self time is computed exactly with a frame stack: when a span ends, its
duration minus the time covered by its child spans is charged to its layer,
and its full duration is added to its parent's child time.  Spans are only
recorded while a root span is open, so output checks made after the timed
region cost nothing here.

Coarse spans (everything except individual ``Poly`` operators and single
``enumerate_class`` steps, which number in the millions) are kept in memory
and written out as JSON lines by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

_clock = time.perf_counter


class Tracer:
    def __init__(self, request: str):
        self.request = request
        self.active = False
        # frame: [span id, name, layer, start, time covered by child spans]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.root_s = 0.0
        self._next_id = 0

    # -- span stack -----------------------------------------------------------

    def push(self, name: str, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, layer, _clock(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, layer: str | None = None, keep: bool = True) -> float:
        end = _clock()
        frame = self.stack.pop()
        dur = end - frame[3]
        self.self_s[layer or frame[2]] += dur - frame[4]
        if self.stack:
            self.stack[-1][4] += dur
        if keep:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((frame[0], parent, frame[1], frame[3], end))
        return dur

    @contextmanager
    def root(self, traced: bool):
        """Time one measured region; record spans inside it when ``traced``."""
        self.active = traced
        self.push(self.request, "unattributed")
        try:
            yield
        finally:
            self.root_s += self.pop()
            self.active = False

    # -- output ---------------------------------------------------------------

    def payload(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "root_s": self.root_s}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "request": self.request, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span_wrapper(tr: Tracer, fn, name: str, layer: str, hook=None, keep=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(args, kwargs)
        tr.push(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.pop(keep=keep)

    return wrapper


def _rebind(modules, orig, replacement) -> None:
    """Point every module-level name bound to ``orig`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _public_functions(mod) -> list[str]:
    return [
        name for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not name.startswith("_")
    ]


def install(tr: Tracer, *callers) -> None:
    """Patch the package's entry points so that ``tr`` sees every call.

    ``callers`` are further modules (the benchmark's own) whose imported
    names are rebound too.
    """
    import excedance_lab
    from excedance_lab import (
        cli, families, fsaction, grammar, identities, multipoly, permstats, shape,
    )

    modules = (excedance_lab, cli, families, fsaction, grammar, identities,
               multipoly, permstats, shape, *callers)
    counts = tr.counts
    Poly = multipoly.Poly

    def patch_function(mod, name, layer, hook=None):
        orig = getattr(mod, name)
        _rebind(modules, orig, _span_wrapper(tr, orig, f"{mod.__name__}.{name}",
                                             layer, hook))

    def count_hook(key):
        def hook(args, kwargs):
            counts[key] += 1
        return hook

    # -- permstats ----------------------------------------------------------
    patch_function(permstats, "gen_poly", "permstats.warm",
                   count_hook("permstats.gen_poly.calls"))
    for name in ("stat_distribution", "stirling_identities"):
        patch_function(permstats, name, "permstats.warm")

    dist = permstats._distribution_cached

    def distribution(kind, n, r, k):
        if not tr.active:
            return dist(kind, n, r, k)
        misses = dist.cache_info().misses
        tr.push(f"permstats.distribution({kind},{n},{r},{k})", "permstats.warm")
        try:
            return dist(kind, n, r, k)
        finally:
            cold = dist.cache_info().misses > misses
            tr.pop("permstats.cold" if cold else "permstats.warm")
            if cold:
                counts["permstats.objects"] += permstats.class_size(kind, n, r=r, k=k)
                caller = tr.stack[-1] if tr.stack else None
                if caller is not None and caller[1] == "excedance_lab.permstats.gen_poly":
                    counts["permstats.gen_poly.cold"] += 1

    permstats._distribution_cached = distribution

    orig_enum = permstats.enumerate_class

    @functools.wraps(orig_enum)
    def enumerate_class(*args, **kwargs):
        it = orig_enum(*args, **kwargs)
        while True:
            if not tr.active:
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item
                continue
            tr.push("permstats.enumerate_class.next", "permstats.enumerate_class")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.pop(keep=False)
            counts["permstats.enumerate_class.objects"] += 1
            yield item

    _rebind(modules, orig_enum, enumerate_class)

    # -- multipoly ------------------------------------------------------------
    def nterms(other):
        if isinstance(other, Poly):
            return len(other.terms)
        return 1 if isinstance(other, (int, Fraction)) and other else 0

    def mul_hook(args, kwargs):
        counts["multipoly.mul.calls"] += 1
        counts["multipoly.mul.term_pairs"] += len(args[0].terms) * nterms(args[1])

    def add_hook(args, kwargs):
        counts["multipoly.add.calls"] += 1
        counts["multipoly.add.terms_copied"] += len(args[0].terms)

    # __sub__ delegates to __add__, so each subtraction is counted once, as an
    # addition; its own span only carries the negation.
    for attr, layer, hook in (
        ("__add__", "multipoly.add", add_hook),
        ("__radd__", "multipoly.add", add_hook),
        ("__sub__", "multipoly.add", None),
        ("__mul__", "multipoly.mul", mul_hook),
        ("__rmul__", "multipoly.mul", mul_hook),
        ("substitute", "multipoly.substitute", count_hook("multipoly.substitute.calls")),
    ):
        setattr(Poly, attr, _span_wrapper(
            tr, vars(Poly)[attr], f"Poly.{attr}", layer, hook, keep=False))
    multipoly.Context.poly = _span_wrapper(
        tr, multipoly.Context.poly, "Context.poly", "multipoly.parse",
        count_hook("multipoly.parse.calls"), keep=False)

    # -- grammar ----------------------------------------------------------------
    def derive_hook(args, kwargs):
        counts["grammar.derive.calls"] += 1
        f = args[1]
        if isinstance(f, Poly):
            counts["grammar.derive.terms_in"] += len(f.terms)

    grammar.Grammar.derive = _span_wrapper(
        tr, grammar.Grammar.derive, "Grammar.derive", "grammar.derive", derive_hook)
    patch_function(grammar, "parse_rules", "grammar.derive")

    # -- families, shape, fsaction ----------------------------------------------
    for name in _public_functions(families):
        patch_function(families, name, "families", count_hook("families.build.calls"))
    for name in _public_functions(shape):
        patch_function(shape, name, "shape", count_hook("shape.calls"))
    coeffseq = shape.CoeffSeq
    coeffseq.from_poly = staticmethod(_span_wrapper(
        tr, vars(coeffseq)["from_poly"].__func__, "CoeffSeq.from_poly", "shape",
        count_hook("shape.calls")))
    coeffseq.to_poly = _span_wrapper(
        tr, coeffseq.to_poly, "CoeffSeq.to_poly", "shape", count_hook("shape.calls"))
    shape.PartialGamma.assemble = _span_wrapper(
        tr, shape.PartialGamma.assemble, "PartialGamma.assemble", "shape",
        count_hook("shape.calls"))
    for name in _public_functions(fsaction):
        hook = count_hook("fsaction.act.calls") if name == "act" else None
        patch_function(fsaction, name, "fsaction", hook)

    # -- identities -------------------------------------------------------------
    def comparison(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if tr.active:
                counts["identities.comparisons"] += 1
            return method(*args, **kwargs)
        return wrapper

    identities.Checker.eq = comparison(identities.Checker.eq)
    identities.Checker.ok = comparison(identities.Checker.ok)

    orig_verify = identities.run_verify

    @functools.wraps(orig_verify)
    def run_verify(ident, **kwargs):
        if not tr.active:
            return orig_verify(ident, **kwargs)
        record = identities.REGISTRY.get(ident)
        crit = record.criterion if record is not None else None
        tr.push(f"identity:{ident}", f"identities.crit{crit}" if crit else "identities.other")
        try:
            result = orig_verify(ident, **kwargs)
        finally:
            tr.pop()
        counts["identities.mismatches"] += len(result.mismatches)
        counts["identities.skipped"] += result.status == "skipped"
        return result

    _rebind(modules, orig_verify, run_verify)
