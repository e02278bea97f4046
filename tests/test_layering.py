"""The package's import graph keeps the routes independent.

``multipoly``, ``grammar``, ``shape`` and ``families`` (the algebra, grammar
and recurrence routes) never reach the enumeration side, and ``permstats``
(the enumeration route) never reaches the other routes or the registry.

``multipoly`` alone knows the monomial-key format: no other module reads
``.terms`` or the packed store ``._t``, builds a ``Poly`` from raw terms or
through ``._of``, packs or unpacks keys, or resolves raw variable ids.

``permstats`` compares no class kind with a string: what depends on the kind
is a column of the kind's ``_KINDS`` row.

``identities`` restricts no class with a ``gen_poly`` ``where=`` filter: a
restriction is a variable bound to 0 in the substitution the identity makes.

No module keeps state it rebinds through a ``global`` statement: a kernel
computes from its arguments.

Importing the package loads neither ``multiprocessing`` nor ``pickle``: the
fork pool and the sharded cold builds import what they need when they run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "excedance_lab"


def package_imports(module: str) -> set[str]:
    """Names of the sibling modules ``module`` imports, at any depth of its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)  # from . import x
            elif node.level == 1:
                found.add(node.module.split(".")[0])  # from .x import y
            elif node.module and node.module.startswith("excedance_lab."):
                found.add(node.module.split(".")[1])
            elif node.module == "excedance_lab":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("excedance_lab.")
            )
    return found


# identities compares the routes, so it sits above all of them
ENUMERATION_SIDE = {"permstats", "fsaction", "identities"}
FORBIDDEN = {
    "multipoly": ENUMERATION_SIDE,
    "grammar": ENUMERATION_SIDE,
    "shape": ENUMERATION_SIDE,
    "families": ENUMERATION_SIDE,
    "permstats": {"families", "grammar", "shape", "identities"},
}


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_routes_import_nothing_from_each_other(module):
    assert package_imports(module) & FORBIDDEN[module] == set()


def test_the_import_parser_finds_known_imports():
    # guards the test above against passing because it parses nothing
    assert {"families", "fsaction", "permstats", "shape", "grammar", "multipoly"} <= (
        package_imports("identities")
    )
    assert "permstats" in package_imports("fsaction")


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


KEY_ATTRIBUTES = ("terms", "_t", "_of", "_pack", "_unpack")


def key_format_uses(source: str) -> set[str]:
    """The uses of ``KEY_ATTRIBUTES`` and the calls of ``Poly`` or ``._resolve`` in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in KEY_ATTRIBUTES:
            found.add(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("Poly", "_resolve"):
                found.add(f"line {node.lineno}: {name}(...)")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "multipoly"])
def test_only_multipoly_reads_monomial_keys(module):
    assert key_format_uses((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == set()


def test_the_key_format_finder_finds_each_use():
    # guards the test above against passing because it finds nothing
    source = (
        "f.terms\nPoly(ctx, {})\nmultipoly.Poly(ctx, {})\nctx._resolve(0)\nf.to_text()\n"
        "f._t\nPoly._of(ctx, {})\nctx._pack(key)\nctx._unpack(0)\n"
    )
    assert key_format_uses(source) == {
        "line 1: .terms", "line 2: Poly(...)", "line 3: Poly(...)", "line 4: _resolve(...)",
        "line 6: ._t", "line 7: ._of", "line 8: ._pack", "line 9: ._unpack",
    }


def kind_comparisons(source: str) -> set[str]:
    """The comparisons of ``kind`` or of an attribute ``.kind`` with a string
    constant, or with a tuple, list or set of them, in ``source``."""

    def is_kind(node):
        return (isinstance(node, ast.Name) and node.id == "kind") or (
            isinstance(node, ast.Attribute) and node.attr == "kind"
        )

    def is_text(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_text, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_kind, operands)) and any(map(is_text, operands)):
                found.add(f"line {node.lineno}")
    return found


def test_permstats_has_no_kind_ladder():
    # everything that depends on the kind is a column of its _KINDS row
    assert kind_comparisons((PACKAGE / "permstats.py").read_text(encoding="utf-8")) == set()


# the kind ladders that permstats had before they moved onto the rows, cut
# down to their tests: PermObject's three methods, _derive and _stream
LADDERS = '''
def cycles(self):
    if self.kind == "plain": ...
    if self.kind == "signed": ...
    if self.kind == "colored": ...
def word_string(self):
    if self.kind == "colored": ...
def cycle_string(self):
    if self.kind == "stirling": ...
    if self.kind == "colored": ...
def _derive(kind, n, r):
    if kind == "plain": ...
    if kind == "signed": ...
    if kind == "colored": ...
def _stream(kind, n, r, k):
    if kind == "plain": ...
    elif kind == "signed": ...
    elif kind == "colored": ...
'''


def test_the_kind_ladder_finder_finds_each_comparison():
    # guards the test above against passing because it finds nothing
    assert len(kind_comparisons(LADDERS)) == 12
    source = (
        'perm.kind != "plain"\nkind in ("plain", "signed")\n"stirling" == kind\n'
        'kind == other\nrow.param != "r"\nkind = "plain"\n'
    )
    assert kind_comparisons(source) == {"line 1", "line 2", "line 3"}


def where_filters(source: str) -> set[str]:
    """The calls in ``source`` that pass a ``where=`` keyword."""
    return {
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and any(kw.arg == "where" for kw in node.keywords)
    }


def test_identities_restrict_no_class_with_where():
    # a restriction of a class is a variable bound to 0 in the identity's substitution
    assert where_filters((PACKAGE / "identities.py").read_text(encoding="utf-8")) == set()


def test_the_where_finder_finds_each_filter():
    # guards the test above against passing because it finds nothing
    source = (
        'gen_poly(ctx, "plain", n, w, where=lambda st: st["fix"] == 0)\n'
        "permstats.gen_poly(ctx, kind, n, w, where=keep)\ngen_poly(ctx, kind, n, w)\n"
        "where = keep\nfilter(where, cells)\n"
    )
    assert where_filters(source) == {"line 1", "line 2"}


def test_importing_the_package_loads_no_process_machinery():
    code = (
        "import sys\n"
        "import excedance_lab\n"
        "print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[]\n", proc.stderr


def global_statements(source: str) -> set[str]:
    """The ``global`` statements in ``source``."""
    return {
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    }


def test_no_module_has_a_global_statement():
    # the finder finds one, so the check below cannot pass by parsing nothing
    assert global_statements("slot = 0\ndef f():\n    global slot\n") == {"line 3"}
    found = {
        str(path.relative_to(PACKAGE.parent)): global_statements(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.parent.rglob("*.py"))
    }
    assert {path: lines for path, lines in found.items() if lines} == {}
