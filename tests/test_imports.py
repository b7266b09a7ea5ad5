"""Static hygiene of the package source, checked with the stdlib ast."""

import ast
import collections
import pathlib

import ainfkit

SRC = pathlib.Path(ainfkit.__file__).parent


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_no_vector_type_dispatch():
    """Operators on basis words take a word, never "a word or a Vector": a
    Vector goes through ``Vector.bind``.  The only isinstance test against
    Vector is the one in ``Vector.__eq__``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Vector":
                allowed |= {id(n) for m in node.body
                            if getattr(m, "name", None) == "__eq__"
                            for n in ast.walk(m)}
        found += ["%s:%d" % (path.name, n.lineno) for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and getattr(n.func, "id", None) == "isinstance"
                  and "Vector" in _names(n.args[1])]
    assert found == []


def _names(node):
    """How often each identifier is named under a node: as a variable, an
    attribute or an imported name."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
    return out


def test_no_dead_definitions():
    """Every top-level function or class, and every non-dunder method,
    defined in the package is named somewhere in src/, tests/ or
    perfbench/ outside its own definition."""
    assert _unnamed(("src", "tests", "perfbench")) == []


def _unnamed(parts):
    """Every top-level function or class, and every non-dunder method,
    defined in the package and named nowhere in the given top-level
    directories outside its own definition, as (file, line, name)."""
    root = SRC.parent.parent
    named = collections.Counter()
    for part in parts:
        for path in sorted((root / part).rglob("*.py")):
            named += _names(ast.parse(path.read_text(encoding="utf-8")))
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__")
                                  and m.name.endswith("__"))]
        out += [(path.name, node.lineno, node.name) for node in defs
                if named[node.name] == _names(node)[node.name]]
    return out


# Definitions that only tests name.  The list may only shrink: a new
# test-only definition fails the test below, and so does a listed name
# that was deleted or that src/ or perfbench/ now uses.
TEST_ONLY = {
    "adjoint.py": {"check_inclusion_morphism",
                   "check_strict_morphism_transport",
                   "universality_transport"},
    "graded.py": {"comultiply"},
    "homotopy.py": {"check_interval_coalgebra", "identity_dga_morphism",
                    "check_dga_morphism", "bar_transfer_contraction",
                    "extend_homotopy", "check_obstruction_ideal",
                    "check_obstruction_derivation",
                    "check_obstruction_bimodule"},
    "qmod.py": {"tensor_hom", "q_action", "q_as_ue",
                "check_adjunction_transport", "restrict_hom",
                "check_restriction_square", "check_free_module",
                "extend_scalars"},
    "rings.py": {"variable", "truncate_degree", "constants_hom",
                 "evaluation_hom"},
    "vanish.py": {"check_curvature_commutator", "detect_augmentation",
                  "mc_evaluate"},
}


def test_test_only_definitions_only_shrink():
    """The definitions named in src/ and perfbench/ only by their own
    definition are exactly the frozen list."""
    found = collections.defaultdict(set)
    for fname, _, name in _unnamed(("src", "perfbench")):
        found[fname].add(name)
    assert dict(found) == TEST_ONLY


class _CacheSites(ast.NodeVisitor):
    """Where the package memoizes: functools caches anywhere, and calls of
    ``cached`` outside a function body or inside an ``__init__``, as
    (line, what).  Decorators and default values run where the function is
    defined, so they count at the enclosing level."""

    def __init__(self):
        self.scope = []     # names of the enclosing functions
        self.found = []

    def visit_FunctionDef(self, node):
        for n in node.decorator_list + node.args.defaults \
                + [d for d in node.args.kw_defaults if d is not None]:
            self.visit(n)
        self.scope.append(node.name)
        for n in node.body:
            self.visit(n)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scope.append("<lambda>")
        self.visit(node.body)
        self.scope.pop()

    def visit_Attribute(self, node):
        if (node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) == "functools"):
            self.found.append((node.lineno, "functools." + node.attr))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "functools":
            self.found += [(node.lineno, "functools." + a.name)
                           for a in node.names
                           if a.name in ("lru_cache", "cache")]

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "cached" and (not self.scope or self.scope[-1]
                                 == "__init__"):
            self.found.append((node.lineno, "cached outside one call"))
        self.generic_visit(node)


def test_caches_live_for_one_call():
    """A word cache lives for one check or construction call: no functools
    cache in the package, and no ``cached`` map made at module or class
    level or in a constructor, where it would outlive the call."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        sites = _CacheSites()
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += ["%s:%d %s" % (path.name, line, what)
                  for line, what in sites.found]
    assert found == []
