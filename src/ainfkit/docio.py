"""JSON input documents: rings, graded spaces, structure tables.

One document declares a coefficient ring, a grading group, named generator
spaces, and any number of structures over them (algebras as m- or b-tables,
classical curved dg-algebras, modules, morphisms, bimodules, matrix
factorizations, augmentations, homotopies, and hom-elements), and
optionally a base change of coefficients out of the integers.  Loading
validates that every referenced name exists and that every table entry is
degree-consistent; integers travel as arbitrary-precision decimal strings,
rationals as "a/b" strings, and polynomials as lists of
[exponent-vector, coefficient] monomials.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .ainf import (AInfAlgebra, AInfModule, AInfMorphism, CurvedDga,
                   HomElement, TableBimodule, b_from_m, impose_unit_laws)
from .graded import GradedSpace, Grading, MultiOp, Vector, Word
from .rings import (Integers, IntegersMod, PolynomialRing, Rationals, Ring,
                    RingHom, UnsupportedRing, exact_integer,
                    inclusion_to_rationals, reduction_mod,
                    ring_from_descriptor)
from .vanish import AugmentationMap, MatrixFactorization


class ParseError(Exception):
    """The file is not well-formed JSON; carries line and column."""


class ValidationError(Exception):
    """The document parses but names a missing entity or an inconsistent
    table entry; the message names the offending entity."""


@dataclass
class SpecDocument:
    ring: Ring
    grading: Grading
    caps: Dict[str, int]
    spaces: Dict[str, GradedSpace] = field(default_factory=dict)
    algebras: Dict[str, AInfAlgebra] = field(default_factory=dict)
    dgas: Dict[str, CurvedDga] = field(default_factory=dict)
    modules: Dict[str, AInfModule] = field(default_factory=dict)
    morphisms: Dict[str, AInfMorphism] = field(default_factory=dict)
    bimodules: Dict[str, TableBimodule] = field(default_factory=dict)
    factorizations: Dict[str, MatrixFactorization] = field(
        default_factory=dict)
    augmentations: Dict[str, Tuple[str, AugmentationMap]] = field(
        default_factory=dict)
    homotopies: List[Tuple[str, str, MultiOp]] = field(default_factory=list)
    hom_elements: Dict[str, HomElement] = field(default_factory=dict)
    inversions: List[Dict[str, str]] = field(default_factory=list)
    base_change: Optional[RingHom] = None


def parse_coeff(ring: Ring, raw: Any) -> Any:
    """One coefficient in the declared ring; floats and booleans are
    refused rather than coerced."""
    if isinstance(raw, (bool, float)):
        raise TypeError("coefficient %r is not exact" % (raw,))
    if isinstance(ring, PolynomialRing):
        if isinstance(raw, (int, str)):
            return ring.from_int(int(raw))
        terms = []
        for exps, c in raw:
            terms.append((tuple(exact_integer(e) for e in exps),
                          parse_coeff(ring.base, c)))
        return ring.normalize(terms)
    if isinstance(ring, Rationals):
        return ring.normalize(Fraction(str(raw)))
    if isinstance(ring, (Integers, IntegersMod)):
        return ring.normalize(int(raw))
    raise UnsupportedRing("no coefficient syntax for %r" % (ring,))


def _need(mapping: Dict[str, Any], key: str, kind: str,
          owner: str) -> Any:
    if key not in mapping:
        raise ValidationError("%s references unknown %s %r" %
                              (owner, kind, key))
    return mapping[key]


def _cap(key: str, raw: Any) -> int:
    cap = exact_integer(raw)
    if cap < 0:
        raise ValueError("cap %r is %d; caps must be 0 or more" % (key, cap))
    return cap


# The entry rule of every table lives in the next two functions: an entry
# reads known generators and outputs known generators of degree ``want``,
# the input degree plus the degree of the family.

def _word_in(space: GradedSpace, raw: Any, owner: str) -> Word:
    """An entry's input word; every letter must be a generator of space."""
    word = tuple(str(x) for x in raw or [])
    for x in word:
        if x not in space.gens:
            raise ValidationError("%s uses unknown generator %r" % (owner, x))
    return word


def _output(ring: Ring, space: GradedSpace, raw: Any, want: int, owner: str,
            wrap_letter: bool = False) -> Vector:
    """An entry's output, a list of [generator, coefficient] pairs; every
    generator with a nonzero coefficient must be one of space of degree
    ``want``.  With ``wrap_letter`` each becomes a one-letter word."""
    out = Vector.zero(ring)
    for name, c in raw or []:
        out.add_term((str(name),) if wrap_letter else str(name),
                     parse_coeff(ring, c))
    want = space.grading.normalize(want)
    for y in out.terms:
        name = y[0] if wrap_letter else y
        if name not in space.gens:
            raise ValidationError("%s outputs unknown generator %r" %
                                  (owner, name))
        if not space.grading.equal(space.degree(name), want):
            raise ValidationError(
                "%s: output %r has degree %r, expected %r" %
                (owner, name, space.degree(name), want))
    return out


def _letter_family(ring: Ring, entries: Any, source: GradedSpace,
                   target: GradedSpace, degree: int, cap: int,
                   owner: str) -> MultiOp:
    """A degree-``degree`` family from words of the shifted space source to
    letters of the shifted space target."""
    op = MultiOp(ring, degree, cap)
    for ent in entries:
        w = _word_in(source, ent["in"], owner)
        op.set(w, _output(ring, target, ent["out"],
                          source.word_degree(w) + degree, owner,
                          wrap_letter=True))
    return op


def _module_table(ring: Ring, entries: Any, algebra: AInfAlgebra,
                  source: GradedSpace, target: GradedSpace, degree: int,
                  owner: str) -> Dict[Tuple[str, Word], Vector]:
    """A degree-``degree`` (generator, algebra word) -> vector table from
    the space source to the space target; the constructor that takes it
    refuses words beyond its cap."""
    table: Dict[Tuple[str, Word], Vector] = {}
    for ent in entries:
        m = str(ent["m"])
        if m not in source.gens:
            raise ValidationError("%s: unknown module generator %r" %
                                  (owner, m))
        w = _word_in(algebra.space, ent.get("word"), owner)
        table[(m, w)] = _output(
            ring, target, ent["out"],
            source.degree(m) + algebra.word_degree(w) + degree, owner)
    return table


def _load_space(ring: Ring, grading: Grading, name: str,
                raw: Any) -> GradedSpace:
    if not isinstance(raw, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            for e in raw):
        raise ValidationError("space %r: generators must be a list of "
                              "[name, degree] pairs with string names"
                              % name)
    gens = [(n, exact_integer(d)) for n, d in raw]
    try:
        return GradedSpace(ring, grading, gens)
    except ValueError as exc:
        raise ValidationError("space %r: %s" % (name, exc))


def _load_algebra(doc: SpecDocument, name: str, raw: dict) -> AInfAlgebra:
    owner = "algebra %r" % name
    space = _need(doc.spaces, raw["space"], "space", owner)
    unit = str(raw["unit"])
    if unit not in space.gens:
        raise ValidationError("%s: unknown unit %r" % (owner, unit))
    cap = _cap("arity_cap", raw.get("arity_cap", doc.caps["arity"]))
    kind = raw.get("tables", "b")
    if kind == "m":
        m_table: Dict[Word, Vector] = {}
        for ent in raw.get("table", []):
            w = _word_in(space, ent["in"], owner)
            m_table[w] = _output(
                doc.ring, space, ent["out"],
                sum(space.degree(x) for x in w) + 2 - len(w), owner,
                wrap_letter=True)
        b = b_from_m(space, m_table, cap)
    elif kind == "b":
        shift = space.shifted()
        b = _letter_family(doc.ring, raw.get("table", []), shift, shift, 1,
                           cap, owner)
    else:
        raise ValidationError("%s: tables must be 'm' or 'b', got %r" %
                              (owner, kind))
    return AInfAlgebra(space, unit, impose_unit_laws(space, unit, b))


def _load_dga(doc: SpecDocument, name: str, raw: dict) -> CurvedDga:
    owner = "dga %r" % name
    space = _need(doc.spaces, raw["space"], "space", owner)
    unit = str(raw["unit"])
    if unit not in space.gens:
        raise ValidationError("%s: unknown unit %r" % (owner, unit))
    curv = _output(doc.ring, space, raw.get("curvature"), 2, owner)
    d = {}
    for ent in raw.get("d", []):
        x, = _word_in(space, [ent["in"]], owner)
        d[x] = _output(doc.ring, space, ent["out"], space.degree(x) + 1,
                       owner)
    product = {}
    for ent in raw.get("product", []):
        w = _word_in(space, ent["in"], owner)
        if len(w) != 2:
            raise ValidationError("%s: products are binary, got %r" %
                                  (owner, w))
        product[w] = _output(doc.ring, space, ent["out"],
                             space.word_degree(w), owner)
    cap = _cap("arity_cap", raw.get("arity_cap", doc.caps["arity"]))
    return CurvedDga(space, unit, curv, d, product, cap)


def _load_module(doc: SpecDocument, name: str, raw: dict) -> AInfModule:
    owner = "module %r" % name
    algebra = _resolve_algebra(doc, raw["algebra"], owner)
    space = _need(doc.spaces, raw["space"], "space", owner)
    cap = _cap("arity_cap", raw.get("arity_cap", doc.caps["arity"]))
    table = _module_table(doc.ring, raw.get("table", []), algebra, space,
                          space, 1, owner)
    return AInfModule(algebra, space, table, cap)


def _resolve_algebra(doc: SpecDocument, key: str, owner: str) -> AInfAlgebra:
    if key in doc.algebras:
        return doc.algebras[key]
    if key in doc.dgas:
        return doc.dgas[key].algebra
    raise ValidationError("%s references unknown algebra %r" % (owner, key))


def _load_morphism(doc: SpecDocument, name: str, raw: dict) -> AInfMorphism:
    owner = "morphism %r" % name
    source = _resolve_algebra(doc, raw["source"], owner)
    target = _resolve_algebra(doc, raw["target"], owner)
    cap = _cap("arity_cap", raw.get("arity_cap", doc.caps["arity"]))
    f = _letter_family(doc.ring, raw.get("table", []), source.shift,
                       target.shift, 0, cap, owner)
    return AInfMorphism(source, target, f)


def _load_bimodule(doc: SpecDocument, name: str, raw: dict) -> TableBimodule:
    owner = "bimodule %r" % name
    left = _resolve_algebra(doc, raw["left"], owner)
    right = _resolve_algebra(doc, raw["right"], owner)
    space = _need(doc.spaces, raw["space"], "space", owner)
    table: Dict[Tuple[Word, str, Word], Vector] = {}
    for ent in raw.get("table", []):
        v = str(ent["v"])
        if v not in space.gens:
            raise ValidationError("%s: unknown bimodule generator %r" %
                                  (owner, v))
        lw = _word_in(left.space, ent.get("left"), owner)
        rw = _word_in(right.space, ent.get("right"), owner)
        want = (left.word_degree(lw) + space.degree(v)
                + right.word_degree(rw) + 1)
        table[(lw, v, rw)] = _output(doc.ring, space, ent["out"], want,
                                     owner)
    return TableBimodule(left, right, space, table)


def _load_mf(doc: SpecDocument, name: str, raw: dict) -> MatrixFactorization:
    even, odd = exact_integer(raw["even_rank"]), exact_integer(raw["odd_rank"])
    d = [[parse_coeff(doc.ring, v) for v in row] for row in raw["d"]]
    pot = parse_coeff(doc.ring, raw["potential"])
    return MatrixFactorization(doc.ring, even, odd, d, pot)


def _load_hom_element(doc: SpecDocument, name: str, raw: dict) -> HomElement:
    owner = "hom element %r" % name
    source = _need(doc.modules, raw["source"], "module", owner)
    target = _need(doc.modules, raw["target"], "module", owner)
    if source.algebra is not target.algebra:
        raise ValidationError("%s: modules %r and %r lie over different "
                              "algebras" % (owner, raw["source"],
                                            raw["target"]))
    cap = _cap("cap", raw.get("cap", doc.caps["weight"]))
    degree = exact_integer(raw.get("degree", 0))
    table = _module_table(doc.ring, raw.get("table", []), source.algebra,
                          source.space, target.space, degree, owner)
    return HomElement(source, target, degree, table, cap)


def _load_augmentation(doc: SpecDocument, name: str,
                       raw: dict) -> Tuple[str, AugmentationMap]:
    owner = "augmentation %r" % name
    algebra = _resolve_algebra(doc, raw["algebra"], owner)
    values = {str(k): parse_coeff(doc.ring, v)
              for k, v in (raw.get("values") or {}).items()}
    return raw["algebra"], AugmentationMap(algebra, values)


def _load_base_change(raw: dict) -> RingHom:
    kind = raw.get("kind")
    if kind == "mod":
        return reduction_mod(exact_integer(raw["n"]))
    if kind == "rationals":
        return inclusion_to_rationals()
    raise ValueError("unknown base change kind %r" % (kind,))


def _load_homotopy(doc: SpecDocument, raw: dict) -> Tuple[str, str, MultiOp]:
    owner = "homotopy between %r and %r" % (raw["f"], raw["g"])
    f = _need(doc.morphisms, raw["f"], "morphism", owner)
    g = _need(doc.morphisms, raw["g"], "morphism", owner)
    if f.source is not g.source or f.target is not g.target:
        raise ValidationError("%s: the two morphisms must share source and "
                              "target" % owner)
    h = _letter_family(doc.ring, raw.get("h", []), f.source.shift,
                       f.target.shift, -1, f.arity_cap, owner)
    if () in h.table:
        raise ValidationError("%s: homotopy families start at arity 1"
                              % owner)
    return raw["f"], raw["g"], h


# the shape of each hom element of an inversion task, as (key, source,
# target, degree) over the source M and the target N of phi
_INVERSION_SHAPES = (("phi", "M", "N", 0), ("psi", "N", "M", 0),
                     ("h", "N", "N", -1), ("ell", "M", "M", -1))


def _load_inversion(doc: SpecDocument, raw: dict,
                    owner: str) -> Dict[str, str]:
    task = {key: raw[key] for key, _, _, _ in _INVERSION_SHAPES}
    homs = {key: _need(doc.hom_elements, name, "hom element", owner)
            for key, name in task.items()}
    ends = {"M": homs["phi"].source, "N": homs["phi"].target}
    for key, source, target, degree in _INVERSION_SHAPES:
        e = homs[key]
        if (e.source is not ends[source] or e.target is not ends[target]
                or e.degree != degree):
            raise ValidationError(
                "%s: %s %r must map %s -> %s in degree %d, where phi "
                "maps M -> N" % (owner, key, task[key], source, target,
                                 degree))
    return task


@contextmanager
def _entity(owner: str) -> Iterator[None]:
    """Report a malformed entry (a missing key, a value of the wrong type
    or shape, or an unparsable one) as a ValidationError naming its
    entity."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError("%s: missing key %s" % (owner, exc)) from None
    except (ValueError, TypeError, AttributeError, UnsupportedRing) as exc:
        raise ValidationError("%s: %s" % (owner, exc)) from None


def _section(raw: dict, key: str, kind: type) -> Any:
    """A top-level section, empty when absent; one of another JSON type is
    refused naming the section."""
    value = raw.get(key) or kind()
    if not isinstance(value, kind):
        raise ValidationError("section %r must be a JSON %s" %
                              (key, "object" if kind is dict else "list"))
    return value


# document sections holding named entities: (key, entity kind, loader),
# loaded in this order
_SECTIONS = (
    ("algebras", "algebra", _load_algebra),
    ("dgas", "dga", _load_dga),
    ("modules", "module", _load_module),
    ("morphisms", "morphism", _load_morphism),
    ("bimodules", "bimodule", _load_bimodule),
    ("factorizations", "factorization", _load_mf),
    ("augmentations", "augmentation", _load_augmentation),
    ("hom_elements", "hom element", _load_hom_element),
)


def load(path: str) -> SpecDocument:
    """Parse and validate one document; raises ParseError on malformed
    JSON (with line and column) and ValidationError on a missing name or a
    degree-inconsistent table entry (naming the entity)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s" %
                         (path, exc.lineno, exc.colno, exc.msg))
    return load_dict(raw)


def load_dict(raw: dict) -> SpecDocument:
    if not isinstance(raw, dict):
        raise ValidationError("document root must be an object")
    if "ring" not in raw:
        raise ValidationError("document declares no ring")
    with _entity("ring descriptor"):
        ring = ring_from_descriptor(raw["ring"])
    with _entity("grading"):
        modulus = (raw.get("grading") or {}).get("modulus", 2)
        grading = Grading(None if modulus is None else exact_integer(modulus))
    caps = {"weight": 4, "arity": 4}
    with _entity("caps"):
        for k, v in (raw.get("caps") or {}).items():
            caps[k] = _cap(k, v)
    doc = SpecDocument(ring=ring, grading=grading, caps=caps)
    if raw.get("base_change") is not None:
        with _entity("base_change"):
            doc.base_change = _load_base_change(raw["base_change"])
    for name, sraw in _section(raw, "spaces", dict).items():
        with _entity("space %r" % name):
            doc.spaces[name] = _load_space(ring, grading, name, sraw)
    for key, kind, loader in _SECTIONS:
        for name, eraw in _section(raw, key, dict).items():
            with _entity("%s %r" % (kind, name)):
                getattr(doc, key)[name] = loader(doc, name, eraw)
    for i, hraw in enumerate(_section(raw, "homotopies", list)):
        with _entity("homotopy %d" % i):
            doc.homotopies.append(_load_homotopy(doc, hraw))
    for i, iraw in enumerate(_section(raw, "inversions", list)):
        owner = "inversion task %d" % i
        with _entity(owner):
            doc.inversions.append(_load_inversion(doc, iraw, owner))
    return doc
