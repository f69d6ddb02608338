"""Monoids, container signatures, signature morphisms, and check reports.

A signature is either ``const(M)`` (values are bare monoid labels) or
``shape(M, a)`` (values are a bottom element or a labelled node with ``a``
payload slots).  Every signature carries a canonical zip (labels multiply,
slots pair up positionwise, bottom absorbs) and a canonical unit value.
A signature morphism relabels nodes through a monoid homomorphism and
reorders/duplicates slots through a total reindexing map.  Every check
returns a ``Report``, which states whether it was exhaustive or sampled.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from dataclasses import dataclass, replace
from typing import Any, Callable

STAR = "*"

CONST = "const"
SHAPE = "shape"


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """Verdict of one check on one instance: status holds, fails or budget,
    the witnesses found (raw tuples for law checks), the count checked, and
    the coverage.  The paper's claims are universal, so coverage says what a
    verdict covers: "exhaustive", or "sampled: ..." naming the sample.  It
    describes the check run to its end; status budget says it was cut short."""

    claim: str
    instance: str
    status: str
    witnesses: tuple = ()
    checked: int = 0
    coverage: str = "exhaustive"

    @classmethod
    def of(cls, claim, instance, witnesses=(), *, failed=None, ran_out=False,
           checked=0, sampled=None) -> "Report":
        """The one status rule: budget if a solve ran out, else fails if
        ``failed`` (by default: if there are witnesses), else holds.
        ``sampled`` states what was sampled; None means exhaustive."""
        witnesses = tuple(witnesses)
        failed = bool(witnesses) if failed is None else failed
        status = "budget" if ran_out else "fails" if failed else "holds"
        coverage = "exhaustive" if sampled is None else f"sampled: {sampled}"
        return cls(claim, instance, status, witnesses, checked, coverage)

    @property
    def ok(self) -> bool:
        return self.status == "holds"

    @property
    def violations(self) -> tuple:  # the name law checks give the witnesses
        return self.witnesses

    def line(self) -> str:
        out = f"[{self.status}] {self.claim} {self.instance}  ({self.coverage})"
        if self.status != "holds" and self.witnesses:
            out += f"  :: {self.witnesses[0]}"
        return out

    def to_json(self) -> dict:
        from .carriers import render_value  # carriers imports this module
        return {"claim": self.claim, "instance": self.instance,
                "status": self.status, "coverage": self.coverage,
                "witnesses": [w if isinstance(w, str) else render_value(w)
                              for w in self.witnesses]}


def exit_code(reports) -> int:
    """1 if a check fails, else 3 if a budget ran out, else 0."""
    statuses = {r.status for r in reports}
    return 1 if "fails" in statuses else 3 if "budget" in statuses else 0


# ---------------------------------------------------------------------------
# monoids


@dataclass(frozen=True, eq=False)
class Monoid:
    name: str
    elements: tuple | None  # None: builtin symbolic carrier (naturals)
    op: Callable[[Any, Any], Any]
    unit: Any

    @property
    def finite(self) -> bool:
        return self.elements is not None

    def __contains__(self, x) -> bool:
        """Membership: in ``elements``, or a natural number (an ``int`` that
        is not a ``bool``) for the builtin carrier."""
        if self.finite:
            return x in self.elements
        return isinstance(x, int) and not isinstance(x, bool) and x >= 0

    def __repr__(self):
        return f"Monoid({self.name})"


def finite_monoid(name: str, elements, op: Callable, unit) -> Monoid:
    """Finite monoid with an explicit multiplication table.

    The table must be defined and closed over the carrier; associativity and
    unit laws are the business of monoid_check, not of construction.
    """
    elements = tuple(elements)
    eset = set(elements)
    if unit not in eset:
        raise ValueError(f"unit {unit!r} not in carrier of {name}")
    table = {}
    for a in elements:
        for b in elements:
            try:
                c = op(a, b)
            except TypeError as exc:  # as max(0, "a") or "a" * "b"
                raise ValueError(f"{name}: op({a!r},{b!r}) is undefined: {exc}") from exc
            if c not in eset:
                raise ValueError(f"{name}: op({a!r},{b!r}) = {c!r} leaves the carrier")
            table[a, b] = c
    return Monoid(name, elements, lambda a, b: table[a, b], unit)


TRIV = finite_monoid("Triv", ("e",), lambda a, b: "e", "e")
BOOL_OR = finite_monoid("BoolOr", (0, 1), max, 0)
TRUTH_AND = finite_monoid("TruthAnd", ("T", "F"), lambda a, b: "T" if a == "T" and b == "T" else "F", "T")
TRUTH_OR = finite_monoid("TruthOr", ("T", "F"), lambda a, b: "T" if a == "T" or b == "T" else "F", "F")
NAT_PLUS = Monoid("NatPlus", None, operator.add, 0)


def _sample_labels(monoid: Monoid, labels=None):
    """(labels, coverage phrases): the labels given, else every element, else
    the builtin carrier's 0, 1, 2; a phrase names them unless they are all."""
    labels = tuple(labels if labels is not None else monoid.elements or range(3))
    return labels, () if labels == monoid.elements else ("labels " + ", ".join(map(str, labels)),)


def monoid_check(m: Monoid) -> Report:
    """Check associativity and the two unit laws on every triple of labels: a
    finite carrier's elements, or the builtin carrier's sample 0, 1, 2,
    named in the coverage."""
    xs, listed = _sample_labels(m)
    violations = []
    checked = 0
    for x in xs:
        checked += 2
        if m.op(m.unit, x) != x:
            violations.append(("unit-left", x, m.op(m.unit, x)))
        if m.op(x, m.unit) != x:
            violations.append(("unit-right", x, m.op(x, m.unit)))
    for a, b, c in itertools.product(xs, repeat=3):
        checked += 1
        lhs = m.op(m.op(a, b), c)
        rhs = m.op(a, m.op(b, c))
        if lhs != rhs:
            violations.append(("assoc", (a, b, c), lhs, rhs))
    return Report.of("monoid", m.name, violations, checked=checked,
                     sampled="; ".join(listed) or None)


# ---------------------------------------------------------------------------
# monoid homomorphisms


@dataclass(frozen=True, eq=False)
class MonoidHom:
    """Total map between monoid carriers, expected to preserve op and unit.

    ``mapping`` is a dict for finite sources or a callable for the builtin
    carrier.  ``inverse`` maps each image label back to its source label:
    derived from a dict mapping, None when it is not injective, and an
    inverse passed in must agree; a callable mapping needs a callable
    inverse passed in for the operations that invert labels.
    """

    source: Monoid
    target: Monoid
    mapping: Any
    inverse: Any = None
    name: str = ""

    def __post_init__(self):
        if callable(self.mapping):
            return
        inverse = {y: x for x, y in self.mapping.items()}
        inverse = inverse if len(inverse) == len(self.mapping) else None  # not injective
        given = self.inverse.get if isinstance(self.inverse, dict) else self.inverse
        if given is not None and (inverse is None or any(
                given(y) != inverse.get(y) for y in self.target.elements or inverse)):
            raise ValueError(f"{self}: the given inverse disagrees with the mapping")
        object.__setattr__(self, "inverse", inverse)

    def __str__(self):
        named = f"{self.name} : " if self.name else ""
        return f"hom {named}{self.source.name} -> {self.target.name}"

    def apply(self, x):
        if callable(self.mapping):
            return self.mapping(x)
        try:
            return self.mapping[x]
        except KeyError:
            raise ValueError(f"{self} does not map the label {x!r}") from None

    def preimage(self, y):
        """Unique source label mapping to y, or None where there is none."""
        inv = self.inverse
        return None if inv is None else inv(y) if callable(inv) else inv.get(y)

    def is_injective(self) -> bool:
        return self.inverse is not None


def hom(source: Monoid, target: Monoid, mapping, inverse=None, name="") -> MonoidHom:
    if not callable(mapping):
        mapping = dict(mapping)
        missing = set(source.elements or ()) - set(mapping)
        if missing:
            raise ValueError(f"hom mapping not total, missing {sorted(map(str, missing))}")
        for x, y in mapping.items():
            if x not in source:
                raise ValueError(f"hom maps {x!r} -> {y!r}, but {x!r} is not in {source.name}")
            if y not in target:
                raise ValueError(f"hom maps {x!r} -> {y!r}, but {y!r} is not in {target.name}")
    return MonoidHom(source, target, mapping, inverse, name)


def identity_hom(m: Monoid) -> MonoidHom:
    if m.finite:
        return MonoidHom(m, m, {x: x for x in m.elements})
    return MonoidHom(m, m, lambda x: x, lambda x: x)


def unit_hom(target: Monoid) -> MonoidHom:
    """The unique homomorphism out of the trivial monoid."""
    return MonoidHom(TRIV, target, {"e": target.unit})


def collapse_hom(source: Monoid) -> MonoidHom:
    """The unique homomorphism into the trivial monoid."""
    if source.finite:
        return MonoidHom(source, TRIV, {x: "e" for x in source.elements})
    return MonoidHom(source, TRIV, lambda x: "e")


def hom_check(h: MonoidHom) -> Report:
    """Check unit preservation and multiplicativity on every pair of labels:
    a finite source's elements, or the builtin carrier's sample 0, 1, 2.  A
    table out of the builtin carrier is checked over the labels it lists
    instead: the unit where it is listed, and each product of two listed
    labels that is listed too.  The coverage names the labels unless they
    are all."""
    table = isinstance(h.mapping, dict)
    listed = h.mapping.__contains__ if table else lambda x: True
    xs, sampled = _sample_labels(h.source,
                                 tuple(h.mapping) if table and not h.source.finite else None)
    violations = []
    checked = int(listed(h.source.unit))
    if checked and h.apply(h.source.unit) != h.target.unit:
        violations.append(("unit", h.apply(h.source.unit)))
    for a, b in itertools.product(xs, repeat=2):
        if listed(h.source.op(a, b)):
            checked += 1
            lhs = h.apply(h.source.op(a, b))
            rhs = h.target.op(h.apply(a), h.apply(b))
            if lhs != rhs:
                violations.append(("mul", (a, b), lhs, rhs))
    return Report.of("hom", f"{h.source.name}->{h.target.name}", violations,
                     checked=checked, sampled="; ".join(sampled) or None)


# ---------------------------------------------------------------------------
# signatures and their values


@dataclass(frozen=True)
class FunctorSig:
    kind: str
    monoid: Monoid
    arity: int = 0

    def __repr__(self):
        if self.kind == CONST:
            return f"const({self.monoid.name})"
        return f"shape({self.monoid.name},{self.arity})"


def const_sig(m: Monoid) -> FunctorSig:
    return FunctorSig(CONST, m)


def shape_sig(m: Monoid, arity: int) -> FunctorSig:
    if arity < 0:
        raise ValueError("arity must be >= 0")
    return FunctorSig(SHAPE, m, arity)


class BottomType:
    """The bottom value.  There is one, ``BOTTOM``; it equals only itself and
    hashes by identity."""

    __slots__ = ()

    def __new__(cls):
        return BOTTOM

    def __repr__(self):
        return "#b"

    def __reduce__(self):
        return "BOTTOM"


BOTTOM = object.__new__(BottomType)


class _Ref(weakref.ref):
    __slots__ = ("key",)


_interned: dict = {}  # (label, slots) -> weak reference to the node built from them
_init = object.__setattr__


def _forget(ref):
    if _interned.get(ref.key) is ref:
        del _interned[ref.key]


class Node:
    """A labelled node; its slots are terms, states or other values.

    Nodes are hash-consed (Goto, *Monocopy and associative algorithms in
    extended Lisp*, 1974; Filliâtre & Conchon, *Type-Safe Modular
    Hash-Consing*, 2006): ``Node(label, slots)`` returns the one live node
    with that label and those slots, so equal nodes are the same object.
    Equality is identity and the hash is the identity hash, both computed in
    C without walking the term, so a term of any depth hashes and compares
    in constant time.  Identity hashes differ from run to run, so nothing
    may depend on the order of a set of nodes.  The intern table holds nodes
    weakly: an entry leaves with its node.  Nodes are immutable.  Building
    them is not thread-safe: build terms from one thread.
    """

    __slots__ = ("label", "slots", "__weakref__")

    def __new__(cls, label, slots):
        key = label, slots
        ref = _interned.get(key)
        n = ref() if ref is not None else None
        if n is not None:
            return n
        new = object.__new__(cls)
        _init(new, "label", label)
        _init(new, "slots", slots)
        ref = _interned[key] = _Ref(new, _forget)
        ref.key = key
        return new

    __eq__ = object.__eq__  # identity
    __hash__ = object.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"Node is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Node is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Node, (self.label, self.slots)

    def __repr__(self):
        return _render(self, repr)


def node(label, *slots) -> Node:
    return Node(label, tuple(slots))


def _render(t, leaf) -> str:
    """``(label slot ...)`` for a node, ``leaf(t)`` for anything else.  The
    walk keeps its own stack, so a term of any depth renders."""
    parts = []
    stack = [(False, t)]  # (is literal text, item)
    while stack:
        text, x = stack.pop()
        if text:
            parts.append(x)
        elif isinstance(x, Node):
            parts.append(f"({x.label}")
            stack.append((True, ")"))
            for s in reversed(x.slots):
                stack.append((False, s))
                stack.append((True, " "))
        else:
            parts.append(leaf(x))
    return "".join(parts)


def is_bottom(v) -> bool:
    return v is BOTTOM


def _check_node(sig: FunctorSig, v):
    if sig.kind != SHAPE:
        raise ValueError(f"{sig!r} holds bare labels, not nodes")
    if isinstance(v, Node) and len(v.slots) != sig.arity:
        raise ValueError(f"arity mismatch: {sig!r} vs node with {len(v.slots)} slots")


def functor_map(sig: FunctorSig, f: Callable, v):
    """Apply f to every payload slot, keeping labels and bottom fixed."""
    if sig.kind == CONST:
        return v
    if is_bottom(v):
        return BOTTOM
    _check_node(sig, v)
    return Node(v.label, tuple(f(s) for s in v.slots))


def zip_values(sig: FunctorSig, u, v, f: Callable = None):
    """Combine two values over the same signature: labels multiply, slots pair
    up positionwise (or, given ``f``, become f(x, y), called from ``map`` so a
    recursive f adds no frame per level), and bottom absorbs.  A node whose
    arity is not the signature's raises ``ValueError``."""
    if sig.kind == CONST:
        return sig.monoid.op(u, v)
    if u is BOTTOM or v is BOTTOM:
        return BOTTOM
    if len(u.slots) != sig.arity or len(v.slots) != sig.arity:
        _check_node(sig, u)
        _check_node(sig, v)
    return Node(sig.monoid.op(u.label, v.label),
                tuple(map(f, u.slots, v.slots) if f else zip(u.slots, v.slots)))


def unit_value(sig: FunctorSig, point=STAR):
    """The canonical value over the one-point payload set."""
    if sig.kind == CONST:
        return sig.monoid.unit
    return Node(sig.monoid.unit, (point,) * sig.arity)


def fvalues(sig: FunctorSig, payloads, labels=None):
    """All values over the given payload collection, in deterministic order.

    ``labels`` overrides the label universe (mandatory for builtin monoids).
    """
    if labels is None:
        if not sig.monoid.finite:
            raise ValueError(f"{sig.monoid.name} is not enumerable; pass labels")
        labels = sig.monoid.elements
    if sig.kind == CONST:
        return list(labels)
    payloads = tuple(payloads)
    out = [BOTTOM]
    for m in labels:
        for combo in itertools.product(payloads, repeat=sig.arity):
            out.append(Node(m, combo))
    return out


# ---------------------------------------------------------------------------
# signature morphisms


@dataclass(frozen=True, eq=False)
class NatTransform:
    """Signature morphism: a label homomorphism plus, for node shapes, a total
    map sending each target slot to the source slot it copies."""

    source: FunctorSig
    target: FunctorSig
    hom: MonoidHom
    reindex: tuple = None  # 0-based, length = target arity, values < source arity
    name: str = ""

    def __repr__(self):
        return self.name or f"nat({self.source!r}->{self.target!r})"


def nat_transform(source: FunctorSig, target: FunctorSig, h: MonoidHom,
                  reindex=None, name: str = "") -> NatTransform:
    if source.kind != target.kind:
        raise ValueError("no morphisms between const and shape signatures")
    if h.source is not source.monoid or h.target is not target.monoid:
        raise ValueError("hom endpoints do not match the signatures")
    if source.kind == SHAPE:
        if reindex is None:
            raise ValueError("shape morphisms need a slot reindexing")
        reindex = tuple(reindex)
        if len(reindex) != target.arity:
            raise ValueError(f"reindex length {len(reindex)} != target arity {target.arity}")
        if any(not (0 <= i < source.arity) for i in reindex):
            raise ValueError("reindex entry outside source slots")
    else:
        reindex = None
    return NatTransform(source, target, h, reindex, name)


def identity_nat(sig: FunctorSig) -> NatTransform:
    r = tuple(range(sig.arity)) if sig.kind == SHAPE else None
    return NatTransform(sig, sig, identity_hom(sig.monoid), r, name="id")


def nat_apply(mu: NatTransform, v):
    """Component of the morphism at one payload set."""
    if mu.source.kind == CONST:
        return mu.hom.apply(v)
    if is_bottom(v):
        return BOTTOM
    _check_node(mu.source, v)
    return Node(mu.hom.apply(v.label), tuple(v.slots[i] for i in mu.reindex))


def nat_check_lax(mu: NatTransform) -> Report:
    """Check that mu is lax: it commutes with zip and sends the unit value to
    the unit value.

    Naturality needs no check: a signature morphism is a container morphism
    (Abbott, Altenkirch & Ghani, *Containers: constructing strictly positive
    types*, TCS 342, 2005), a label map plus a slot reindexing that ignores
    the payloads, so it is natural by construction.  Bottom absorbs on both
    sides of the zip square and reindexing commutes with pairing slots, so
    the square holds exactly when ``mu.hom`` keeps products, and the unit
    square exactly when it keeps the unit.  So this is ``hom_check`` of
    ``mu.hom``, over the same labels, a failing product reported as a
    ``"zip"`` witness."""
    report = hom_check(mu.hom)
    witnesses = tuple(("zip", *w[1:]) if w[0] == "mul" else w for w in report.witnesses)
    return replace(report, claim="nat", instance=repr(mu), witnesses=witnesses)
