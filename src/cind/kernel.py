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
from dataclasses import dataclass
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
        return cls(claim, instance, status, witnesses, checked, coverage_of(sampled))

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


def coverage_of(sampled) -> str:
    """The coverage statement: "exhaustive", or "sampled: ..." when
    ``sampled`` names a sample."""
    return "exhaustive" if sampled is None else f"sampled: {sampled}"


def exit_code(reports) -> int:
    """1 if a check fails, else 3 if a budget ran out, else 0."""
    statuses = {r.status for r in reports}
    return 1 if "fails" in statuses else 3 if "budget" in statuses else 0


def _listing(noun: str, xs) -> str:
    return f"{noun} " + ", ".join(map(str, xs))


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

    def sample(self, k: int) -> tuple:
        """First k carrier elements; naturals 0..k-1 for the builtin carrier."""
        if self.finite:
            return self.elements[:k]
        return tuple(range(k))

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


def monoid_check(m: Monoid, budget: int = 1000) -> Report:
    """Check associativity and the two unit laws.

    Finite carriers are checked exhaustively when the triple count fits the
    budget; otherwise the report is sampled over an initial segment.
    """
    if m.finite and len(m.elements) ** 3 <= budget:
        xs = m.elements
    else:
        xs = m.sample(max(1 if m.finite else 2, int(budget ** (1 / 3))))
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
                     sampled=None if xs == m.elements else _listing("elements", xs))


# ---------------------------------------------------------------------------
# monoid homomorphisms


@dataclass(frozen=True, eq=False)
class MonoidHom:
    """Total map between monoid carriers, expected to preserve op and unit.

    ``mapping`` is a dict for finite sources or a callable for the builtin
    carrier; ``inverse`` (when given) witnesses injectivity and is required
    by the operations that invert labels.
    """

    source: Monoid
    target: Monoid
    mapping: Any
    inverse: Any = None
    name: str = ""

    def apply(self, x):
        if callable(self.mapping):
            return self.mapping(x)
        try:
            return self.mapping[x]
        except KeyError:
            named = f"{self.name} : " if self.name else ""
            raise ValueError(f"hom {named}{self.source.name} -> {self.target.name} "
                             f"does not map the label {x!r}") from None

    def preimage(self, y):
        """Unique source label mapping to y, or None when y is outside the image."""
        if self.inverse is not None:
            if callable(self.inverse):
                return self.inverse(y)
            return self.inverse.get(y)
        if callable(self.mapping):
            raise ValueError(f"hom {self.source.name}->{self.target.name} has no inverse data")
        inv = {}
        for k, v in self.mapping.items():
            if v in inv:
                return None  # not injective: no unique preimage
            inv[v] = k
        return inv.get(y)

    def is_injective(self) -> bool:
        if callable(self.mapping):
            return self.inverse is not None
        vals = list(self.mapping.values())
        return len(set(vals)) == len(vals)


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


def hom_check(h: MonoidHom, budget: int = 1000) -> Report:
    """Check unit preservation and multiplicativity on enumerated pairs."""
    xs = h.source.elements if h.source.finite else h.source.sample(max(2, int(budget ** 0.5)))
    violations = []
    checked = 1
    if h.apply(h.source.unit) != h.target.unit:
        violations.append(("unit", h.apply(h.source.unit)))
    for a, b in itertools.product(xs, repeat=2):
        checked += 1
        lhs = h.apply(h.source.op(a, b))
        rhs = h.target.op(h.apply(a), h.apply(b))
        if lhs != rhs:
            violations.append(("mul", (a, b), lhs, rhs))
    return Report.of("hom", f"{h.source.name}->{h.target.name}", violations,
                     checked=checked, sampled=None if h.source.finite else _listing("elements", xs))


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
    has a fixed hash, the same in every process."""

    __slots__ = ()

    def __new__(cls):
        return BOTTOM

    def __repr__(self):
        return "#b"

    def __hash__(self):
        return _BOTTOM_HASH

    def __reduce__(self):
        return "BOTTOM"


BOTTOM = object.__new__(BottomType)
_BOTTOM_HASH = hash(())  # fixed, so orders of sets holding bottom repeat from run to run


class _Ref(weakref.ref):
    __slots__ = ("key",)


_interned: dict = {}  # hash -> weak reference to the node with that hash
_clashes = weakref.WeakValueDictionary()  # (label, slots) -> node, on a hash clash
_init = object.__setattr__


def _forget(ref):
    if _interned.get(ref.key) is ref:
        del _interned[ref.key]


class Node:
    """A labelled node; its slots are terms, states or other values.

    Nodes are hash-consed (Filliâtre & Conchon, *Type-Safe Modular
    Hash-Consing*, 2006): ``Node(label, slots)`` returns the one live node
    with that label and those slots, so equal nodes are the same object.
    Equality is identity, and the hash is computed once, at construction,
    from the children's cached hashes.  Neither walks the term, so a term of
    any depth hashes and compares in constant time.  The intern table holds
    nodes weakly: an entry leaves with its node.  Nodes are immutable.
    Building them is not thread-safe: build terms from one thread.
    """

    __slots__ = ("label", "slots", "_hash", "__weakref__")

    def __new__(cls, label, slots):
        h = hash((label, slots))
        ref = _interned.get(h)
        n = ref() if ref is not None else None
        if n is not None and n.label == label and n.slots == slots:
            return n
        if _clashes:
            twin = _clashes.get((label, slots))
            if twin is not None:
                return twin
        new = object.__new__(cls)
        _init(new, "label", label)
        _init(new, "slots", slots)
        _init(new, "_hash", h)
        if n is None:
            ref = _interned[h] = _Ref(new, _forget)
            ref.key = h
        else:  # another live node owns this hash
            _clashes[label, slots] = new
        return new

    __eq__ = object.__eq__  # identity

    def __hash__(self):
        return self._hash

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


def _sample_labels(monoid: Monoid, labels=None):
    """(labels, coverage phrases): the labels given, else every element, else
    the builtin carrier's 0, 1, 2; a phrase names them unless they are all."""
    labels = tuple(labels if labels is not None else monoid.elements or monoid.sample(3))
    return labels, () if labels == monoid.elements else (_listing("labels", labels),)


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


def nat_check_lax(mu: NatTransform, payloads=((0, 1, 2), (0, 1, 2)),
                  label_sample=None, max_functions: int = 81) -> Report:
    """Check naturality and compatibility with zip and unit on sampled carriers.

    Naturality is checked against every function between the two payload sets
    (capped at max_functions, which samples them); the zip square is checked
    on all value pairs.
    """
    xs, ys = tuple(payloads[0]), tuple(payloads[1])
    labels, listed = _sample_labels(mu.source.monoid, label_sample)
    us = fvalues(mu.source, xs, labels)
    vs = fvalues(mu.source, ys, labels)
    violations = []
    checked = 0

    funcs = []
    for combo in itertools.product(range(len(ys)), repeat=len(xs)):
        funcs.append({x: ys[i] for x, i in zip(xs, combo)})
        if len(funcs) >= max_functions:
            break
    sampled = []
    if len(funcs) < len(ys) ** len(xs):
        sampled.append(f"{len(funcs)} of {len(ys) ** len(xs)} functions")
    sampled.extend(listed)

    for fn in funcs:
        f = fn.__getitem__
        for u in us:
            checked += 1
            lhs = nat_apply(mu, functor_map(mu.source, f, u))
            rhs = functor_map(mu.target, f, nat_apply(mu, u))
            if lhs != rhs:
                violations.append(("naturality", tuple(sorted(fn.items(), key=str)), u, lhs, rhs))

    for u in us:
        for v in vs:
            checked += 1
            lhs = nat_apply(mu, zip_values(mu.source, u, v))
            rhs = zip_values(mu.target, nat_apply(mu, u), nat_apply(mu, v))
            if lhs != rhs:
                violations.append(("zip", u, v, lhs, rhs))

    checked += 1
    lhs = nat_apply(mu, unit_value(mu.source))
    rhs = unit_value(mu.target)
    if lhs != rhs:
        violations.append(("unit", lhs, rhs))

    return Report.of("nat", repr(mu), violations, checked=checked,
                     sampled="; ".join(sampled) or None)
