"""Terms over node-shaped signatures, algebras, and finite-state coalgebras.

Terms reuse the kernel's Node/BOTTOM values, nested: a term is bottom or a
labelled node whose slots are terms.  Bounded term algebras interpret node
construction with a depth clamp (children truncated to depth n-1), which is
what makes their structure maps total.  Coalgebras are finite machines: a
state unfolds to a value whose slots are states again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .kernel import (BOTTOM, SHAPE, STAR, FunctorSig, Node, TRIV, _render,
                     functor_map, fvalues, is_bottom, _sample_labels,
                     shape_sig, unit_value, zip_values)


# ---------------------------------------------------------------------------
# terms


def _levels(t, stop=None):
    """The distinct terms at each level of a term, from the root down, bottom
    included, in dicts used as ordered sets; only the first ``stop`` levels
    when it is given.  Plain containers, so the walks built on it take a term
    of any depth, and a subterm shared within a level is walked once."""
    levels = [{t: None}]
    while len(levels) != stop:
        below = dict.fromkeys([s for x in levels[-1] if x is not BOTTOM for s in x.slots])
        if not below:
            break
        levels.append(below)
    return levels


def _bottom_up(t, leaf, build):
    """Rebuild a term from its leaves up, once per distinct subterm: bottom
    becomes ``leaf()``, and a node x ``build(x, the tuple of what its slots
    became)``."""
    done = {}
    for level in reversed(_levels(t)):
        for x in level:
            if x not in done:
                done[x] = leaf() if x is BOTTOM else build(x, tuple([done[s] for s in x.slots]))
    return done[t]


def term_depth(t) -> int:
    """The number of levels holding a node: 0 for bottom."""
    levels = _levels(t)
    return len(levels) - all(x is BOTTOM for x in levels[-1])


def truncate_term(t, n: int):
    """Depth clamp: everything below level n becomes bottom.  A term that
    fits is returned as it is.  Rebuilt over the first n of ``_levels`` one
    level at a time, since what a subterm becomes depends on its level."""
    if n <= 0:
        return BOTTOM
    levels = _levels(t, n)
    if len(levels) < n or all(s is BOTTOM for x in levels[-1] if x is not BOTTOM for s in x.slots):
        return t
    below = {}  # below level n - 1, every slot becomes bottom
    for level in reversed(levels):
        get = below.get
        below = {x: x if x is BOTTOM else Node(x.label, tuple([get(s, BOTTOM) for s in x.slots]))
                 for x in level}
    return below[t]


def terms_up_to(sig: FunctorSig, depth: int, labels=None) -> tuple:
    """All terms of depth <= depth, bottom first, then by depth of creation:
    the stages of the initial chain bottom, F(bottom), F(F(bottom)), ...
    (Adámek 1974), each the values ``fvalues`` lists over the stage before,
    of which the new ones are kept."""
    if sig.kind != SHAPE:
        raise ValueError("terms exist over shape signatures only")
    out = [BOTTOM]
    for _ in range(depth):
        known = set(map(id, out))  # equal terms are one object; ids hash in C
        layer = [v for v in fvalues(sig, out, labels) if id(v) not in known]
        if not layer:
            break
        out.extend(layer)
    return tuple(out)


def _term_segment(sig: FunctorSig, depth: int, labels=None):
    """(terms of depth <= depth, coverage phrases stating the sample), over
    the labels ``_sample_labels`` picks: 0, 1, 2 for a builtin monoid."""
    labels, sampled = _sample_labels(sig.monoid, labels)
    return terms_up_to(sig, depth, labels), (f"terms of depth <= {depth}",) + sampled


def render_term(t) -> str:
    """Canonical text rendering: ``#b`` for bottom, ``(m child ...)`` for
    nodes.  Non-term slots (machine state names) render as bare atoms."""
    return _render(t, str)


def render_value(x) -> str:
    """Rendering for report payloads: terms canonically, tuples recursively."""
    if is_bottom(x) or isinstance(x, Node):
        return render_term(x)
    if isinstance(x, tuple):
        return "(" + " ".join(render_value(p) for p in x) + ")"
    return str(x)


# ---------------------------------------------------------------------------
# algebras


@dataclass(frozen=True, eq=False)
class Algebra:
    """A carrier with a total interpretation of signature values.

    ``elements`` is the interned enumeration for finite carriers (None when
    the carrier is infinite); ``enum_fn(depth, labels)`` gives an initial
    segment and its coverage phrases.  ``tag`` is one of initial / bounded /
    finite / derived; term-based operations require initial or bounded.
    """

    sig: FunctorSig
    alpha: Callable
    elements: tuple = None
    tag: str = "finite"
    bound: int = None
    name: str = ""
    enum_fn: Callable = None

    @property
    def term_based(self) -> bool:
        return self.tag in ("initial", "bounded")

    def carrier(self, depth: int = 3, labels=None):
        """(elements, coverage phrases): the whole carrier and none, or a segment."""
        if self.elements is not None:
            return self.elements, ()
        if self.enum_fn is not None:
            return self.enum_fn(depth, labels)
        raise ValueError(f"carrier of {self.name or self.sig!r} is not enumerable")

    def __repr__(self):
        return f"Algebra({self.name or self.tag}:{self.sig!r})"


def finite_algebra(sig: FunctorSig, elements, alpha, name: str = "") -> Algebra:
    return Algebra(sig, alpha, tuple(elements), "finite", name=name)


def table_algebra(sig: FunctorSig, elements, table: dict, name: str = "") -> Algebra:
    """Finite algebra whose structure map is an explicit value table."""
    return Algebra(sig, table.__getitem__, tuple(elements), "finite", name=name)


def initial_term_algebra(sig: FunctorSig) -> Algebra:
    """All finite terms; node construction is the structure map."""
    if sig.kind != SHAPE:
        raise ValueError("term algebras exist over shape signatures only")
    return Algebra(sig, lambda v: v, None, "initial",
                   name=f"T[{sig!r}]",
                   enum_fn=partial(_term_segment, sig))


def term_algebra_bounded(sig: FunctorSig, n: int) -> Algebra:
    """Terms of depth <= n; node construction truncates children to depth n-1."""
    if sig.kind != SHAPE:
        raise ValueError("term algebras exist over shape signatures only")
    if n < 0:
        raise ValueError("depth bound must be >= 0")

    elements = terms_up_to(sig, n) if sig.monoid.finite else None
    return Algebra(sig, lambda v: truncate_term(v, n), elements, "bounded", bound=n,
                   name=f"T{n}[{sig!r}]",
                   enum_fn=lambda depth, labels=None: _term_segment(sig, min(depth, n), labels))


def fold(b: Algebra, t):
    """Evaluate a finite term in an algebra, from its leaves up."""
    return _bottom_up(t, partial(b.alpha, BOTTOM), lambda x, kids: b.alpha(Node(x.label, kids)))


# ---------------------------------------------------------------------------
# coalgebras


@dataclass(frozen=True, eq=False)
class Coalgebra:
    """Finite machine: every state unfolds to a value whose slots are states."""

    sig: FunctorSig
    states: tuple
    chi: dict
    name: str = ""

    def __repr__(self):
        return f"Coalgebra({self.name or len(self.states)}:{self.sig!r})"


def coalgebra(sig: FunctorSig, states, chi: dict, name: str = "") -> Coalgebra:
    """A machine from its unfolding map, checked: every unfolding is a value
    over the signature (a bare label for const, bottom or a node whose slots
    name known states for a shape) whose label lies in the label monoid."""
    states = tuple(states)
    known = set(states)
    for c in states:
        v = chi[c]
        if sig.kind == SHAPE:
            if is_bottom(v):
                continue
            if not isinstance(v, Node):
                raise ValueError(f"state {c!r} unfolds to {v!r}, not a node or bottom")
            if len(v.slots) != sig.arity:
                raise ValueError(f"state {c!r} unfolds with wrong arity")
            if any(s not in known for s in v.slots):
                raise ValueError(f"state {c!r} unfolds to {v!r}, whose slots are not all states")
        elif is_bottom(v) or isinstance(v, Node):
            raise ValueError(f"state {c!r} unfolds to {v!r}, not a label")
        label = v.label if sig.kind == SHAPE else v
        if label not in sig.monoid:
            raise ValueError(f"state {c!r} unfolds with label {label!r} outside {sig.monoid.name}")
    return Coalgebra(sig, states, dict(chi), name)


def unit_coalgebra(sig: FunctorSig) -> Coalgebra:
    """One self-referencing state carrying the unit value."""
    return Coalgebra(sig, (STAR,), {STAR: unit_value(sig)}, name="unit")


def tensor_coalgebra(d: Coalgebra, c: Coalgebra) -> Coalgebra:
    """Product machine: states are pairs, unfoldings are zipped."""
    if d.sig != c.sig:
        raise ValueError(f"signature mismatch: {d.sig!r} vs {c.sig!r}")
    states = tuple(itertools.product(d.states, c.states))
    chi = {(x, y): zip_values(d.sig, d.chi[x], c.chi[y]) for x, y in states}
    return Coalgebra(d.sig, states, chi, name=f"{d.name}(x){c.name}")


def counter_coalgebra(sig: FunctorSig, n: int, name: str = "") -> Coalgebra:
    """States 0..n; i unfolds to a unit-labelled node with every slot i-1."""
    if sig.kind != SHAPE:
        raise ValueError("counters exist over shape signatures only")
    chi = {0: BOTTOM}
    for i in range(1, n + 1):
        chi[i] = Node(sig.monoid.unit, (i - 1,) * sig.arity)
    return Coalgebra(sig, tuple(range(n + 1)), chi, name or f"counter{n}")


def nat_counter(n: int) -> Coalgebra:
    """Fuel machine 0..n over shape(Triv,1): i unfolds to i-1, 0 to bottom."""
    return counter_coalgebra(shape_sig(TRIV, 1), n, name=f"fuel{n}")


def perfect_shape(sig: FunctorSig, n: int) -> Coalgebra:
    """Depth fuel for perfect unfoldings: i unfolds to a node with all slots i-1."""
    return counter_coalgebra(sig, n, name=f"perfect{n}")


def term_unfold_coalgebra(sig: FunctorSig, n: int, labels=None, name: str = "") -> Coalgebra:
    """States are terms of depth <= n, each unfolding into its own top layer."""
    states = terms_up_to(sig, n, labels)
    return Coalgebra(sig, states, {t: t for t in states}, name or f"unfold{n}")


def shape_coalgebra(sig: FunctorSig, n: int) -> Coalgebra:
    """All unit-labelled shapes of depth <= n, unfolding into subshapes."""
    return term_unfold_coalgebra(sig, n, (sig.monoid.unit,), f"shapes{n}")


def term_as_coalgebra(sig: FunctorSig, t, name: str = "") -> Coalgebra:
    """The machine of subterms of a single term, each unfolding in place."""
    states = []
    seen = set()
    todo = [t]  # preorder, children left to right
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        states.append(s)
        if not is_bottom(s):
            todo.extend(reversed(s.slots))
    return Coalgebra(sig, tuple(states), {s: s for s in states}, name or "termfuel")


def is_coalgebra_morphism(f, c: Coalgebra, d: Coalgebra) -> bool:
    """Check map f . chi_C = chi_D . f on every state."""
    if c.sig != d.sig:
        return False
    g = f.__getitem__ if isinstance(f, dict) else f
    for s in c.states:
        if functor_map(c.sig, g, c.chi[s]) != d.chi[g(s)]:
            return False
    return True


def coalgebras_identical(c: Coalgebra, d: Coalgebra) -> bool:
    """Structural identity: same signature, same states, same unfolding map."""
    return c.sig == d.sig and c.states == d.states and c.chi == d.chi

