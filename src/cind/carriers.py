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
from typing import Callable

from .kernel import (BOTTOM, SHAPE, STAR, FunctorSig, Node, TRIV,
                     functor_map, is_bottom, shape_sig, unit_value,
                     zip_values)


# ---------------------------------------------------------------------------
# terms


def term_depth(t) -> int:
    if is_bottom(t):
        return 0
    if not t.slots:
        return 1
    return 1 + max(term_depth(s) for s in t.slots)


def truncate_term(t, n: int):
    """Depth clamp: everything below level n becomes bottom."""
    if is_bottom(t) or n <= 0:
        return BOTTOM
    return Node(t.label, tuple(truncate_term(s, n - 1) for s in t.slots))


def terms_up_to(sig: FunctorSig, depth: int, labels=None) -> tuple:
    """All terms of depth <= depth, bottom first, then by depth of creation."""
    if sig.kind != SHAPE:
        raise ValueError("terms exist over shape signatures only")
    if labels is None:
        if not sig.monoid.finite:
            raise ValueError(f"{sig.monoid.name} is not enumerable; pass labels")
        labels = sig.monoid.elements
    out, last = [BOTTOM], 0  # out[last:] is the last layer
    for level in range(depth):
        old, new = out[:last], out[last:]
        # the first layer takes every combination (nullary nodes have no
        # children); a later one, those with a child from the last layer
        layer = [Node(m, combo) for m in labels
                 for combo in (itertools.product(out, repeat=sig.arity) if level == 0
                               else _using(old, new, sig.arity))]
        last = len(out)
        out.extend(layer)
        if not layer:
            break
    return tuple(out)


def _using(old, new, arity):
    """The arity-tuples over old + new that use new, in lexicographic order:
    an old entry followed by such a tuple, or a new entry followed by any."""
    if arity == 0:
        return iter(())
    return itertools.chain(
        ((x,) + rest for x in old for rest in _using(old, new, arity - 1)),
        itertools.product(new, *[old + new] * (arity - 1)))


def render_term(t) -> str:
    """Canonical text rendering: ``#b`` for bottom, ``(m child ...)`` for
    nodes.  Non-term slots (machine state names) render as bare atoms."""
    if is_bottom(t):
        return "#b"
    if not isinstance(t, Node):
        return str(t)
    if not t.slots:
        return f"({t.label})"
    return "(" + " ".join([str(t.label)] + [render_term(s) for s in t.slots]) + ")"


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
    the carrier is infinite); ``enum_fn(depth, labels)`` enumerates an initial
    segment of term-based carriers.  ``tag`` is one of initial / bounded /
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
        """(elements, complete): the full carrier or an initial segment."""
        if self.elements is not None:
            return self.elements, True
        if self.enum_fn is not None:
            return self.enum_fn(depth, labels), False
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
                   enum_fn=lambda depth, labels=None: terms_up_to(sig, depth, labels))


def term_algebra_bounded(sig: FunctorSig, n: int) -> Algebra:
    """Terms of depth <= n; node construction truncates children to depth n-1."""
    if sig.kind != SHAPE:
        raise ValueError("term algebras exist over shape signatures only")
    if n < 0:
        raise ValueError("depth bound must be >= 0")

    elements = terms_up_to(sig, n) if sig.monoid.finite else None
    return Algebra(sig, lambda v: truncate_term(v, n), elements, "bounded", bound=n,
                   name=f"T{n}[{sig!r}]",
                   enum_fn=lambda depth, labels=None: terms_up_to(sig, min(depth, n), labels))


def fold(b: Algebra, t):
    """Evaluate a finite term in an algebra by structural recursion."""
    if is_bottom(t):
        return b.alpha(BOTTOM)
    return b.alpha(Node(t.label, tuple(fold(b, s) for s in t.slots)))


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
    states = tuple(states)
    known = set(states)
    for c in states:
        v = chi[c]
        if sig.kind == SHAPE and not is_bottom(v):
            if len(v.slots) != sig.arity:
                raise ValueError(f"state {c!r} unfolds with wrong arity")
            if any(s not in known for s in v.slots):
                raise ValueError(f"state {c!r} unfolds to unknown states")
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
    states = terms_up_to(sig, n, labels=(sig.monoid.unit,))
    return Coalgebra(sig, states, {t: t for t in states}, name=f"shapes{n}")


def term_as_coalgebra(sig: FunctorSig, t, name: str = "") -> Coalgebra:
    """The machine of subterms of a single term, each unfolding in place."""
    states = []
    seen = set()

    def walk(s):
        if s in seen:
            return
        seen.add(s)
        states.append(s)
        if not is_bottom(s):
            for child in s.slots:
                walk(child)

    walk(t)
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

