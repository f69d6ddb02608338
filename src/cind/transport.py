"""Recasting algebras and coalgebras along a signature morphism.

Pullback precomposes an algebra's structure map; pushforward postcomposes a
machine's unfolding.  Three closed forms go the other way.  For constant
signatures the label-change left adjoint is a pushout computed with a
union-find.  For shape signatures, expansion builds the target term algebra
of the source's depth bound plus the leafwise embedding of source terms; that
is the left adjoint's image on the initial algebra only, not on a bounded
one.  The machine-restriction right adjoint is the greatest set of states
whose unfoldings lift back through the morphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .carriers import (Algebra, Coalgebra, fold, initial_term_algebra,
                       is_coalgebra_morphism, term_algebra_bounded)
from .kernel import BOTTOM, CONST, SHAPE, NatTransform, Node, const_sig, nat_apply


class AdjointUnsupportedError(ValueError):
    """Raised when an input falls outside the class the closed form covers."""


# ---------------------------------------------------------------------------
# pullback / pushforward


def pullback_algebra(mu: NatTransform, b: Algebra) -> Algebra:
    """Same carrier, structure map precomposed with the morphism component."""
    if b.sig != mu.target:
        raise ValueError(f"pullback expects an algebra over {mu.target!r}, got {b.sig!r}")
    return Algebra(mu.source, lambda v: b.alpha(nat_apply(mu, v)),
                   b.elements, "derived", name=f"pull[{b.name}]", enum_fn=b.enum_fn)


def pushforward_coalgebra(mu: NatTransform, c: Coalgebra) -> Coalgebra:
    """Same states, unfoldings postcomposed with the morphism component."""
    if c.sig != mu.source:
        raise ValueError(f"pushforward expects a machine over {mu.source!r}, got {c.sig!r}")
    return Coalgebra(mu.target, c.states,
                     {s: nat_apply(mu, v) for s, v in c.chi.items()},
                     name=f"push[{c.name}]")


# ---------------------------------------------------------------------------
# label-change pushout for constant signatures


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # least index wins: keeps representatives deterministic
            lo, hi = min(ri, rj), max(ri, rj)
            self.parent[hi] = lo


@dataclass(frozen=True, eq=False)
class PushoutAlgebra:
    """Quotient of carrier + new labels by "interpreting a label equals
    renaming it".  Items are tagged ("alg", a) or ("mon", x'); classes list
    members in interning order and are named by their least member."""

    hom: Any
    base: Algebra
    classes: tuple
    class_of: dict
    algebra: Algebra

    def embed(self, a):
        """Where a carrier element of the base algebra lands in the quotient."""
        return self.class_of[("alg", a)]


def pushout_algebra(h, a: Algebra) -> PushoutAlgebra:
    """Glue a constant-signature algebra to the new label monoid.

    Generates one identification per source label x: the interpreted
    element alpha(x) meets the renamed label h(x).
    """
    if a.sig.kind != CONST:
        raise ValueError("pushout_algebra expects a constant-signature algebra")
    if a.sig.monoid is not h.source:
        raise ValueError("hom source does not match the algebra's labels")
    m, m2 = h.source, h.target
    if a.elements is None or not m.finite or not m2.finite:
        raise ValueError("pushout_algebra needs finite carrier and monoids")

    items = [("alg", x) for x in a.elements] + [("mon", x) for x in m2.elements]
    index = {it: i for i, it in enumerate(items)}
    uf = _UnionFind(len(items))
    for x in m.elements:
        uf.union(index[("alg", a.alpha(x))], index[("mon", h.apply(x))])

    groups: dict[int, list] = {}
    for i, it in enumerate(items):
        groups.setdefault(uf.find(i), []).append(it)
    classes = tuple(tuple(groups[r]) for r in sorted(groups))
    class_of = {it: cls[0] for cls in classes for it in cls}
    alg = Algebra(const_sig(m2), lambda x2: class_of[("mon", x2)],
                  tuple(cls[0] for cls in classes), "derived",
                  name=f"pushout[{a.name}]")
    return PushoutAlgebra(h, a, classes, class_of, alg)


# ---------------------------------------------------------------------------
# leafwise expansion for term algebras


@dataclass(frozen=True, eq=False)
class ExpandedAlgebra:
    """Target-term algebra obtained by expanding every source term leafwise:
    each source node becomes one target node with relabelled label and
    reindexed, recursively expanded children."""

    nat: NatTransform
    base: Algebra
    algebra: Algebra

    def embed(self, t):
        """Fold the term into the target's initial term algebra pulled back
        along the morphism: each node is relabelled and its slots reindexed."""
        return fold(pullback_algebra(self.nat, initial_term_algebra(self.nat.target)), t)


def expand_algebra(mu: NatTransform, a: Algebra) -> ExpandedAlgebra:
    """The matching target-term algebra, T^G for the initial source and the
    depth-n T_n^G for T_n^F, plus the leafwise embedding of source terms.

    On the initial algebra this is the left adjoint's image.  On T_n^F it is
    not: the left adjoint's image is the initial G-algebra modulo the images
    of T_n^F's truncation equations only, which is usually infinite.
    """
    if mu.source.kind != SHAPE:
        raise ValueError("expand_algebra expects shape signatures")
    if a.sig != mu.source:
        raise ValueError("algebra signature does not match the morphism source")
    if not a.term_based:
        raise AdjointUnsupportedError("expand_algebra needs an initial or bounded term algebra")
    if a.tag == "initial":
        target = initial_term_algebra(mu.target)
    else:
        target = term_algebra_bounded(mu.target, a.bound)
    return ExpandedAlgebra(mu, a, target)


# ---------------------------------------------------------------------------
# greatest lifting restriction for machines


@dataclass(frozen=True, eq=False)
class SubCoalgebra:
    """The largest set of parent states whose unfoldings lift back through the
    morphism, together with the lifted machine and the inclusion."""

    nat: NatTransform
    parent: Coalgebra
    kept: tuple
    coalg: Coalgebra


def restrict_coalgebra(mu: NatTransform, c: Coalgebra) -> SubCoalgebra:
    """Right-adjoint closed form: keep a state iff its unfolding is bottom or
    has a label with a (unique) source preimage, duplicated slots agree, and
    every referenced state is kept: the greatest fixpoint.

    Requires an injective label hom and, for shapes, a surjective reindexing,
    so the lifted unfolding is uniquely determined.
    """
    if c.sig != mu.target:
        raise ValueError(f"restrict expects a machine over {mu.target!r}, got {c.sig!r}")
    if not mu.hom.is_injective():
        raise AdjointUnsupportedError(
            "right adjoint outside supported class: label hom not injective")
    if mu.source.kind == SHAPE:
        if set(mu.reindex) != set(range(mu.source.arity)):
            raise AdjointUnsupportedError(
                "right adjoint outside supported class: reindexing not surjective")

    states = set(c.states)
    twins = [(j1, j2) for j2 in range(len(mu.reindex or ())) for j1 in range(j2)
             if mu.reindex[j1] == mu.reindex[j2]]

    def lift(v):
        """The unique source value that pushes forward to v, or None."""
        if c.sig.kind == CONST:
            return mu.hom.preimage(v)
        if v is BOTTOM:
            return BOTTOM
        label = mu.hom.preimage(v.label)
        if (label is None or any(v.slots[j1] != v.slots[j2] for j1, j2 in twins)
                or not states.issuperset(v.slots)):
            return None
        slots = [None] * mu.source.arity
        for j, i in enumerate(mu.reindex):
            slots[i] = v.slots[j]
        return Node(label, tuple(slots))

    # worklist (Paige & Tarjan 1987): lift each state once, then drop the
    # users of every dropped state
    lifted = {s: lift(c.chi[s]) for s in c.states}
    users = {s: [] for s in c.states}
    for s, v in lifted.items():  # a lifted node holds the states its unfolding does
        for t in set(v.slots) if isinstance(v, Node) else ():
            users[t].append(s)
    dropped = [s for s in c.states if lifted[s] is None]
    kept = states.difference(dropped)
    while dropped:
        for u in users[dropped.pop()]:
            if u in kept:
                kept.remove(u)
                dropped.append(u)

    kept_ordered = tuple(s for s in c.states if s in kept)
    sub = Coalgebra(mu.source, kept_ordered, {s: lifted[s] for s in kept_ordered},
                    name=f"restrict[{c.name}]")
    return SubCoalgebra(mu, c, kept_ordered, sub)


def restriction_inclusion(sub: SubCoalgebra) -> dict:
    """Inclusion of the restricted machine: a morphism from its pushforward
    back into the parent."""
    return {s: s for s in sub.kept}


# ---------------------------------------------------------------------------
# adjunction transposes (closed forms)


def pushout_transpose(p: PushoutAlgebra, b: Algebra, f: dict) -> dict:
    """Transpose a morphism base -> pullback(b) to a morphism out of the
    quotient: interpreted elements go through f, new labels through b."""
    g = {}
    for cls in p.classes:
        vals = {f[x] if kind == "alg" else b.alpha(x) for kind, x in cls}
        if len(vals) != 1:
            raise ValueError(f"transpose not well defined on class {cls!r}: {vals!r}")
        g[cls[0]] = vals.pop()
    return g


def pushout_untranspose(p: PushoutAlgebra, g: dict) -> dict:
    """Inverse transpose: restrict a morphism out of the quotient to the base."""
    return {a: g[p.embed(a)] for a in p.base.elements}


def restriction_untranspose(sub: SubCoalgebra, d: Coalgebra, g: dict) -> dict:
    """Transpose a morphism pushforward(d) -> parent back into the restriction."""
    kept = set(sub.kept)
    for s, v in g.items():
        if v not in kept:
            raise ValueError(f"morphism image leaves the restriction at {s!r} -> {v!r}")
    if not is_coalgebra_morphism(g, d, sub.coalg):
        raise ValueError("transposed map is not a machine morphism into the restriction")
    return dict(g)
