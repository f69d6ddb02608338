"""Fuel-indexed inductive functions ("measurings") as first-class values.

A measuring is a map (fuel state, source element) -> target element that is
compatible with one unfolding step: evaluating on an interpreted value equals
unfolding the fuel, zipping it with the value, evaluating slotwise, and
interpreting in the target.  Morphisms are exactly the measurings by the
one-state unit machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable

from .carriers import Algebra, Coalgebra, tensor_coalgebra, unit_coalgebra
from .kernel import (BOTTOM, CONST, NatTransform, Node, Report, _check_node, fvalues,
                     nat_apply, _sample_labels, unit_value, zip_values)
from .transport import (expand_algebra, pullback_algebra, pushforward_coalgebra,
                        pushout_algebra, restrict_coalgebra)


@dataclass(frozen=True, eq=False)
class Measuring:
    """Measuring data: fuel machine, source and target algebras, and the map
    (fuel state, source element) -> target element as a callable."""

    coalg: Coalgebra
    source: Algebra
    target: Algebra
    rule: Callable
    name: str = ""

    def eval(self, c, a):
        return self.rule(c, a)

    def __call__(self, c, a):
        return self.eval(c, a)

    def __repr__(self):
        return f"Measuring({self.name or 'phi'}: {self.coalg!r} (x) {self.source!r} -> {self.target!r})"


def table_measuring(c: Coalgebra, a: Algebra, b: Algebra, table: dict, name="") -> Measuring:
    """A measuring read off a finite table keyed by (state, element)."""
    table = dict(table)

    def lookup(s, x):
        try:
            return table[s, x]
        except KeyError:
            raise ValueError(f"measuring {name} undefined at {(s, x)!r}") from None

    return Measuring(c, a, b, lookup, name)


# ---------------------------------------------------------------------------
# the defining law


def _law_mismatches(phi: Measuring, elems, values):
    """Yield (state, value, got, expected) wherever the one-step law fails,
    in (state, value) order; ``values`` are the (value, source.alpha(value))
    pairs to check, whose slots lie in ``elems``.

    The measuring's map is called directly, on the left-hand side first.  A
    right-hand side reads the map at the value's slots from rows: a state's
    row maps every element of ``elems`` to the map's value there, and is
    built once, after the first left-hand side of a state whose unfolding
    names it.  So each (state, element) pair is evaluated once per check."""
    rule, chi, sig, alpha = phi.rule, phi.coalg.chi, phi.source.sig, phi.target.alpha
    op = sig.monoid.op
    if sig.kind == CONST:
        for c in phi.coalg.states:
            chi_c = chi[c]
            for v, out in values:
                lhs = rule(c, out)
                rhs = alpha(op(chi_c, v))
                if lhs != rhs:
                    yield (c, v, lhs, rhs)
        return
    bottom = alpha(BOTTOM)
    rows = {}
    for c in phi.coalg.states:
        chi_c = chi[c]
        slot_rows = None
        for v, out in values:
            lhs = rule(c, out)
            if v is BOTTOM or chi_c is BOTTOM:
                rhs = bottom
            else:
                if slot_rows is None:
                    if len(chi_c.slots) != sig.arity:
                        _check_node(sig, chi_c)
                    for d in chi_c.slots:
                        if d not in rows:
                            rows[d] = {e: rule(d, e) for e in elems}
                    slot_rows = [rows[d] for d in chi_c.slots]
                rhs = alpha(Node(op(chi_c.label, v.label),
                                 tuple([row[x] for row, x in zip(slot_rows, v.slots)])))
            if lhs != rhs:
                yield (c, v, lhs, rhs)


def check_law(phi: Measuring, depth: int = 3, labels=None,
              budget: int = None, max_witnesses: int = 20) -> Report:
    """Verify the measuring law on every enumerated source value; the
    violations (state, value, got, expected) are the report's witnesses.

    ``depth`` bounds the enumeration for term carriers with no finite
    enumeration, and ``labels`` samples the label universe for builtin
    monoids; the report is sampled when either cuts the enumeration short.
    ``budget`` bounds the (state, value) instances: past it the check
    evaluates nothing and its status is budget.
    """
    if phi.source.sig != phi.coalg.sig or phi.source.sig != phi.target.sig:
        raise ValueError("measuring endpoints live over different signatures")
    elems, sampled = phi.source.carrier(depth, labels)
    monoid = phi.source.sig.monoid  # labels sample a builtin monoid only
    labels, listed = _sample_labels(monoid, None if monoid.finite else labels)
    sampled = "; ".join(dict.fromkeys(sampled + listed)) or None
    values = fvalues(phi.source.sig, elems, labels)
    checked = len(phi.coalg.states) * len(values)
    if budget is not None and checked > budget:
        return Report.of("law", phi.name, ran_out=True, sampled=sampled)
    alpha = phi.source.alpha
    violations = islice(_law_mismatches(phi, elems, [(v, alpha(v)) for v in values]),
                        max_witnesses)
    return Report.of("law", phi.name, violations, checked=checked, sampled=sampled)


# ---------------------------------------------------------------------------
# canonical constructions


def canonical_term_measuring(c: Coalgebra, a: Algebra, b: Algebra, name="") -> Measuring:
    """Prune-and-fold: unfold the fuel alongside the term, multiply labels on
    the overlap, cut where either side bottoms out, interpret in the target."""
    if not a.term_based:
        raise ValueError("canonical measuring needs a term-based source algebra")
    if c.sig != a.sig or a.sig != b.sig:
        raise ValueError("signature mismatch")
    sig, chi = a.sig, c.chi
    memos = {s: {} for s in chi}  # one per fuel state, keyed by the term

    def ev(state, t):
        """Memoized, inner calls included, so a law check over a term
        carrier evaluates each (state, subterm) pair once.  Equal terms are
        one object, so each state's memo keys on the term alone; an unknown
        state raises ``KeyError``."""
        memo = memos[state]
        out = memo.get(t, memo)  # the memo itself marks a miss
        if out is memo:
            out = memo[t] = b.alpha(zip_values(sig, chi[state], t, ev))
        return out

    return Measuring(c, a, b, rule=ev, name=name or "prune")


def canonical_const_measuring(c: Coalgebra, a: Algebra, b: Algebra, name="") -> Measuring:
    """For constant signatures with a surjective interpretation: send (state,
    alpha(x)) to the target interpretation of chi(state) * x."""
    if a.sig.kind != CONST:
        raise ValueError("constant-signature measuring expected")
    if c.sig != a.sig or a.sig != b.sig:
        raise ValueError("signature mismatch")
    pre = {}
    for x in a.sig.monoid.elements:
        pre.setdefault(a.alpha(x), x)
    missing = [e for e in a.elements if e not in pre]
    if missing:
        raise ValueError(f"no canonical measuring: carrier elements {missing!r} are uninterpreted")
    table = {(s, e): b.alpha(zip_values(a.sig, c.chi[s], pre[e]))
             for s in c.states for e in a.elements}
    return table_measuring(c, a, b, table, name or "label-mul")


# ---------------------------------------------------------------------------
# composition and the morphism correspondence


def compose(psi: Measuring, phi: Measuring, name="") -> Measuring:
    """Measuring composition: run phi under psi's fuel, over the product machine."""
    if psi.source is not phi.target:
        if psi.source.sig != phi.target.sig or psi.source.elements != phi.target.elements:
            raise ValueError("middle algebra of the composition does not match")
    product = tensor_coalgebra(psi.coalg, phi.coalg)
    return Measuring(product, phi.source, psi.target,
                     rule=lambda dc, x: psi.eval(dc[0], phi.eval(dc[1], x)),
                     name=name or f"{psi.name}.{phi.name}")


def from_morphism(f, a: Algebra, b: Algebra, name="") -> Measuring:
    """View an algebra morphism as a measuring by the unit machine; whether f
    is a morphism is ``check_law``'s to say."""
    g = f.__getitem__ if isinstance(f, dict) else f
    return Measuring(unit_coalgebra(a.sig), a, b, rule=lambda c, x: g(x),
                     name=name or "morphism")


def to_morphism(phi: Measuring):
    """Extract the algebra morphism from a unit-machine measuring."""
    states = phi.coalg.states
    if len(states) != 1 or phi.coalg.chi[states[0]] != unit_value(phi.coalg.sig, states[0]):
        raise ValueError("to_morphism expects the unit machine as fuel")
    s = states[0]
    if phi.source.elements is not None:
        return {a: phi.eval(s, a) for a in phi.source.elements}
    return lambda a: phi.eval(s, a)


# ---------------------------------------------------------------------------
# measuring transport


def embed_measuring(nu: NatTransform, mu: NatTransform, phi: Measuring) -> Measuring:
    """Retype a measuring across a split pair of morphisms (nu . mu = id):
    the map is unchanged, fuel is pushed forward, both algebras pulled back.

    The pair counts as split when nu . mu is the identity on every value
    whose slots hold their own positions, which pins both the labels and the
    slot reindexing.  Over a builtin monoid the test samples the labels 0, 1
    and 2 only.  Whether the result is lawful is ``check_law``'s to say.
    """
    split_labels, _ = _sample_labels(mu.source.monoid)
    if (nu.source != mu.target or nu.target != mu.source
            or any(nat_apply(nu, nat_apply(mu, v)) != v
                   for v in fvalues(mu.source, range(mu.source.arity), split_labels))):
        raise ValueError("embedding needs a split pair: nu . mu must be the identity")
    return Measuring(pushforward_coalgebra(mu, phi.coalg),
                     pullback_algebra(nu, phi.source),
                     pullback_algebra(nu, phi.target),
                     phi.rule, name=f"embed[{phi.name}]")


def push_measuring(mu: NatTransform, phi: Measuring) -> Measuring:
    """Transport a measuring along the left-adjoint direction.

    Constant signatures: act as phi on embedded carrier elements and by
    relabelled fuel multiplication on new labels.  Shape signatures: the
    canonical prune-and-fold measuring of the pushed fuel between the
    expanded algebras, which consumes one fuel step per node.
    """
    fuel = pushforward_coalgebra(mu, phi.coalg)
    if mu.source.kind == CONST:
        pa = pushout_algebra(mu.hom, phi.source)
        pb = pushout_algebra(mu.hom, phi.target)
        table = {}
        for s in fuel.states:
            for cls in pa.classes:
                kind, x = rep = cls[0]  # carrier items are interned first
                table[s, rep] = (pb.embed(phi.eval(s, x)) if kind == "alg"
                                 else pb.class_of[("mon", zip_values(mu.target, fuel.chi[s], x))])
        return table_measuring(fuel, pa.algebra, pb.algebra, table, f"push[{phi.name}]")

    return canonical_term_measuring(fuel, expand_algebra(mu, phi.source).algebra,
                                    expand_algebra(mu, phi.target).algebra,
                                    name=f"push[{phi.name}]")


def pull_measuring(mu: NatTransform, phi: Measuring, sub=None) -> Measuring:
    """Transport a measuring along the right-adjoint direction: restrict the
    fuel to the states that lift, pull both algebras back, keep the map."""
    sub = sub or restrict_coalgebra(mu, phi.coalg)
    return Measuring(sub.coalg,
                     pullback_algebra(mu, phi.source),
                     pullback_algebra(mu, phi.target),
                     rule=lambda c, a: phi.eval(c, a),
                     name=f"pull[{phi.name}]")


# ---------------------------------------------------------------------------
# comparison


def _pointwise_mismatches(lhs: Measuring, rhs: Measuring, states, elems,
                          state_map=None, limit=10) -> list:
    """Up to limit (state, element, lhs value, rhs value) where the two maps
    differ; state_map translates lhs's fuel states into rhs's."""
    out = []
    for s in states:
        t = state_map(s) if state_map else s
        for e in elems:
            x, y = lhs.eval(s, e), rhs.eval(t, e)
            if x != y:
                out.append((s, e, x, y))
                if len(out) >= limit:
                    return out
    return out
