"""Fuel-indexed inductive functions ("measurings") as first-class values.

A measuring is a map (fuel state, source element) -> target element that is
compatible with one unfolding step: evaluating on an interpreted value equals
unfolding the fuel, zipping it with the value, evaluating slotwise, and
interpreting in the target.  Morphisms are exactly the measurings by the
one-state unit machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .carriers import (Algebra, Coalgebra, render_value, tensor_coalgebra,
                       unit_coalgebra)
from .kernel import (CONST, NatTransform, Report, coverage_of, fvalues,
                     nat_apply, _sample_labels, unit_value, zip_values)
from .transport import (expand_algebra, pullback_algebra, pushforward_coalgebra,
                        pushout_algebra, restrict_coalgebra)


class MeasuringLawError(ValueError):
    """Raised when a construction requires lawfulness and the check fails."""


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


def _law_mismatches(rule, coalg, source, target, values, limit):
    """Yield (state, value, got, expected) wherever the one-step law fails;
    ``values`` are the (value, source.alpha(value)) pairs to check and
    ``rule`` is the measuring's map, called directly."""
    found = 0
    sig, alpha = source.sig, target.alpha
    for c in coalg.states:
        chi_c = coalg.chi[c]
        for v, out in values:
            lhs = rule(c, out)
            rhs = alpha(zip_values(sig, chi_c, v, rule))
            if lhs != rhs:
                yield (c, v, lhs, rhs)
                found += 1
                if found >= limit:
                    return


def _source_domain(phi: Measuring, depth: int, labels):
    """(source elements, labels, what was sampled): the whole carrier or an
    initial segment, and the labels the signature values run over."""
    elems, sampled = phi.source.carrier(depth, labels)
    monoid = phi.source.sig.monoid  # labels sample a builtin monoid only
    labels, listed = _sample_labels(monoid, None if monoid.finite else labels)
    return elems, labels, list(dict.fromkeys(sampled + listed))


def check_law(phi: Measuring, depth: int = 3, labels=None,
              budget: int = None, max_witnesses: int = 20) -> Report:
    """Verify the measuring law on every enumerated source value; the
    violations (state, value, got, expected) are the report's witnesses.

    ``depth`` bounds the enumeration for term carriers with no finite
    enumeration; ``labels`` samples the label universe for builtin monoids;
    ``budget`` bounds the (state, value) instances checked.  The report is
    sampled when any of the three cut the enumeration short.
    """
    if phi.source.sig != phi.coalg.sig or phi.source.sig != phi.target.sig:
        raise ValueError("measuring endpoints live over different signatures")
    elems, labels, sampled = _source_domain(phi, depth, labels)
    values = [(v, phi.source.alpha(v)) for v in fvalues(phi.source.sig, elems, labels)]
    n_values = len(values)
    coalg = phi.coalg
    if budget is not None and len(coalg.states) * n_values > budget:
        keep = coalg.states[:max(1, budget // max(1, n_values))]
        sampled.append(f"{len(keep)} of {len(coalg.states)} fuel states")
        coalg = Coalgebra(coalg.sig, keep, {s: coalg.chi[s] for s in keep})
    violations = _law_mismatches(phi.rule, coalg, phi.source, phi.target,
                                 values, max_witnesses)
    return Report.of("law", phi.name, violations,
                     checked=len(coalg.states) * n_values,
                     sampled="; ".join(sampled) or None)


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


def from_morphism(f, a: Algebra, b: Algebra, depth: int = 3, labels=None,
                  verify: bool = True, name="") -> Measuring:
    """View an algebra morphism as a measuring by the unit machine."""
    unit = unit_coalgebra(a.sig)
    g = f.__getitem__ if isinstance(f, dict) else f
    phi = Measuring(unit, a, b, rule=lambda c, x: g(x), name=name or "morphism")
    if verify:
        report = check_law(phi, depth, labels)
        if not report.ok:
            raise MeasuringLawError(f"not an algebra morphism: {report.violations[:3]!r}")
    return phi


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


def embed_measuring(nu: NatTransform, mu: NatTransform, phi: Measuring,
                    verify: bool = True, depth: int = 2, labels=None) -> Measuring:
    """Retype a measuring across a split pair of morphisms (nu . mu = id):
    the map is unchanged, fuel is pushed forward, both algebras pulled back.

    The pair counts as split when nu . mu is the identity on every value
    whose slots hold their own positions, which pins both the labels and the
    slot reindexing.  Over a builtin monoid the test samples the labels 0, 1
    and 2 only.
    """
    split_labels, _ = _sample_labels(mu.source.monoid)
    if (nu.source != mu.target or nu.target != mu.source
            or any(nat_apply(nu, nat_apply(mu, v)) != v
                   for v in fvalues(mu.source, range(mu.source.arity), split_labels))):
        raise ValueError("embedding needs a split pair: nu . mu must be the identity")
    out = Measuring(pushforward_coalgebra(mu, phi.coalg),
                    pullback_algebra(nu, phi.source),
                    pullback_algebra(nu, phi.target),
                    phi.rule, name=f"embed[{phi.name}]")
    if verify:
        report = check_law(out, depth, labels)
        if not report.ok:
            raise MeasuringLawError(f"embedded measuring broke the law: {report.violations[:3]!r}")
    return out


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
# comparison and serialisation


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


def measurings_equal(m1: Measuring, m2: Measuring, elems=None, depth: int = 3,
                     labels=None, state_map=None) -> bool:
    """Pointwise equality over the enumerated domain; state_map translates
    m1's fuel states into m2's."""
    if elems is None:
        elems, _ = m1.source.carrier(depth, labels)
    return not _pointwise_mismatches(m1, m2, m1.coalg.states, elems, state_map, limit=1)


def measuring_to_json(phi: Measuring, depth: int = 3, labels=None) -> dict:
    """Serialisable table plus metadata naming the three carriers, with the
    table's coverage stated as a report states it."""
    elems, _, sampled = _source_domain(phi, depth, labels)
    rows = [{"coalgebraState": render_value(c), "input": render_value(a),
             "output": render_value(phi.eval(c, a))}
            for c in phi.coalg.states for a in elems]
    return {"coalgebra": phi.coalg.name, "source": phi.source.name,
            "target": phi.target.name,
            "coverage": coverage_of("; ".join(sampled) or None), "table": rows}
