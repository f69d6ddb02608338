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
from .kernel import (BOTTOM, CONST, NatTransform, Node, Report,
                     compose_nats, coverage_of, functor_map, fvalues, identity_nat,
                     is_bottom, _listing, nats_equal, unit_value, zip_values)
from .transport import (ExpandedAlgebra, expand_algebra, pullback_algebra,
                        pushforward_coalgebra, pushout_algebra,
                        restrict_coalgebra)


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


def _memoized(fn):
    cache = {}

    def wrapped(c, a):
        key = (c, a)
        out = cache.get(key, cache)  # the cache itself marks a miss
        if out is cache:
            out = cache[key] = fn(c, a)
        return out

    return wrapped


# ---------------------------------------------------------------------------
# the defining law


def _law_mismatches(evalfn, coalg, source, target, elems, labels, limit):
    """Yield (state, value, got, expected) wherever the one-step law fails."""
    found = 0
    for c in coalg.states:
        chi_c = coalg.chi[c]
        for v in fvalues(source.sig, elems, labels):
            lhs = evalfn(c, source.alpha(v))
            zipped = zip_values(source.sig, chi_c, v)
            rhs = target.alpha(functor_map(source.sig, lambda p: evalfn(p[0], p[1]), zipped))
            if lhs != rhs:
                yield (c, v, lhs, rhs)
                found += 1
                if found >= limit:
                    return


def _source_domain(phi: Measuring, depth: int, labels):
    """(source elements, labels, what was sampled): the whole carrier or its
    terms up to ``depth``, over the given labels (a few for builtin monoids)."""
    elems, full = phi.source.carrier(depth, labels)
    sampled = [] if full else [f"terms of depth <= {depth}"]
    if labels is None and not phi.source.sig.monoid.finite:
        labels = phi.source.sig.monoid.sample(3)
    if labels is not None and tuple(labels) != phi.source.sig.monoid.elements:
        sampled.append(_listing("labels", labels))
    return elems, labels, sampled


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
    n_values = len(fvalues(phi.source.sig, elems, labels))
    coalg = phi.coalg
    if budget is not None and len(coalg.states) * n_values > budget:
        keep = coalg.states[:max(1, budget // max(1, n_values))]
        sampled.append(f"{len(keep)} of {len(coalg.states)} fuel states")
        coalg = Coalgebra(coalg.sig, keep, {s: coalg.chi[s] for s in keep})
    violations = _law_mismatches(phi.eval, coalg, phi.source, phi.target,
                                 elems, labels, max_witnesses)
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
    op = a.sig.monoid.op

    def ev(state, t):
        if is_bottom(t):
            return b.alpha(BOTTOM)
        chi = c.chi[state]
        if is_bottom(chi):
            return b.alpha(BOTTOM)
        return b.alpha(Node(op(chi.label, t.label),
                            tuple(ev(cs, ts) for cs, ts in zip(chi.slots, t.slots))))

    return Measuring(c, a, b, rule=_memoized(ev), name=name or "prune")


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
    op = a.sig.monoid.op
    table = {(s, e): b.alpha(op(c.chi[s], pre[e]))
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


def to_morphism(phi: Measuring, depth: int = 3, labels=None):
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
    the map is unchanged, fuel is pushed forward, both algebras pulled back."""
    if not nats_equal(compose_nats(nu, mu), identity_nat(mu.source)):
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


def push_measuring(mu: NatTransform, phi: Measuring,
                   expanded_source: ExpandedAlgebra = None,
                   expanded_target=None) -> Measuring:
    """Transport a measuring along the left-adjoint direction.

    Constant signatures: act as phi on embedded carrier elements and by
    relabelled fuel multiplication on new labels.  Shape signatures: recurse
    over target terms, consuming one fuel step per node; a spent fuel state
    maps the node to the expansion of the target's bottom interpretation.
    """
    if mu.source.kind == CONST:
        pa = expanded_source or pushout_algebra(mu.hom, phi.source)
        pb = expanded_target or pushout_algebra(mu.hom, phi.target)
        op2 = mu.target.monoid.op
        table = {}
        for s in phi.coalg.states:
            fuel = mu.hom.apply(phi.coalg.chi[s])
            for cls in pa.classes:
                rep = cls[0]
                kind, x = next(iter(cls))
                alg_members = [m for k, m in cls if k == "alg"]
                if alg_members:
                    out = pb.embed(phi.eval(s, alg_members[0]))
                else:
                    out = pb.class_of[("mon", op2(fuel, x))]
                table[s, rep] = out
        return table_measuring(pushforward_coalgebra(mu, phi.coalg),
                               pa.algebra, pb.algebra, table, f"push[{phi.name}]")

    ea = expanded_source or expand_algebra(mu, phi.source)
    eb = expanded_target or expand_algebra(mu, phi.target)
    op2 = mu.target.monoid.op
    h = mu.hom.apply
    bottom_image = eb.embed(phi.target.alpha(BOTTOM))
    coalg = phi.coalg

    def ev(state, t):
        if is_bottom(t):
            return BOTTOM
        chi = coalg.chi[state]
        if is_bottom(chi):
            return bottom_image
        return eb.algebra.alpha(Node(
            op2(h(chi.label), t.label),
            tuple(ev(chi.slots[mu.reindex[j]], t.slots[j])
                  for j in range(mu.target.arity))))

    return Measuring(pushforward_coalgebra(mu, coalg), ea.algebra, eb.algebra,
                     rule=_memoized(ev), name=f"push[{phi.name}]")


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
