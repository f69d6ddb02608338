"""Test-side helpers: seeded random instance families, the product-and-filter
reference that ``cind.oracle``'s forcing search for machine morphisms is
checked against, the materialised constraint list that the solver's streamed
structure is checked against, the brute-force laxness check that
``cind.kernel.nat_check_lax`` is checked against, the per-instance law check
that ``cind.measuring.check_law`` is checked against, and measuring
comparisons.  None of them is part of the package."""

import itertools
import random
from operator import add
from types import SimpleNamespace

from cind.carriers import (Algebra, Coalgebra, coalgebra, is_coalgebra_morphism,
                           table_algebra)
from cind.kernel import (CONST, FunctorSig, NatTransform, Report, _sample_labels,
                         functor_map, fvalues, is_bottom, nat_apply, unit_value,
                         zip_values)
from cind.measuring import Measuring, _pointwise_mismatches, table_measuring


def random_algebra(sig: FunctorSig, size: int, rng: random.Random, name="") -> Algebra:
    elems = tuple(range(size))
    table = {v: rng.choice(elems) for v in fvalues(sig, elems)}
    return table_algebra(sig, elems, table, name or f"rand{size}")


def random_coalgebra(sig: FunctorSig, size: int, rng: random.Random, name="") -> Coalgebra:
    states = tuple(range(size))
    options = fvalues(sig, states)
    chi = {s: rng.choice(options) for s in states}
    return coalgebra(sig, states, chi, name or f"randm{size}")


def random_algebras(sig: FunctorSig, sizes, per_size: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_algebra(sig, size, rng, name=f"rand{size}.{i}")
            for size in sizes for i in range(per_size)]


def product_coalgebra_morphisms(c: Coalgebra, d: Coalgebra) -> tuple:
    """All |D|^|C| maps c -> d, in product order, filtered by
    ``is_coalgebra_morphism``: the reference for ``oracle.coalgebra_morphisms``."""
    maps = (dict(zip(c.states, combo))
            for combo in itertools.product(d.states, repeat=len(c.states)))
    return tuple(f for f in maps if is_coalgebra_morphism(f, c, d))


def sampled_nat_check_lax(mu: NatTransform, payloads=((0, 1, 2), (0, 1, 2)),
                          max_functions: int = 81) -> Report:
    """Naturality against every function between the two payload sets
    (capped at max_functions, which samples them), and the zip and unit
    squares on every value pair over the source's labels: the brute-force
    reference for ``cind.kernel.nat_check_lax``.  A label the hom does not
    map raises ``ValueError``."""
    xs, ys = tuple(payloads[0]), tuple(payloads[1])
    labels, listed = _sample_labels(mu.source.monoid)
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


def materialized_constraints(c: Coalgebra, a: Algebra) -> SimpleNamespace:
    """Every constraint of the measuring law out of (c, a), built up front:
    the reference for ``oracle._Structure``, which decodes them on demand.
    One per (state, signature value), in that order, less the ones an earlier
    one repeats; each is (lhs, deps, label) over cells ``s * |A| + e``, the
    label an index into the finite monoid, -1 for bottom.  Also returns, per
    cell, the constraints that read it (``by_dep``), the constraints that
    read no cell (``initial``), and the cells that no constraint reads or
    defines (``loose``)."""
    sig, labels = a.sig, a.sig.monoid.elements
    lindex = {m: i for i, m in enumerate(labels)}
    sindex = {s: i for i, s in enumerate(c.states)}
    eindex = {e: i for i, e in enumerate(a.elements)}
    ne = len(a.elements)
    values = []  # (output, label, slots) per value, as indices
    for v in fvalues(sig, a.elements):
        out = eindex[a.alpha(v)]
        if sig.kind == CONST:
            values.append((out, lindex[v], ()))
        elif is_bottom(v):
            values.append((out, -1, ()))
        else:
            values.append((out, lindex[v.label], tuple(eindex[x] for x in v.slots)))
    op = sig.monoid.op
    products = [[lindex[op(x, y)] for y in labels] for x in labels]
    seen, constraints = set(), []
    for si, s in enumerate(c.states):
        chi = c.chi[s]
        if sig.kind == CONST:
            row, bases = products[lindex[chi]], ()
        elif is_bottom(chi):
            row = None
        else:
            row, bases = products[lindex[chi.label]], [sindex[cs] * ne for cs in chi.slots]
        for out, m, slots in values:
            if row is None or m < 0:
                cons = (si * ne + out, (), -1)
            else:
                cons = (si * ne + out, tuple(map(add, bases, slots)), row[m])
            if cons not in seen:
                seen.add(cons)
                constraints.append(cons)
    ncells = len(c.states) * ne
    by_dep = [[] for _ in range(ncells)]
    for ci, (_, deps, _) in enumerate(constraints):
        for d in set(deps):
            by_dep[d].append(ci)
    defined = {lhs for lhs, _, _ in constraints}
    return SimpleNamespace(
        constraints=constraints, by_dep=by_dep,
        initial=[ci for ci, (_, deps, _) in enumerate(constraints) if not deps],
        loose=[cell for cell, users in enumerate(by_dep) if not users and cell not in defined])


def solutions_as_measurings(c, a, b, result) -> list:
    return [table_measuring(c, a, b, t, f"solution{i}")
            for i, t in enumerate(result.solutions)]


def measurings_equal(m1: Measuring, m2: Measuring, elems=None, depth: int = 3,
                     labels=None, state_map=None) -> bool:
    """Pointwise equality over the enumerated domain; state_map translates
    m1's fuel states into m2's."""
    if elems is None:
        elems, _ = m1.source.carrier(depth, labels)
    return not _pointwise_mismatches(m1, m2, m1.coalg.states, elems, state_map, limit=1)


def per_instance_check_law(phi: Measuring, depth: int = 3, labels=None,
                           budget: int = None, max_witnesses: int = 20) -> Report:
    """The measuring law checked one (state, value) instance at a time, each
    right-hand side built by ``zip_values`` with the measuring's map on the
    slots: the reference for ``cind.measuring.check_law``, which reads the
    right-hand sides from rows."""
    if phi.source.sig != phi.coalg.sig or phi.source.sig != phi.target.sig:
        raise ValueError("measuring endpoints live over different signatures")
    elems, sampled = phi.source.carrier(depth, labels)
    monoid = phi.source.sig.monoid
    labels, listed = _sample_labels(monoid, None if monoid.finite else labels)
    sampled = "; ".join(dict.fromkeys(sampled + listed)) or None
    values = fvalues(phi.source.sig, elems, labels)
    checked = len(phi.coalg.states) * len(values)
    if budget is not None and checked > budget:
        return Report.of("law", phi.name, ran_out=True, sampled=sampled)
    rule, chi, sig = phi.rule, phi.coalg.chi, phi.source.sig
    pairs = [(v, phi.source.alpha(v)) for v in values]

    def mismatches():
        for c in phi.coalg.states:
            for v, out in pairs:
                lhs = rule(c, out)
                rhs = phi.target.alpha(zip_values(sig, chi[c], v, rule))
                if lhs != rhs:
                    yield (c, v, lhs, rhs)

    return Report.of("law", phi.name, itertools.islice(mismatches(), max_witnesses),
                     checked=checked, sampled=sampled)
