"""Exhaustive checkers: a propagation/backtracking solver that counts the
lawful measuring tables between finite carriers and keeps the first few (or
all), a raw filter oracle it is cross-validated against, machine morphism
enumeration, and the claim-level checkers: c-initiality (decided, with an
algebra that witnesses each outcome), preinitiality, composition respect,
adjunction bijections and initiality preservation.  Algebra morphisms are
the measurings by the one-state unit machine.  Each checker returns a
``kernel.Report`` that states its coverage.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from operator import add

from .carriers import (Algebra, Coalgebra, coalgebra, is_coalgebra_morphism,
                       render_value, table_algebra, unit_coalgebra)
from .kernel import (BOTTOM, CONST, STAR, FunctorSig, NatTransform, Node,
                     Report, functor_map, fvalues, is_bottom, zip_values)
from .measuring import (_pointwise_mismatches, compose, embed_measuring,
                        pull_measuring, push_measuring, table_measuring)
from .transport import (expand_algebra, pullback_algebra,
                        pushforward_coalgebra, pushout_algebra,
                        pushout_transpose, pushout_untranspose,
                        restrict_coalgebra, restriction_untranspose)

DEFAULT_BUDGET = 10 ** 6


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class SolveResult:
    """The lawful tables kept, in the raw oracle's order; ``count`` of them
    in all.  exhaustive=False when the budget ran out, and then ``count`` is
    only the number of tables the search reached."""

    solutions: tuple
    exhaustive: bool
    steps: int
    count: int


# ---------------------------------------------------------------------------
# solver


class _Structure:
    """Target-independent constraint graph for measurings out of (C, A).

    One cell per (state, element), numbered ``s * |A| + e``.  Every signature
    value v over the carrier induces the constraint cell(c, alpha(v)) =
    interpretation of the zipped unfolding, whose slots reference other
    cells.  A constraint is (lhs, deps, label): the cell it defines, the cells
    in its slots, and the index of its label in the finite monoid, -1 for
    bottom.  The source's structure map is read once per value, not once per
    cell.
    """

    def __init__(self, c: Coalgebra, a: Algebra):
        if not a.sig.monoid.finite:
            raise ValueError(f"{a.sig.monoid.name} is not enumerable; the solver needs finite labels")
        if a.elements is None:
            raise ValueError("solver needs an enumerable source carrier")
        if c.sig != a.sig:
            raise ValueError("signature mismatch between fuel and source")
        self.coalg, self.algebra = c, a
        self.states, self.elems = c.states, a.elements
        sig, labels = a.sig, a.sig.monoid.elements
        lindex = {m: i for i, m in enumerate(labels)}
        sindex = {s: i for i, s in enumerate(self.states)}
        eindex = {e: i for i, e in enumerate(self.elems)}
        ne = len(self.elems)
        self.ncells = len(self.states) * ne
        values = []  # (output, label, slots) per value, as indices; label -1 for bottom
        for v in fvalues(sig, self.elems):
            out = eindex.get(a.alpha(v))
            if out is None:
                raise ValueError(f"structure map of {a!r} left the carrier at {v!r}")
            if sig.kind == CONST:
                values.append((out, lindex[v], ()))
            elif is_bottom(v):
                values.append((out, -1, ()))
            else:
                values.append((out, lindex[v.label], tuple(eindex[x] for x in v.slots)))
        op = sig.monoid.op
        products = [[lindex[op(x, y)] for y in labels] for x in labels]
        seen = set()
        constraints = []
        for si, s in enumerate(self.states):
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
        self.constraints = constraints
        self.by_dep = [[] for _ in range(self.ncells)]
        for ci, (_, deps, _) in enumerate(constraints):
            for d in set(deps):
                self.by_dep[d].append(ci)
        self.initial = [ci for ci, (_, deps, _) in enumerate(constraints) if not deps]
        defined = {lhs for lhs, _, _ in constraints}
        self.loose = [cell for cell, users in enumerate(self.by_dep)
                      if not users and cell not in defined]

    def solve(self, b: Algebra, budget: int = DEFAULT_BUDGET,
              keep: int | None = None) -> SolveResult:
        """Propagate the constraints into b, branching in cell order over b's
        elements on the cells they leave free.  Cells hold indices into
        ``b.elements``.  The right-hand side of a constraint is the code of its
        value, code(bottom) = 0 and code(m, x1..xa) = 1 + m n^a + sum xi n^(a-i)
        with n = |B|; b's structure map is read once per code.

        The first ``keep`` tables (all when None) are kept in the order of
        ``raw_lawful_tables``.  When there are more, the search stops and
        counts them instead, building no tables: each cell that no
        constraint reads or defines counts |B|, and the leaves over the
        other cells are counted by the same search.  The budget bounds
        propagation steps, branches and kept tables together.
        """
        if b.elements is None:
            raise ValueError("solver needs a finite target carrier")
        if b.sig != self.algebra.sig:
            raise ValueError(
                f"signature mismatch: target over {b.sig!r}, source over {self.algebra.sig!r}")
        constraints, by_dep = self.constraints, self.by_dep
        sig, labels = b.sig, b.sig.monoid.elements
        targets = b.elements
        n = len(targets)
        bindex = {e: i for i, e in enumerate(targets)}
        images = {}  # code -> index of its image in b
        assign = [None] * self.ncells
        steps = 0
        limit = budget  # the budget less the branches and kept tables so far
        solutions = []
        keys = [(s, e) for s in self.states for e in self.elems]

        def image(code, m, deps):
            if m < 0:
                v = BOTTOM
            elif sig.kind == CONST:
                v = labels[m]
            else:
                v = Node(labels[m], tuple(targets[assign[d]] for d in deps))
            out = images[code] = bindex.get(b.alpha(v))
            if out is None:
                raise ValueError(f"structure map of {b!r} left the carrier at {v!r}")
            return out

        def propagate(queue, trail) -> bool:
            nonlocal steps
            while queue:
                lhs, deps, m = constraints[queue.pop()]
                code = m
                for d in deps:
                    x = assign[d]
                    if x is None:
                        break
                    code = code * n + x
                else:  # every slot is assigned
                    steps += 1
                    if steps > limit:
                        raise BudgetExceeded
                    code += 1
                    val = images.get(code)
                    if val is None:
                        val = image(code, m, deps)
                    cur = assign[lhs]
                    if cur is None:
                        assign[lhs] = val
                        trail.append(lhs)
                        queue.extend(by_dep[lhs])
                    elif cur != val:
                        return False
            return True

        def charge():
            nonlocal limit
            limit -= 1
            if steps > limit:
                raise BudgetExceeded

        def undo(trail):
            for cell in trail:
                assign[cell] = None

        def leaves(queue):
            """Depth-first search over the cells that hold None, yielding at
            each consistent full assignment.  An explicit stack of (cell,
            trail): the branching cell holds the value being tried (-1 before
            the first), and trail the cells propagation assigned before it
            branched.  Everything it assigns is undone when it returns."""
            stack = []
            while True:
                trail = []
                if propagate(queue, trail):
                    try:
                        cell = assign.index(None)
                    except ValueError:
                        yield
                    else:
                        stack.append((cell, trail))
                        assign[cell] = -1
                        trail = []
                undo(trail)
                while stack:  # try the next value of the innermost open cell
                    cell, trail = stack[-1]
                    if assign[cell] + 1 < n:
                        charge()
                        assign[cell] += 1
                        queue = list(by_dep[cell])
                        break
                    assign[cell] = None
                    undo(trail)
                    stack.pop()
                else:
                    return

        more = False
        try:
            for _ in leaves(list(self.initial)):
                if keep is not None and len(solutions) >= keep:
                    more = True
                    break
                charge()
                solutions.append(dict(zip(keys, map(targets.__getitem__, assign))))
            if not more:
                return SolveResult(tuple(solutions), True, steps, len(solutions))
            assign[:] = [None] * self.ncells
            for cell in self.loose:  # set aside: each counts n
                assign[cell] = -1
            propagate(list(self.initial), [])
            count = n ** len(self.loose) * sum(1 for _ in leaves([]))
            return SolveResult(tuple(solutions), True, steps, count)
        except BudgetExceeded:
            return SolveResult(tuple(solutions), False, steps,
                               len(solutions) + more)


def solve_measurings(c: Coalgebra, a: Algebra, b: Algebra,
                     budget: int = DEFAULT_BUDGET, keep: int | None = None) -> SolveResult:
    """Count the maps (state, element) -> target element satisfying the
    measuring law, keeping the first ``keep`` of them (all when None), by
    constraint propagation with backtracking on the cells the law leaves
    free."""
    return _Structure(c, a).solve(b, budget, keep)


def solutions_as_measurings(c, a, b, result: SolveResult) -> list:
    return [table_measuring(c, a, b, t, f"solution{i}")
            for i, t in enumerate(result.solutions)]


def raw_lawful_tables(c: Coalgebra, a: Algebra, b: Algebra,
                      limit: int = 2 ** 18) -> tuple:
    """Filter oracle: enumerate all |B|^(|C||A|) tables and keep the lawful
    ones, checking the law directly on every cell.  Independent of the
    propagation solver; used to cross-validate it."""
    cells = [(s, e) for s in c.states for e in a.elements]
    total = len(b.elements) ** len(cells)
    if total > limit:
        raise ValueError(f"{total} raw tables exceed the limit {limit}")
    values = fvalues(a.sig, a.elements)
    checks = [(s, v, a.alpha(v)) for s in c.states for v in values]
    lawful = []
    for combo in itertools.product(b.elements, repeat=len(cells)):
        table = dict(zip(cells, combo))
        ok = True
        for s, v, out in checks:
            zipped = zip_values(a.sig, c.chi[s], v)
            expected = b.alpha(functor_map(a.sig, lambda p: table[p], zipped))
            if table[s, out] != expected:
                ok = False
                break
        if ok:
            lawful.append(table)
    return tuple(lawful)


# ---------------------------------------------------------------------------
# morphism enumeration


def _algebra_morphisms(a: Algebra, b: Algebra, budget: int = DEFAULT_BUDGET,
                       keep: int | None = None):
    """(morphisms a -> b as dicts, the solve's result): the measurings by the
    unit machine, with its one state stripped from the table keys."""
    result = solve_measurings(unit_coalgebra(a.sig), a, b, budget, keep)
    morphs = tuple({x: t[STAR, x] for x in a.elements} for t in result.solutions)
    return morphs, result


def coalgebra_morphisms(c: Coalgebra, d: Coalgebra, cap: int = 2 ** 20) -> tuple:
    """All unfolding-preserving maps between finite machines, as dicts."""
    total = len(d.states) ** len(c.states)
    if total > cap:
        raise ValueError(f"{total} candidate maps exceed the cap {cap}")
    maps = (dict(zip(c.states, combo))
            for combo in itertools.product(d.states, repeat=len(c.states)))
    return tuple(f for f in maps if is_coalgebra_morphism(f, c, d))


# ---------------------------------------------------------------------------
# random instance families (seeded, deterministic)


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


# ---------------------------------------------------------------------------
# claim-level checks


def decide_c_initial(c: Coalgebra, a: Algebra, budget: int = DEFAULT_BUDGET) -> Report:
    """Decide that a has exactly one measuring by fuel c into every algebra,
    by one forward pass of the constraints into the free term algebra (a
    budget unit a step; m(x) = m(y) never becomes x = y, as a structure map
    need not be injective).  Each cell filled and no clash: folding its term
    is the one measuring into any algebra.  A clash: none into T_k, k the
    first level at which the two terms differ (the root is level 1), as
    their truncations to depth k differ, or none into the label monoid with
    the identity map.  A cell left empty: two or more into the 2-element
    constant algebra, at a cell no constraint defines.  There is one, as a
    is finite: under fuel with no infinite path an empty cell leads down to
    one, and an infinite path makes the orbit of alpha(bottom) clash first,
    its terms growing a level a step."""
    s = _Structure(c, a)
    sig, labels = a.sig, a.sig.monoid.elements
    cells = [(st, e) for st in s.states for e in s.elems]
    terms = [None] * s.ncells
    waiting = [len(set(deps)) for _, deps, _ in s.constraints]
    queue, steps, witness = list(s.initial), 0, None
    while queue and not witness and steps < budget:
        lhs, deps, m = s.constraints[queue.pop()]
        steps += 1
        if m < 0 or sig.kind == CONST:
            t = BOTTOM if m < 0 else labels[m]
        else:
            t = Node(labels[m], tuple(terms[d] for d in deps))
        if terms[lhs] is None:
            terms[lhs] = t
            for ci in s.by_dep[lhs]:
                waiting[ci] -= 1
                if not waiting[ci]:
                    queue.append(ci)
        elif terms[lhs] != t:
            into = (f"{sig.monoid.name} with the identity structure map" if sig.kind == CONST
                    else f"T{_first_difference(terms[lhs], t)}[{sig!r}]")
            witness = (f"cell {render_value(cells[lhs])}: {render_value(terms[lhs])} and "
                       f"{render_value(t)} clash; no measuring into {into}")
    ran_out = bool(queue) and not witness
    empty = [i for i, t in enumerate(terms) if t is None]
    if empty and not (witness or ran_out):
        defined = {lhs for lhs, _, _ in s.constraints}
        i = min(empty, key=defined.__contains__)  # the first one no constraint defines
        witness = (f"cell {render_value(cells[i])} is defined by no constraint; the 2-element "
                   "algebra with a constant structure map has >= 2 measurings")
    return Report.of("c-initial", f"{c.name} (x) {a.name}", [witness] if witness else (),
                     ran_out=ran_out, checked=steps)


def _first_difference(t, u) -> int:
    """The first level, the root being level 1, at which two different terms
    differ: bottom against a node, or two labels.  Level by level, so a term
    of any depth is compared."""
    level, pairs = 1, [(t, u)]
    while True:
        below = []
        for x, y in pairs:
            if x is y:
                continue
            if x is BOTTOM or y is BOTTOM or x.label != y.label:
                return level
            below.extend(zip(x.slots, y.slots))
        level, pairs = level + 1, below


def check_preinitial_subterminal(p: Algebra, b: Algebra, coalgebras=(),
                                 budget: int = DEFAULT_BUDGET) -> Report:
    """At most one morphism out of p, and at most one lawful measuring per
    fuel machine in the given family."""
    witnesses = []
    morphs, result = _algebra_morphisms(p, b, budget, keep=2)
    exhaustive = result.exhaustive
    if result.count > 1:
        witnesses.append(f"{result.count} morphisms {p.name} -> {b.name}")
        witnesses.extend(str(sorted(m.items(), key=str)) for m in morphs)
    for c in coalgebras:
        result = solve_measurings(c, p, b, budget, keep=1)
        exhaustive = exhaustive and result.exhaustive
        if result.count > 1:
            witnesses.append(f"{result.count} measurings by {c.name}")
    return Report.of("preinitial-subterminal", f"{p.name} -> {b.name}",
                     witnesses, ran_out=not exhaustive)


def check_respects_composition(kind: str, instances, depth: int = 3) -> Report:
    """Transporting a composite equals composing the transports, pointwise.

    kind "embed": instances are (nu, mu, psi, phi); kind "push"/"pull":
    instances are (mu, psi, phi).  Product fuel states are identified across
    the two sides by strictness (pushforward) or by the inclusion of the
    pairwise restriction into the restricted product (pullback).  Infinite
    source carriers are sampled as their enumerator says: terms up to
    ``depth``, over the labels 0, 1, 2 for a builtin monoid.
    """
    transports = {"embed": partial(embed_measuring, verify=False),
                  "push": push_measuring, "pull": pull_measuring}
    if kind not in transports:
        raise ValueError(f"unknown transport kind {kind!r}")
    witnesses = []
    count = 0
    sampled = {}  # coverage phrases, in order
    for count, (*nats, psi, phi) in enumerate(instances, 1):
        move = partial(transports[kind], *nats)
        lhs = move(compose(psi, phi))
        rhs = compose(move(psi), move(phi))
        kept = set(lhs.coalg.states)
        missing = [s for s in rhs.coalg.states if s not in kept]
        if missing:
            witnesses.append((f"instance {count}", "pair state outside restricted product", missing[0]))
            continue
        elems, phrases = lhs.source.carrier(depth)
        sampled.update(dict.fromkeys(phrases))
        for w in _pointwise_mismatches(lhs, rhs, rhs.coalg.states, elems):
            witnesses.append((f"instance {count}",) + w)
    return Report.of(f"respects-composition[{kind}]", f"{count} instances",
                     witnesses, checked=count, sampled="; ".join(sampled) or None)


def check_adjunction(mu: NatTransform, side: str, instances,
                     cap: int = 2 ** 20, budget: int = DEFAULT_BUDGET) -> Report:
    """Hom-set bijections for the pushout and the restriction.

    side "bang": instances are (A, B) constant-signature algebra pairs; the
    morphisms A -> pullback(B) must biject with morphisms pushout(A) -> B
    via the transposes.  side "shriek": instances are (D, C) machine pairs;
    morphisms D -> restrict(C) must biject with morphisms push(D) -> C via
    post-composition with the inclusion, which leaves a map as it is.  Each
    transpose must land in the other hom-set and transpose back; one that
    raises ``ValueError`` fails.  ``cap`` bounds the candidate maps of the
    machine morphism enumeration and ``budget`` each solve of the algebra
    morphisms; running past either is status budget.
    """
    def bang(a, b):
        p = pushout_algebra(mu.hom, a)
        fs, f_result = _algebra_morphisms(a, pullback_algebra(mu, b), budget)
        gs, g_result = _algebra_morphisms(p.algebra, b, budget)
        if not (f_result.exhaustive and g_result.exhaustive):
            return "budget exceeded"
        return fs, gs, partial(pushout_transpose, p, b), partial(pushout_untranspose, p)

    def shriek(d, c):
        sub = restrict_coalgebra(mu, c)
        try:
            fs = coalgebra_morphisms(d, sub.coalg, cap)
            gs = coalgebra_morphisms(pushforward_coalgebra(mu, d), c, cap)
        except ValueError:  # too many candidate maps
            return "cap exceeded"
        return fs, gs, dict, partial(restriction_untranspose, sub, d)

    # per instance: the two hom-sets and the transposes, or what ran out
    hom_sets = {"bang": bang, "shriek": shriek}.get(side)
    if hom_sets is None:
        raise ValueError(f"unknown adjunction side {side!r}")
    witnesses = []
    count = 0
    ran_out = False
    for count, inst in enumerate(instances, 1):
        tag = f"instance {count}"
        found = hom_sets(*inst)
        if isinstance(found, str):
            ran_out = True
            witnesses.append((tag, found))
            continue
        fs, gs, transpose, untranspose = found
        if len(fs) != len(gs):
            witnesses.append((tag, "counts", len(fs), len(gs)))
            continue
        gset = {frozenset(g.items()) for g in gs}
        for f in fs:
            try:
                g = transpose(f)
                ok = frozenset(g.items()) in gset and untranspose(g) == f
            except ValueError:
                ok = False
            if not ok:
                witnesses.append((tag, "transpose fails", str(f)))
    return Report.of(f"adjunction[{side}]", f"{count} instances", witnesses,
                     ran_out=ran_out, checked=count)


def check_preserves_c_initial(mu: NatTransform, c: Coalgebra, a: Algebra,
                              budget: int = DEFAULT_BUDGET) -> Report:
    """a is c-initial, and so is its image for the pushed-forward fuel, both
    decided by ``decide_c_initial``.  The image of a bounded term algebra is
    the T_n^G that ``expand_algebra`` builds, so the check is that T_n^G is
    c-initial for the pushed fuel, not that a left adjoint preserves it."""
    first = decide_c_initial(c, a, budget)
    image = (pushout_algebra(mu.hom, a) if a.sig.kind == CONST
             else expand_algebra(mu, a)).algebra
    second = decide_c_initial(pushforward_coalgebra(mu, c), image, budget)
    witnesses = tuple(f"source: {w}" for w in first.witnesses) + \
        tuple(f"image: {w}" for w in second.witnesses)
    return Report.of("preserves-c-initial", f"{c.name} (x) {a.name} along {mu!r}",
                     witnesses, ran_out="budget" in (first.status, second.status),
                     checked=first.checked + second.checked)
