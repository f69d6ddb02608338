"""Exhaustive checkers: a propagation/backtracking solver that counts the
lawful measuring tables between finite carriers and keeps the first few (or
all), reaching each instance of the measuring law through the cell it reads
(decoded from a value table of the source and an index of the machine, so
the |C|·|F(A)| instances are never built), a raw filter oracle it is
cross-validated against, a forcing search
for machine morphisms, and the claim-level checkers: c-initiality (decided,
with an algebra that witnesses each outcome), preinitiality, composition
respect, adjunction bijections and initiality preservation.  Algebra
morphisms are the measurings by the one-state unit machine.  Both searches
return a ``SolveResult`` and stop where one budget runs out.  Each checker
returns a ``kernel.Report`` that states its coverage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from operator import add

from .carriers import Algebra, Coalgebra, render_value, unit_coalgebra
from .kernel import (BOTTOM, CONST, STAR, NatTransform, Node, Report,
                     functor_map, fvalues, is_bottom, zip_values)
from .measuring import (_pointwise_mismatches, compose, embed_measuring,
                        pull_measuring, push_measuring)
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
    """Target-independent law structure for measurings out of (C, A): a value
    table for the source and an index of the machine, from which each law
    instance is decoded when it is needed.

    One cell per (state, element), numbered ``s * |A| + e``.  One law
    instance, or constraint, per (state, signature value v), numbered
    ``s * |F(A)| + v``: cell(s, alpha(v)) = the interpretation of the zipped
    unfolding, whose slots reference other cells.  ``decode`` gives it as
    (lhs, deps, label): the cell it defines, the cells in its slots, and the
    index of its label in the finite monoid, -1 for bottom.

    The value table reads the source's structure map once per value and
    holds, per value, its output, label and slot indices, and, per slot
    position, the values that hold each element there.  The machine index
    holds, per state, its label row (the products with its label; None for
    bottom) and slot bases, and the (state, slot positions) whose unfolding
    has it in a slot.  A constraint that an earlier one of its state repeats,
    as when a label row collapses two products, is a duplicate: one mask per
    distinct row marks them, and they are never generated.  ``readers(cell)``
    generates the constraints that read a cell in ascending order, so nothing
    of size |C|·|F(A)| is built.
    """

    def __init__(self, c: Coalgebra, a: Algebra):
        _build_size(c, a)  # rejects what the solver cannot take
        self.states, self.elems = c.states, a.elements
        sig, labels = a.sig, a.sig.monoid.elements
        lindex = {m: i for i, m in enumerate(labels)}
        sindex = {s: i for i, s in enumerate(self.states)}
        eindex = {e: i for i, e in enumerate(self.elems)}
        self.ne = ne = len(self.elems)
        self.ncells = len(self.states) * ne
        # the value table; a label is -1 for bottom
        self.outs, self.labels, self.slots = outs, labs, slots = [], [], []
        arity = 0 if sig.kind == CONST else sig.arity
        self.by_pos = [[[] for _ in range(ne)] for _ in range(arity)]
        for vi, v in enumerate(fvalues(sig, self.elems)):
            out = eindex.get(a.alpha(v))
            if out is None:
                raise ValueError(f"structure map of {a!r} left the carrier at {v!r}")
            outs.append(out)
            if sig.kind == CONST:
                labs.append(lindex[v])
                slots.append(())
            elif is_bottom(v):
                labs.append(-1)
                slots.append(())
            else:
                labs.append(lindex[v.label])
                slots.append(tuple(eindex[x] for x in v.slots))
                for at, x in zip(self.by_pos, slots[-1]):
                    at[x].append(vi)
        self.nv = len(outs)
        self.image = bytearray(ne)  # 1 where an element is some value's output
        for out in outs:
            self.image[out] = 1
        # the machine index
        op = sig.monoid.op
        products = [[lindex[op(x, y)] for y in labels] for x in labels]
        self.rows, self.bases, self.masks = [], [], []
        self.parents = [[] for _ in self.states]
        masks = {}  # label index, or None for bottom -> duplicate mask
        for si, s in enumerate(self.states):
            chi = c.chi[s]
            if sig.kind == CONST:
                key, bases = lindex[chi], ()
            elif is_bottom(chi):
                key, bases = None, ()
            else:
                key, bases = lindex[chi.label], tuple(sindex[cs] * ne for cs in chi.slots)
                positions = {}
                for i, cs in enumerate(chi.slots):
                    positions.setdefault(sindex[cs], []).append(i)
                for t, ps in positions.items():
                    self.parents[t].append((si, tuple(ps)))
            row = None if key is None else products[key]
            if key not in masks:
                masks[key] = self._duplicates(row)
            self.rows.append(row)
            self.bases.append(bases)
            self.masks.append(masks[key])
        bare = [vi for vi, xs in enumerate(slots) if not xs]
        self.initial = [si * self.nv + vi for si, (row, mask) in enumerate(zip(self.rows, self.masks))
                        for vi in (range(self.nv) if row is None else bare)
                        if not (mask and mask[vi])]
        # a cell no constraint reads (its state is in no slot) or defines
        self.loose = [si * ne + e for si, ps in enumerate(self.parents) if not ps
                      for e in range(ne) if not self.image[e]]

    def _duplicates(self, row):
        """A mask over the values, 1 where an earlier value gives the same
        constraint in a state with label row (None for a bottom state, whose
        constraints differ only in their output); None when none repeats."""
        seen, mask = set(), bytearray(self.nv)
        for vi, (out, m, xs) in enumerate(zip(self.outs, self.labels, self.slots)):
            key = out if row is None else (out, xs, -1 if m < 0 else row[m])
            if key in seen:
                mask[vi] = 1
            else:
                seen.add(key)
        return mask if any(mask) else None

    def decode(self, ci: int) -> tuple:
        """Constraint ci as (lhs, deps, label)."""
        si, vi = divmod(ci, self.nv)
        row, m = self.rows[si], self.labels[vi]
        lhs = si * self.ne + self.outs[vi]
        if row is None or m < 0:
            return lhs, (), -1
        return lhs, tuple(map(add, self.bases[si], self.slots[vi])), row[m]

    def readers(self, cell: int) -> list:
        """The constraints with the cell in a slot, in ascending order."""
        s, e = divmod(cell, self.ne)
        out = []
        for t, positions in self.parents[s]:
            if len(positions) == 1:
                values = self.by_pos[positions[0]][e]
            else:  # the state fills several slots of t's unfolding
                values = sorted(set().union(*(self.by_pos[i][e] for i in positions)))
            base, mask = t * self.nv, self.masks[t]
            out += ([base + vi for vi in values] if mask is None
                    else [base + vi for vi in values if not mask[vi]])
        return out

    def solve(self, b: Algebra, budget: int = DEFAULT_BUDGET,
              keep: int | None = None) -> SolveResult:
        """Propagate the constraints into b, branching in cell order over b's
        elements on the cells they leave free: each constraint is decoded when
        it is popped, and a cell's readers are generated when it is assigned
        or branched on, in the order a materialised list would give them.
        Cells hold indices into ``b.elements``.  The right-hand side of a
        constraint is the code of its value, code(bottom) = 0 and
        code(m, x1..xa) = 1 + m n^a + sum xi n^(a-i) with n = |B|; b's
        structure map is read once per code.

        The first ``keep`` tables (all when None) are kept in the order of
        ``raw_lawful_tables``.  When there are more, the search stops and
        counts them instead, building no tables: each cell that no
        constraint reads or defines counts |B|, and the leaves over the
        other cells are counted by the same search.  The budget bounds
        propagation steps, branches and kept tables together.
        """
        readers, nv, ne = self.readers, self.nv, self.ne
        outs, labs, slots, rows, bases = self.outs, self.labels, self.slots, self.rows, self.bases
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

        def image(code, ci):
            _, deps, m = self.decode(ci)
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
            while queue:  # each constraint decoded as in ``decode``, inline
                ci = queue.pop()
                si, vi = divmod(ci, nv)
                row, m = rows[si], labs[vi]
                if row is None or m < 0:
                    code, deps = -1, ()
                else:
                    code, deps = row[m], map(add, bases[si], slots[vi])
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
                        val = image(code, ci)
                    lhs = si * ne + outs[vi]
                    cur = assign[lhs]
                    if cur is None:
                        assign[lhs] = val
                        trail.append(lhs)
                        queue.extend(readers(lhs))
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
                        queue = readers(cell)
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


def _build_size(c: Coalgebra, a: Algebra) -> int:
    """|C|·|F(A)|, the law instances out of (c, a), which bound the
    constraints a check over them may visit; raises ``ValueError`` where the
    solver cannot take (c, a)."""
    labels = a.sig.monoid.elements
    if labels is None:
        raise ValueError(f"{a.sig.monoid.name} is not enumerable; the solver needs finite labels")
    if a.elements is None:
        raise ValueError("solver needs an enumerable source carrier")
    if c.sig != a.sig:
        raise ValueError("signature mismatch between fuel and source")
    if a.sig.kind == CONST:
        return len(c.states) * len(labels)
    return len(c.states) * (1 + len(labels) * len(a.elements) ** a.sig.arity)


def solve_measurings(c: Coalgebra, a: Algebra, b: Algebra,
                     budget: int = DEFAULT_BUDGET, keep: int | None = None) -> SolveResult:
    """Count the maps (state, element) -> target element satisfying the
    measuring law, keeping the first ``keep`` of them (all when None), by
    constraint propagation with backtracking on the cells the law leaves
    free.  A solve over more law instances than the budget is not started."""
    size = _build_size(c, a)
    if b.elements is None:
        raise ValueError("solver needs a finite target carrier")
    if b.sig != a.sig:
        raise ValueError(f"signature mismatch: target over {b.sig!r}, source over {a.sig!r}")
    if size > budget:
        return SolveResult((), False, 0, 0)
    return _Structure(c, a).solve(b, budget, keep)


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
                       keep: int | None = None) -> SolveResult:
    """The morphisms a -> b as dicts: the measurings by the unit machine,
    with its one state stripped from the table keys."""
    result = solve_measurings(unit_coalgebra(a.sig), a, b, budget, keep)
    return replace(result, solutions=tuple({x: t[STAR, x] for x in a.elements}
                                           for t in result.solutions))


def coalgebra_morphisms(c: Coalgebra, d: Coalgebra,
                        budget: int = DEFAULT_BUDGET) -> SolveResult:
    """The unfolding-preserving maps c -> d, as dicts, in the order of the
    product over ``d.states``.  Setting f(s) = t needs chi_C(s) and chi_D(t)
    to have the same top (bottom, bare label or node label), and forces f on
    each slot of chi_C(s) to the matching slot of chi_D(t): a morphism is
    fixed on the subcoalgebra a state generates.  So the search branches only
    on the states no earlier choice reached, in ``c.states`` order, over the
    targets whose top matches.  Every assignment, a branch's own included,
    is a step and costs a budget unit."""
    if c.sig != d.sig:
        return SolveResult((), True, 0, 0)

    def split(x):  # (top, slots)
        return (x, ()) if c.sig.kind == CONST or is_bottom(x) else (x.label, x.slots)

    cs = {s: split(c.chi[s]) for s in c.states}
    ds, by_top = {t: split(d.chi[t]) for t in d.states}, {}
    for t in d.states:
        by_top.setdefault(ds[t][0], []).append(t)
    states = c.states
    options = [by_top.get(cs[s][0], ()) for s in states]
    f, solutions, steps = {}, [], 0

    def force(s, t, trail) -> bool:
        """Set f(s) = t and what it forces, noting each state set on trail;
        False at a clash."""
        nonlocal steps
        work = [(s, t)]
        while work:
            s, t = work.pop()
            if f.get(s, t) != t or cs[s][0] != ds[t][0]:
                return False
            if s not in f:
                steps += 1
                if steps > budget:
                    raise BudgetExceeded
                f[s] = t
                trail.append(s)
                work.extend(zip(cs[s][1], ds[t][1]))
        return True

    # frames [index of the state branched on, next option, states its choice set]
    stack, i = [], 0
    try:
        while True:
            while i < len(states) and states[i] in f:
                i += 1
            if i == len(states):
                solutions.append({s: f[s] for s in states})
            else:
                stack.append([i, 0, []])
            while stack:
                frame = stack[-1]
                i, k, trail = frame
                for s in trail:
                    del f[s]
                trail.clear()
                if k == len(options[i]):
                    stack.pop()
                    continue
                frame[1] = k + 1
                if force(states[i], options[i][k], trail):
                    break
            else:
                return SolveResult(tuple(solutions), True, steps, len(solutions))
    except BudgetExceeded:
        return SolveResult(tuple(solutions), False, steps, len(solutions))


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
    its terms growing a level a step.  A constraint is queued when the last
    of its cells fills; a cell is defined by some constraint iff its element
    is in the image of alpha.  A decision over more law instances than the
    budget is not started."""
    if _build_size(c, a) > budget:
        return Report.of("c-initial", f"{c.name} (x) {a.name}", ran_out=True)
    s = _Structure(c, a)
    sig, labels = a.sig, a.sig.monoid.elements
    terms = [None] * s.ncells

    def cell(i):
        return render_value((s.states[i // s.ne], s.elems[i % s.ne]))

    queue, steps, witness = list(s.initial), 0, None
    while queue and not witness and steps < budget:
        lhs, deps, m = s.decode(queue.pop())
        steps += 1
        if m < 0 or sig.kind == CONST:
            t = BOTTOM if m < 0 else labels[m]
        else:
            t = Node(labels[m], tuple(terms[d] for d in deps))
        if terms[lhs] is None:
            terms[lhs] = t
            for ci in s.readers(lhs):  # queued when this was the last of its cells to fill
                si, vi = divmod(ci, s.nv)
                for d in map(add, s.bases[si], s.slots[vi]):
                    if terms[d] is None:
                        break
                else:
                    queue.append(ci)
        elif terms[lhs] != t:
            into = (f"{sig.monoid.name} with the identity structure map" if sig.kind == CONST
                    else f"T{_first_difference(terms[lhs], t)}[{sig!r}]")
            witness = (f"cell {cell(lhs)}: {render_value(terms[lhs])} and "
                       f"{render_value(t)} clash; no measuring into {into}")
    ran_out = bool(queue) and not witness
    empty = [i for i, t in enumerate(terms) if t is None]
    if empty and not (witness or ran_out):
        # a cell is defined iff its element is some value's output
        i = next((i for i in empty if not s.image[i % s.ne]), empty[0])
        witness = (f"cell {cell(i)} is defined by no constraint; the 2-element "
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
    result = _algebra_morphisms(p, b, budget, keep=2)
    exhaustive = result.exhaustive
    if result.count > 1:
        witnesses.append(f"{result.count} morphisms {p.name} -> {b.name}")
        witnesses.extend(str(sorted(m.items(), key=str)) for m in result.solutions)
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
    transports = {"embed": embed_measuring, "push": push_measuring, "pull": pull_measuring}
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
                     budget: int = DEFAULT_BUDGET) -> Report:
    """Hom-set bijections for the pushout and the restriction.

    side "bang": instances are (A, B) constant-signature algebra pairs; the
    morphisms A -> pullback(B) must biject with morphisms pushout(A) -> B
    via the transposes.  side "shriek": instances are (D, C) machine pairs;
    morphisms D -> restrict(C) must biject with morphisms push(D) -> C via
    post-composition with the inclusion, which leaves a map as it is.  Each
    transpose must land in the other hom-set and transpose back; one that
    raises ``ValueError`` fails.  ``budget`` bounds each hom-set search;
    running past it is status budget.
    """
    def bang(a, b):
        p = pushout_algebra(mu.hom, a)
        return (_algebra_morphisms(a, pullback_algebra(mu, b), budget),
                _algebra_morphisms(p.algebra, b, budget),
                partial(pushout_transpose, p, b), partial(pushout_untranspose, p))

    def shriek(d, c):
        sub = restrict_coalgebra(mu, c)
        return (coalgebra_morphisms(d, sub.coalg, budget),
                coalgebra_morphisms(pushforward_coalgebra(mu, d), c, budget),
                dict, partial(restriction_untranspose, sub, d))

    # per instance: the two hom-set searches and the transposes
    hom_sets = {"bang": bang, "shriek": shriek}.get(side)
    if hom_sets is None:
        raise ValueError(f"unknown adjunction side {side!r}")
    witnesses = []
    count = 0
    ran_out = False
    for count, inst in enumerate(instances, 1):
        tag = f"instance {count}"
        f_result, g_result, transpose, untranspose = hom_sets(*inst)
        if not (f_result.exhaustive and g_result.exhaustive):
            ran_out = True
            witnesses.append((tag, "budget exceeded"))
            continue
        fs, gs = f_result.solutions, g_result.solutions
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
