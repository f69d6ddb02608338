"""Test-side helpers: seeded random instance families, the product-and-filter
reference that ``cind.oracle``'s forcing search for machine morphisms is
checked against, the materialised constraint list that the solver's streamed
structure is checked against, the brute-force laxness check that
``cind.kernel.nat_check_lax`` is checked against, the per-instance law check
that ``cind.measuring.check_law`` is checked against, the forward pass
that ``cind.oracle.decide_c_initial`` is checked against, a seeded generator
of ``cind check`` scripts, and measuring comparisons.  None of them is part
of the package."""

import itertools
import random
from operator import add
from types import SimpleNamespace

from cind.carriers import (Algebra, Coalgebra, coalgebra, is_coalgebra_morphism,
                           render_value, table_algebra)
from cind.kernel import (BOTTOM, CONST, FunctorSig, NatTransform, Node, Report,
                         _sample_labels, functor_map, fvalues, is_bottom, nat_apply,
                         unit_value, zip_values)
from cind.measuring import Measuring, _pointwise_mismatches, table_measuring
from cind.oracle import DEFAULT_BUDGET, _build_size, _first_difference, _Structure


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


def forward_pass_decision(c: Coalgebra, a: Algebra, budget: int = DEFAULT_BUDGET) -> Report:
    """c-initiality decided by a forward pass of its own, over terms rather
    than their positions: a constraint is queued when the last of its cells
    fills and counts a step when it is popped, while fewer than ``budget``
    steps are taken.  The reference for ``cind.oracle.decide_c_initial``,
    which runs on the solver's propagation loop."""
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
        i = next((i for i in empty if not s.image[i % s.ne]), empty[0])
        witness = (f"cell {cell(i)} is defined by no constraint; the 2-element "
                   "algebra with a constant structure map has >= 2 measurings")
    return Report.of("c-initial", f"{c.name} (x) {a.name}", [witness] if witness else (),
                     ran_out=ran_out, checked=steps)


def random_script(rng: random.Random) -> str:
    """A seeded ``cind check`` script.  Its monoids are ``builtin trivial``,
    ``builtin nat`` (labels 0-2) or tables on {0, 1} under max, min, or or
    and, now and then with a unit that is none; its functors are const or
    shapes of arity 0-2.  Over F it declares two algebras (bounded term
    algebras, or constant algebras with elements the structure map leaves
    out) and a fuel (``counter``, ``shapes``, ``unit``, ``dual``, a machine
    with bottom states, or a ``tensor`` of two).  Now and then a hom and a
    nat mu : F -> G follow (into an arity-0 G by ``reindex []`` when F has
    arity 0), with an algebra and a fuel over G and the transports
    ``expand`` or ``pushout``, ``pullback``, ``pushforward`` and
    ``restrict`` along mu.  Then come two to four checks among ``unique``,
    ``count``, ``c-initial`` and ``solve`` followed by ``law``, each over
    one functor's algebras and fuels; a check's numbers sit anywhere among
    its references.  Out of ``builtin nat``, whose checks and whose
    ``pushout`` and ``restrict`` are run errors, those come rarely.  A declaration of the wrong kind for its functor, a
    lawless or non-injective hom (out of ``builtin nat``, one that sends 0
    to 1), or a check of no kind is left in now and then, so some scripts
    exit 2."""
    lines = []
    units = {"max": 0, "or": 0, "min": 1, "and": 1}  # x -> 1 - x swaps the two kinds

    def monoid(name, op=None):
        """Declare a monoid; its labels, and its op: a table op, or the
        builtin's name."""
        if op is None and rng.random() < 0.45:
            op = rng.choice(("trivial", "trivial", "nat"))
            lines.append(f"monoid {name} = builtin {op}")
            return (["e"] if op == "trivial" else [0, 1, 2][:rng.randint(1, 3)]), op
        op = op or rng.choice(("max", "min", "or", "and"))
        unit = units[op]
        lines.append(f"monoid {name} = table {{0, 1}} {op} "
                     f"{unit if rng.random() < 0.97 else 1 - unit}")
        return [0, 1], op

    def functor(name, m, const, arity=None):
        """Declare a functor over monoid m; its arity and term depth bound."""
        if arity is None:
            arity = 0 if const else rng.choice((0, 1, 1, 2))
        lines.append(f"functor {name} = const({m})" if const else
                     f"functor {name} = shape({m}, {arity})")
        return arity, 3 if arity < 2 else 1

    def algebra(name, f, const, labels, depth):
        if const == (rng.random() < 0.97):  # the functor's kind, now and then not
            interpret = {m: f"x{rng.randrange(2)}" for m in labels}
            elems = sorted(set(interpret.values())) + [f"u{i}" for i in range(rng.randint(0, 2))]
            pairs = ", ".join(f"{m} -> {x}" for m, x in interpret.items())
            lines.append(f"alg {name} = constalg({f}, {{{', '.join(elems)}}}, {{{pairs}}})")
        else:
            lines.append(f"alg {name} = bounded({f}, {rng.randint(0, depth)})")

    def fuel(name, f, const, arity, labels, depth, algs):
        kind = rng.choice(("unit", "machine", "machine") if const and rng.random() < 0.95
                          else ("counter", "shapes", "unit", "dual", "machine", "machine"))
        if kind in ("counter", "shapes"):
            body = f"{kind}({f}, {rng.randint(0, depth)})"
        elif kind in ("unit", "dual"):
            body = f"unit({f})" if kind == "unit" else f"dual({rng.choice(algs)})"
        else:
            states = [f"s{i}" for i in range(rng.randint(1, 3))]
            unfold = {s: str(rng.choice(labels)) if const else "#b" if rng.random() < 0.3 else
                      "(" + " ".join([str(rng.choice(labels))] +
                                     rng.choices(states, k=arity)) + ")" for s in states}
            body = f"machine({f}, {{" + ", ".join(f"{s} -> {u}" for s, u in unfold.items()) + "})"
        lines.append(f"coalg {name} = {body}")

    def check(kind, refs, numbers=()):
        """A check line; now and then its numbers stand among its references."""
        words = refs + [str(n) for n in numbers]
        for n in numbers if rng.random() < 0.3 else ():
            words.remove(str(n))
            words.insert(rng.randint(0, len(words)), str(n))
        return f"check {kind} {' '.join(words)}"

    labels, op = monoid("M")
    const = rng.random() < 0.35
    arity, depth = functor("F", "M", const)
    algebra("A", "F", const, labels, depth)
    algebra("B", "F", const, labels, depth)
    fuel("C", "F", const, arity, labels, depth, "AB")
    c = "C"
    if rng.random() < 0.2:
        fuel("D", "F", const, arity, labels, depth, "AB")
        lines.append("coalg E = tensor(C, D)")
        c = "E"
    pools = {"F": ("AB", [c])}  # per functor: its algebras and its fuels
    if rng.random() < (0.9 if op == "nat" else 0.4):  # a morphism mu : F -> G, and transports
        builtin = op in ("trivial", "nat")
        glabels, gop = monoid("N", None if builtin else rng.choice((op, op, "max", "min", "or", "and")))
        garity, gdepth = functor("G", "N", const, 0 if const or not arity else rng.choice((arity, 2)))
        scale, other = rng.randint(0, 2), rng.randrange(2)  # what 1 goes to out of nat

        def lawful(m):
            if gop in ("trivial", "nat"):
                return "e" if gop == "trivial" else m * scale if op == "nat" else 0
            if builtin:
                return units[gop] if op == "trivial" or m == 0 else other
            return m if units[op] == units[gop] else 1 - m

        image = ({m: lawful(m) for m in labels} if rng.random() < 0.9
                 else {m: rng.choice(glabels) for m in labels})
        if op == "nat" and gop != "trivial" and rng.random() < 0.15:  # the unit not kept
            image[0] = 1 if gop == "nat" else 1 - units[gop]
        lines.append("hom h : M -> N = [" + ", ".join(f"{m} -> {x}" for m, x in image.items()) + "]")
        slots = list(range(1, arity + 1)) + rng.choices(range(1, arity + 1), k=garity - arity)
        rng.shuffle(slots)  # onto the source's slots, as restrict needs
        reindex = "" if const else f", reindex [{', '.join(map(str, slots))}]"
        lines.append(f"nat mu : F -> G = (hom h{reindex})")
        algebra("Z", "G", const, glabels, gdepth)
        fuel("Q", "G", const, garity, glabels, gdepth, "Z")
        # out of builtin nat, pushout and restrict are run errors: mostly left out
        skip = op == "nat" and rng.random() < 0.8
        x, r = "X" * (not (skip and const)), "R" * (not skip)
        lines += [f"alg X = {'pushout' if const else 'expand'}(mu, {rng.choice('AB')})"] * len(x)
        lines += ["alg Y = pullback(mu, Z)", f"coalg P = pushforward(mu, {c})"]
        lines += ["coalg R = restrict(mu, Q)"] * len(r)
        pools = {"F": ("ABY", [c, *r]), "G": (x + "Z", ["P", "Q"])}
    for i in range(rng.randint(2, 4)):
        # checks over builtin nat are run errors, so they come rarely
        algs, fuels = pools["G" if op == "nat" and len(pools) > 1 and rng.random() < 0.9
                            else rng.choice(list(pools))]
        c, a, b = rng.choice(fuels), rng.choice(algs), rng.choice(algs)
        lines += rng.choice((
            [check("unique", [c, a, b])],
            [check("count", [c, a, b], [rng.randint(0, 3)])],
            [check("c-initial", [c, a], rng.choice(([], [], [], [2, 5], [rng.randint(0, 9)])))],
            [f"measure phi{i} = solve({c}, {a}, {b})", f"check law phi{i}"]))
    if rng.random() < 0.03:
        lines.append(f"check nothing {c}")
    return "\n".join(lines) + "\n"
