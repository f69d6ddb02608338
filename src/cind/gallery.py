"""Named example setups used by the CLI and the test suite.

Each fixture reconstructs one worked scenario end to end: the signatures and
morphisms, the carriers, the measurings, the expected golden evaluations, and
a list of oracle reports that must all hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .carriers import (coalgebra, finite_algebra, initial_term_algebra,
                       nat_counter, perfect_shape, render_term,
                       shape_coalgebra, table_algebra, term_algebra_bounded,
                       term_as_coalgebra, term_unfold_coalgebra,
                       unit_coalgebra, coalgebras_identical)
from .kernel import (BOOL_OR, BOTTOM, NAT_PLUS, TRIV, TRUTH_AND, TRUTH_OR,
                     Node, Report, collapse_hom, const_sig, hom, identity_hom,
                     nat_transform, shape_sig, unit_hom)
from .measuring import (canonical_const_measuring, canonical_term_measuring,
                        check_law, compose, embed_measuring, pull_measuring,
                        push_measuring)
from .oracle import (DEFAULT_BUDGET, check_adjunction,
                     check_preserves_c_initial, check_respects_composition,
                     decide_c_initial)
from .transport import (expand_algebra, pullback_algebra,
                        pushforward_coalgebra, pushout_algebra,
                        restrict_coalgebra)


@dataclass
class Fixture:
    name: str
    title: str
    reports: list
    goldens: list = field(default_factory=list)
    measurings: list = field(default_factory=list)  # (Measuring, check_law kwargs)


# ---------------------------------------------------------------------------
# numbers seen as lists that ignore their labels


def build_nat_as_lists(budget: int = DEFAULT_BUDGET) -> Fixture:
    f = shape_sig(TRIV, 1)
    g = shape_sig(BOOL_OR, 1)
    mu = nat_transform(f, g, unit_hom(BOOL_OR), (0,), name="mu")
    nu = nat_transform(g, f, collapse_hom(BOOL_OR), (0,), name="nu")

    n2 = term_algebra_bounded(f, 2)
    c2 = nat_counter(2)
    phi = canonical_term_measuring(c2, n2, n2, name="min")
    emb = embed_measuring(nu, mu, phi)
    comp = compose(phi, phi)

    reports = [
        check_law(phi),
        check_law(emb),
        check_law(comp),
        decide_c_initial(c2, n2, budget),
        check_respects_composition(
            "embed",
            [(nu, mu, canonical_term_measuring(d, n2, n2),
              canonical_term_measuring(c, n2, n2))
             for d in (unit_coalgebra(f), c2) for c in (unit_coalgebra(f), c2)]),
    ]
    return Fixture("nat_as_lists", "numbers embedded as label-blind lists",
                   reports,
                   measurings=[(phi, {}), (emb, {}), (comp, {})])


# ---------------------------------------------------------------------------
# a label change that swaps the two truth values


def build_truth_monoid(budget: int = DEFAULT_BUDGET) -> Fixture:
    ca = const_sig(TRUTH_AND)
    co = const_sig(TRUTH_OR)
    flip = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"})
    mu = nat_transform(ca, co, flip, name="flip")

    a3 = finite_algebra(ca, ("ta", "fa", "other"),
                        lambda x: {"T": "ta", "F": "fa"}[x], "A3")
    p3 = pushout_algebra(flip, a3)

    am = finite_algebra(ca, ("T", "F"), lambda x: x, "AM")
    cc = coalgebra(ca, ("c0", "c1"), {"c0": "T", "c1": "F"}, "Cc")
    phi = canonical_const_measuring(cc, am, am, name="truthmul")
    pushed = push_measuring(mu, phi)
    comp = compose(phi, phi)

    # every pair of constant algebras on 1-3 elements: one per map labels -> carrier
    sides = [[table_algebra(sig, range(n), dict(zip(sig.monoid.elements, im)))
              for n in (1, 2, 3) for im in itertools.product(range(n), repeat=2)] for sig in (ca, co)]
    instances = list(itertools.product(*sides))

    expected_classes = ((("alg", "ta"), ("mon", "F")),
                        (("alg", "fa"), ("mon", "T")),
                        (("alg", "other"),))
    reports = [
        Report.of("pushout-classes", "A3 along flip", [str(p3.classes)],
                  failed=p3.classes != expected_classes),
        check_law(phi),
        check_law(pushed),
        check_law(comp),
        check_adjunction(mu, "bang", instances, budget=budget),
        check_respects_composition("push", [(mu, phi, phi)]),
    ]
    goldens = ["classes " + " | ".join(
        "{" + ", ".join(f"{k}:{v}" for k, v in cls) + "}" for cls in p3.classes)]
    return Fixture("truth_monoid", "pushout along the truth-swapping hom",
                   reports, goldens,
                   measurings=[(phi, {}), (pushed, {}), (comp, {})])


# ---------------------------------------------------------------------------
# restricting list zips to plain length fuel


def build_pulling_back_lists(budget: int = DEFAULT_BUDGET) -> Fixture:
    f = shape_sig(TRIV, 1)
    g = shape_sig(BOOL_OR, 1)
    mu = nat_transform(f, g, unit_hom(BOOL_OR), (0,), name="mu")

    l2 = term_algebra_bounded(g, 2)
    l2d = term_unfold_coalgebra(g, 2)
    linf = initial_term_algebra(g)
    zipm = canonical_term_measuring(l2d, l2, linf, name="zip")
    sub = restrict_coalgebra(mu, l2d)
    pulled = pull_measuring(mu, zipm, sub)

    n2 = term_algebra_bounded(f, 2)
    c2 = nat_counter(2)
    minm = canonical_term_measuring(c2, n2, pullback_algebra(mu, linf), name="min")

    zip2 = canonical_term_measuring(l2d, l2, l2, name="zip2")
    comp = compose(zip2, zip2)

    elist = [BOTTOM]
    for _ in range(2):
        elist.append(Node(0, (elist[-1],)))
    kept_expected = tuple(elist)  # unit-labelled lists, shortest first

    reports = [
        check_law(zipm),
        check_law(pulled),
        check_law(minm),
        check_law(comp),
        Report.of("restriction", "all-unit list states",
                  [render_term(s) for s in sub.kept],
                  failed=set(sub.kept) != set(kept_expected)),
        decide_c_initial(c2, n2, budget),
        check_respects_composition("pull", [(mu, zip2, zip2)]),
    ]
    return Fixture("pulling_back_lists", "list zips restricted to length fuel",
                   reports,
                   measurings=[(zipm, {}), (pulled, {}), (minm, {}), (comp, {})])


# ---------------------------------------------------------------------------
# tree pruning with level-indexed relabelling


def build_tree_pruning(budget: int = DEFAULT_BUDGET) -> Fixture:
    g = shape_sig(NAT_PLUS, 1)
    h = shape_sig(NAT_PLUS, 2)
    mu = nat_transform(g, h, identity_hom(NAT_PLUS), (0, 0), name="dup")

    trees = initial_term_algebra(h)

    def prune_with(shape_term):
        fuel = term_as_coalgebra(h, shape_term)
        phi = canonical_term_measuring(fuel, trees, trees, name="prune")
        return fuel, phi

    subject = Node(5, (Node(1, (BOTTOM, BOTTOM)), BOTTOM))
    zero1 = Node(0, (BOTTOM, BOTTOM))
    zero2 = Node(0, (zero1, BOTTOM))

    goldens = []
    examples = [(BOTTOM, subject), (zero1, subject), (zero2, zero2)]
    for shape_term, tree in examples:
        fuel, phi = prune_with(shape_term)
        out = phi.eval(shape_term, tree)
        goldens.append(f"prune {render_term(shape_term)} {render_term(tree)}"
                       f" -> {render_term(out)}")

    # a one-state machine is an infinite all-zero fuel tree: pruning with it
    # is the identity
    loop = coalgebra(h, ("s",), {"s": Node(0, ("s", "s"))}, "loop")
    loop_phi = canonical_term_measuring(loop, trees, trees, name="loopprune")
    wide = Node(5, (Node(1, (BOTTOM, BOTTOM)), Node(7, (BOTTOM, BOTTOM))))
    goldens.append(f"loop-prune {render_term(wide)} -> {render_term(loop_phi.eval('s', wide))}")

    # pushing the list zip forward prunes to the list's length and adds the
    # level's entry to every node at that level
    lists = initial_term_algebra(g)
    fuel_list = Node(0, (Node(1, (Node(2, (BOTTOM,)),)),))
    list_fuel = term_as_coalgebra(g, fuel_list)
    zipm = canonical_term_measuring(list_fuel, lists, lists, name="listzip")
    pushed = push_measuring(mu, zipm)
    pushed_out = pushed.eval(fuel_list, wide)
    goldens.append(f"push [0,1,2] {render_term(wide)} -> {render_term(pushed_out)}")

    # finite-label twin of the same construction, small enough to solve
    gb = shape_sig(BOOL_OR, 1)
    hb = shape_sig(BOOL_OR, 2)
    mub = nat_transform(gb, hb, identity_hom(BOOL_OR), (0, 0), name="dupb")
    l1 = term_algebra_bounded(gb, 1)
    l1d = term_unfold_coalgebra(gb, 1)
    t1 = expand_algebra(mub, l1).algebra
    pushed_fuel = pushforward_coalgebra(mub, l1d)

    shape1, prune1 = prune_with(zero1)
    zipb = canonical_term_measuring(l1d, l1, l1, name="zipb")
    reports = [
        check_law(prune1, depth=2),
        check_law(loop_phi, depth=2),
        check_law(pushed, depth=2),
        decide_c_initial(pushed_fuel, t1, budget),
        check_respects_composition("push", [(mub, zipb, zipb)]),
    ]
    return Fixture("tree_pruning", "shape-directed pruning and its transports",
                   reports, goldens,
                   measurings=[(loop_phi, {"depth": 2}),
                               (pushed, {"depth": 2}),
                               (zipb, {})])


# ---------------------------------------------------------------------------
# the three introductory constructions


def build_intro_examples(budget: int = DEFAULT_BUDGET) -> Fixture:
    f = shape_sig(TRIV, 1)
    hm = shape_sig(BOOL_OR, 2)
    mu = nat_transform(f, hm, unit_hom(BOOL_OR), (0, 0), name="perfect")

    t1 = term_algebra_bounded(hm, 1)
    s1 = shape_coalgebra(hm, 1)
    prune1 = canonical_term_measuring(s1, t1, t1, name="prune1")

    n2 = term_algebra_bounded(f, 2)
    expanded = expand_algebra(mu, n2)
    numeral2 = n2.elements[2]
    perfect2 = expanded.embed(numeral2)
    leaf = Node(0, (BOTTOM, BOTTOM))
    expected_perfect = Node(0, (leaf, leaf))

    pushed_fuel = pushforward_coalgebra(mu, nat_counter(2))
    strict_same = coalgebras_identical(pushed_fuel, perfect_shape(hm, 2))

    reports = [
        check_law(prune1),
        Report.of("perfect-embedding", "depth 2", [render_term(perfect2)],
                  failed=perfect2 != expected_perfect),
        Report.of("pushforward-is-depth-fuel", "fuel 2", failed=not strict_same),
        decide_c_initial(s1, t1, budget),
        check_preserves_c_initial(mu, nat_counter(1), term_algebra_bounded(f, 1), budget),
    ]
    goldens = [f"perfect 2 -> {render_term(perfect2)}"]
    return Fixture("intro_examples", "bounded trees, perfect embeddings, depth fuel",
                   reports, goldens,
                   measurings=[(prune1, {})])


GALLERY = {
    "nat_as_lists": build_nat_as_lists,
    "truth_monoid": build_truth_monoid,
    "pulling_back_lists": build_pulling_back_lists,
    "tree_pruning": build_tree_pruning,
    "intro_examples": build_intro_examples,
}


def build_fixture(name: str, budget: int = DEFAULT_BUDGET) -> Fixture:
    if name not in GALLERY:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(GALLERY)}")
    return GALLERY[name](budget)
