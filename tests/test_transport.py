import itertools
import random
from dataclasses import dataclass
from typing import Any

import pytest

from cind.carriers import (Coalgebra, coalgebra, coalgebras_identical, finite_algebra,
                           initial_term_algebra, nat_counter, perfect_shape,
                           term_algebra_bounded, term_unfold_coalgebra,
                           tensor_coalgebra, unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, NAT_PLUS, STAR, TRIV, TRUTH_AND,
                         TRUTH_OR, NatTransform, Node, collapse_hom,
                         const_sig, hom, identity_hom, identity_nat,
                         is_bottom, nat_transform, node, shape_sig, unit_hom)
from cind.transport import (AdjointUnsupportedError, expand_algebra,
                            pullback_algebra, pushforward_coalgebra,
                            pushout_algebra, pushout_transpose,
                            pushout_untranspose, restrict_coalgebra,
                            restriction_inclusion, restriction_untranspose)

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)

MU_LIST = nat_transform(F1, G1, unit_hom(BOOL_OR), (0,), name="mu")
NU_LIST = nat_transform(G1, F1, collapse_hom(BOOL_OR), (0,), name="nu")
MU_TREE = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
FLIP = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"})
MU_FLIP = nat_transform(const_sig(TRUTH_AND), const_sig(TRUTH_OR), FLIP, name="flip")


def _numeral(n):
    t = BOTTOM
    for _ in range(n):
        t = node("e", t)
    return t


def _elist(n):
    t = BOTTOM
    for _ in range(n):
        t = node(0, t)
    return t


# ---------------------------------------------------------------------------
# pullback / pushforward


def test_pullback_gives_length_counting_structure():
    # pulling the numeral algebra back along the label-forgetting morphism
    # interprets any cons as a successor
    numerals = initial_term_algebra(F1)
    pulled = pullback_algebra(NU_LIST, numerals)
    assert pulled.sig == G1
    assert pulled.alpha(BOTTOM) == _numeral(0)
    assert pulled.alpha(node(1, _numeral(2))) == _numeral(3)
    assert pulled.alpha(node(0, _numeral(2))) == _numeral(3)


def test_pullback_of_trees_duplicates_the_slot():
    trees = initial_term_algebra(H2)
    pulled = pullback_algebra(MU_TREE, trees)
    t = node(1, BOTTOM, BOTTOM)
    assert pulled.alpha(node("e", t)) == node(0, t, t)


def test_pullback_identity_changes_nothing():
    bounded = term_algebra_bounded(G1, 2)
    pulled = pullback_algebra(identity_nat(G1), bounded)
    for v in [BOTTOM, node(1, _elist(1)), node(0, _elist(2))]:
        assert pulled.alpha(v) == bounded.alpha(v)


def test_pullback_signature_mismatch():
    with pytest.raises(ValueError):
        pullback_algebra(MU_LIST, term_algebra_bounded(F1, 1))


def test_pushforward_of_counter_is_depth_fuel():
    pushed = pushforward_coalgebra(MU_TREE, nat_counter(2))
    assert coalgebras_identical(pushed, perfect_shape(H2, 2))


def test_pushforward_of_unit_is_unit():
    assert coalgebras_identical(pushforward_coalgebra(MU_LIST, unit_coalgebra(F1)),
                                unit_coalgebra(G1))


def test_pushforward_relabels_list_states():
    dual = term_unfold_coalgebra(F1, 2)
    pushed = pushforward_coalgebra(MU_LIST, dual)
    assert pushed.states == dual.states
    for s in dual.states:
        v = pushed.chi[s]
        if not is_bottom(v):
            assert v.label == 0


# ---------------------------------------------------------------------------
# pushout along a label hom


def test_pushout_swaps_truth_interpretations():
    a3 = finite_algebra(const_sig(TRUTH_AND), ("ta", "fa", "other"),
                        lambda x: {"T": "ta", "F": "fa"}[x], "A3")
    p = pushout_algebra(FLIP, a3)
    assert p.classes == ((("alg", "ta"), ("mon", "F")),
                         (("alg", "fa"), ("mon", "T")),
                         (("alg", "other"),))
    assert p.algebra.alpha("F") == ("alg", "ta")
    assert p.embed("other") == ("alg", "other")


def test_pushout_along_identity_recovers_the_monoid():
    am = finite_algebra(const_sig(BOOL_OR), (0, 1), lambda x: x, "AM")
    p = pushout_algebra(identity_hom(BOOL_OR), am)
    assert len(p.classes) == 2
    assert all(len(cls) == 2 for cls in p.classes)


def test_pushout_from_trivial_labels():
    a1 = finite_algebra(const_sig(TRIV), ("a",), lambda x: "a", "A1")
    p = pushout_algebra(unit_hom(BOOL_OR), a1)
    # the single element merges with the unit label; the other label stays
    assert (("alg", "a"), ("mon", 0)) in p.classes
    assert (("mon", 1),) in p.classes


def test_pushout_transposes_roundtrip():
    rng = random.Random(3)
    from cind.oracle import random_algebra, raw_lawful_tables
    a = random_algebra(const_sig(TRUTH_AND), 3, rng)
    b = random_algebra(const_sig(TRUTH_OR), 2, rng)
    p = pushout_algebra(FLIP, a)
    pulled = pullback_algebra(MU_FLIP, b)

    def morphisms(x, y):
        return [{e: t[STAR, e] for e in x.elements}
                for t in raw_lawful_tables(unit_coalgebra(x.sig), x, y)]

    fs = morphisms(a, pulled)
    gs = morphisms(p.algebra, b)
    assert len(fs) == len(gs)
    for f in fs:
        g = pushout_transpose(p, b, f)
        assert pushout_untranspose(p, g) == f
        assert g in gs


# ---------------------------------------------------------------------------
# leafwise expansion


def test_expansion_of_numerals_is_perfect_trees():
    n2 = term_algebra_bounded(F1, 2)
    e = expand_algebra(MU_TREE, n2)
    leaf = node(0, BOTTOM, BOTTOM)
    assert e.embed(_numeral(2)) == node(0, leaf, leaf)
    assert e.embed(_numeral(0)) == BOTTOM
    assert e.algebra.bound == 2


def test_expansion_of_lists_is_equilevel_trees():
    gn = shape_sig(NAT_PLUS, 1)
    hn = shape_sig(NAT_PLUS, 2)
    mu = nat_transform(gn, hn, identity_hom(NAT_PLUS), (0, 0), name="dup")
    lists = initial_term_algebra(gn)
    e = expand_algebra(mu, lists)
    t = node(3, node(5, BOTTOM))
    five = node(5, BOTTOM, BOTTOM)
    assert e.embed(t) == node(3, five, five)
    assert e.algebra.tag == "initial"


def test_expansion_embeds_a_deep_term():
    # 1 500 levels, above the default recursion limit of 1 000
    e = expand_algebra(MU_LIST, initial_term_algebra(F1))
    assert e.embed(_numeral(1500)) is _elist(1500)


def test_expansion_embed_is_a_morphism_into_the_pullback():
    n2 = term_algebra_bounded(F1, 2)
    e = expand_algebra(MU_TREE, n2)
    back = pullback_algebra(MU_TREE, e.algebra)
    from cind.kernel import functor_map, fvalues
    emb = e.embed
    for v in fvalues(F1, n2.elements):
        assert emb(n2.alpha(v)) == back.alpha(functor_map(F1, emb, v))


def test_expansion_requires_term_algebras():
    rng = random.Random(0)
    from cind.oracle import random_algebra
    with pytest.raises(AdjointUnsupportedError):
        expand_algebra(MU_TREE, random_algebra(F1, 2, rng))


# reference normaliser: expansion via single steps on an explicit leaf
# marker, so the order in which leaves expand can be chosen at random
@dataclass(frozen=True, slots=True)
class _Leaf:
    term: Any


def _leaf_positions(t, prefix=()):
    if isinstance(t, _Leaf):
        yield prefix
    elif not is_bottom(t):
        for i, s in enumerate(t.slots):
            yield from _leaf_positions(s, prefix + (i,))


def _replace(t, pos, sub):
    if not pos:
        return sub
    i = pos[0]
    return Node(t.label, tuple(_replace(s, pos[1:], sub) if j == i else s
                               for j, s in enumerate(t.slots)))


def _expand_one(mu: NatTransform, t, pos):
    inner = t
    for i in pos:
        inner = inner.slots[i]
    src = inner.term
    if is_bottom(src):
        return _replace(t, pos, BOTTOM)
    expanded = Node(mu.hom.apply(src.label),
                    tuple(_Leaf(src.slots[i]) for i in mu.reindex))
    return _replace(t, pos, expanded)


def expand_any_order(mu: NatTransform, t, rng=None):
    """Normalise Leaf(t) by repeatedly expanding one leaf occurrence; the
    choice of occurrence is irrelevant to the result."""
    # dummy root so positions address the initial leaf uniformly
    root = Node(None, (_Leaf(t),))
    while True:
        positions = list(_leaf_positions(root))
        if not positions:
            break
        pos = positions[0] if rng is None else rng.choice(positions)
        root = _expand_one(mu, root, pos)
    return root.slots[0]


def test_expansion_order_independent():
    gn = shape_sig(NAT_PLUS, 1)
    hn = shape_sig(NAT_PLUS, 2)
    mu = nat_transform(gn, hn, identity_hom(NAT_PLUS), (0, 0), name="dup")

    def of_list(xs):
        t = BOTTOM
        for x in reversed(xs):
            t = node(x, t)
        return t

    reference = expand_algebra(mu, initial_term_algebra(gn))
    for seed in range(6):
        rng = random.Random(seed)
        for xs in ([3, 5], [1, 2, 3, 4], [], [7]):
            t = of_list(xs)
            assert expand_any_order(mu, t, rng) == reference.embed(t)


# ---------------------------------------------------------------------------
# restriction (greatest lifting sub-machine)


def test_restriction_keeps_unit_labelled_lists():
    dual = term_unfold_coalgebra(G1, 2)
    sub = restrict_coalgebra(MU_LIST, dual)
    assert set(sub.kept) == {_elist(0), _elist(1), _elist(2)}
    # the lifted machine unfolds like a counter
    assert sub.coalg.chi[_elist(2)] == node("e", _elist(1))


def test_restriction_drops_nonunit_self_loop():
    m = coalgebra(G1, ("s",), {"s": node(1, "s")})
    assert restrict_coalgebra(MU_LIST, m).kept == ()


def test_restriction_keeps_everything_pushed_forward():
    for d in (nat_counter(3), unit_coalgebra(F1), term_unfold_coalgebra(F1, 2)):
        pushed = pushforward_coalgebra(MU_LIST, d)
        sub = restrict_coalgebra(MU_LIST, pushed)
        assert sub.kept == pushed.states


def test_restriction_requires_injective_labels():
    m = coalgebra(F1, ("s",), {"s": node("e", "s")})
    pushed = pushforward_coalgebra(NU_LIST, term_unfold_coalgebra(G1, 1))
    with pytest.raises(AdjointUnsupportedError):
        restrict_coalgebra(NU_LIST, pushed)


def test_restriction_requires_surjective_reindex():
    drop = nat_transform(H2, G1, identity_hom(BOOL_OR), (0,), name="drop")
    m = coalgebra(G1, ("s",), {"s": node(0, "s")})
    with pytest.raises(AdjointUnsupportedError):
        restrict_coalgebra(drop, m)


def test_restriction_checks_duplicate_slots_agree():
    m = coalgebra(H2, ("s", "t"), {"s": node(0, "s", "t"), "t": BOTTOM})
    sub = restrict_coalgebra(MU_TREE, m)
    assert sub.kept == ("t",)  # the branching state has unequal slots


def test_restriction_inclusion_is_a_morphism():
    dual = term_unfold_coalgebra(G1, 2)
    sub = restrict_coalgebra(MU_LIST, dual)
    inc = restriction_inclusion(sub)
    assert inc == {s: s for s in sub.kept}
    empty = restrict_coalgebra(MU_LIST, coalgebra(G1, ("s",), {"s": node(1, "s")}))
    assert restriction_inclusion(empty) == {}


def test_restriction_is_maximal():
    # no strict superset of the kept states admits a lifted unfolding
    rng = random.Random(9)
    from cind.oracle import random_coalgebra
    for trial in range(12):
        c = random_coalgebra(G1, rng.randint(2, 8), rng)
        sub = restrict_coalgebra(MU_LIST, c)
        kept = set(sub.kept)
        extra = [s for s in c.states if s not in kept]
        for r in range(1, len(extra) + 1):
            for added in itertools.combinations(extra, r):
                candidate = kept | set(added)

                def ok(s):
                    v = c.chi[s]
                    if is_bottom(v):
                        return True
                    return v.label == 0 and all(x in candidate for x in v.slots)

                assert not all(ok(s) for s in candidate)


def _naive_restriction(mu, c):
    """The greatest lifting set by its definition: drop every state whose
    unfolding does not lift or names a dropped state, until none is left."""
    preimage = {mu.hom.apply(x): x for x in mu.source.monoid.elements}

    def lifts(v, kept):
        if c.sig.kind == "const":
            return v in preimage
        if is_bottom(v):
            return True
        return (v.label in preimage and all(s in kept for s in v.slots)
                and all(v.slots[j] == v.slots[k]
                        for j, k in itertools.combinations(range(len(v.slots)), 2)
                        if mu.reindex[j] == mu.reindex[k]))

    kept = set(c.states)
    changed = True
    while changed:
        changed = False
        for s in reversed(c.states):
            if s in kept and not lifts(c.chi[s], kept):
                kept.discard(s)
                changed = True
    return tuple(s for s in c.states if s in kept)


def _random_machine(sig, n, rng):
    """Mostly unit labels and mostly equal slots, so that some states lift."""
    chi = {}
    for s in range(n):
        if sig.kind == "const":
            chi[s] = rng.choice(sig.monoid.elements)
        elif rng.random() < 0.15:
            chi[s] = BOTTOM
        else:
            first = rng.randrange(n)
            slots = tuple(first if rng.random() < 0.8 else rng.randrange(n)
                          for _ in range(sig.arity))
            chi[s] = node(0 if rng.random() < 0.85 else 1, *slots)
    return coalgebra(sig, range(n), chi)


CONST_UNIT = nat_transform(const_sig(TRIV), const_sig(BOOL_OR), unit_hom(BOOL_OR))


@pytest.mark.parametrize("mu", [CONST_UNIT, MU_FLIP, MU_LIST, MU_TREE])
def test_restriction_matches_the_naive_greatest_fixpoint(mu):
    rng = random.Random(41)
    for _ in range(40):
        c = _random_machine(mu.target, rng.randint(1, 30), rng)
        assert restrict_coalgebra(mu, c).kept == _naive_restriction(mu, c)


def test_restriction_drops_a_state_that_names_an_unknown_state():
    # built directly, since coalgebra() rejects such machines
    c = Coalgebra(G1, ("s", "t"), {"s": node(0, "ghost"), "t": node(0, "s")})
    assert restrict_coalgebra(MU_LIST, c).kept == ()


@pytest.mark.parametrize("end", [BOTTOM, node(1, 1999)])
def test_restriction_of_a_long_chain(end):
    # 0 -> 1 -> ... -> 1999, whose last state lifts or does not
    chi = {s: node(0, s + 1) for s in range(1999)}
    chi[1999] = end
    c = coalgebra(G1, range(2000), chi)
    kept = restrict_coalgebra(MU_LIST, c).kept
    assert kept == _naive_restriction(MU_LIST, c)
    assert len(kept) == (2000 if end is BOTTOM else 0)


def test_expansion_of_a_bounded_algebra_is_not_the_left_adjoint():
    # T_1^G is not mu_!(T_1^F): into the tree algebra that marks equal
    # children, no morphism leaves the expansion, yet one leaves T_1^F
    from cind.oracle import raw_lawful_tables
    t1, t2 = shape_sig(TRIV, 1), shape_sig(TRIV, 2)
    mu = nat_transform(t1, t2, identity_hom(TRIV), (0, 0), name="perfect")
    a = term_algebra_bounded(t1, 1)
    b = finite_algebra(t2, (0, 1), lambda v: 0 if is_bottom(v)
                       else int(v.slots[0] == v.slots[1]), "eq")
    expanded = expand_algebra(mu, a).algebra
    assert expanded.elements == term_algebra_bounded(t2, 1).elements
    assert len(raw_lawful_tables(unit_coalgebra(t2), expanded, b)) == 0
    assert len(raw_lawful_tables(unit_coalgebra(t1), a, pullback_algebra(mu, b))) == 1


def test_restriction_transposes_roundtrip():
    rng = random.Random(17)
    from cind.oracle import coalgebra_morphisms, random_coalgebra
    for _ in range(6):
        d = random_coalgebra(F1, rng.randint(1, 4), rng)
        c = random_coalgebra(G1, rng.randint(1, 4), rng)
        sub = restrict_coalgebra(MU_LIST, c)
        fs = coalgebra_morphisms(d, sub.coalg)
        gs = coalgebra_morphisms(pushforward_coalgebra(MU_LIST, d), c)
        assert len(fs) == len(gs)
        for f in fs:
            assert f in gs
            assert restriction_untranspose(sub, d, f) == f


# ---------------------------------------------------------------------------
# strictness of pushforward


@pytest.mark.parametrize("mu,source_sig", [(MU_LIST, F1), (MU_TREE, F1)])
def test_pushforward_strictly_preserves_products(mu, source_sig):
    rng = random.Random(31)
    from cind.oracle import random_coalgebra
    machines = [unit_coalgebra(source_sig), nat_counter(2),
                random_coalgebra(source_sig, 3, rng),
                random_coalgebra(source_sig, 4, rng)]
    for d, c in itertools.product(machines, repeat=2):
        left = pushforward_coalgebra(mu, tensor_coalgebra(d, c))
        right = tensor_coalgebra(pushforward_coalgebra(mu, d),
                                 pushforward_coalgebra(mu, c))
        assert coalgebras_identical(left, right)
