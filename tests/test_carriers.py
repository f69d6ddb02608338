import itertools

import pytest

from cind.carriers import (Algebra, coalgebra, coalgebras_identical, fold,
                           initial_term_algebra, nat_counter, perfect_shape,
                           render_term, shape_coalgebra, tensor_coalgebra,
                           term_algebra_bounded, term_as_coalgebra,
                           term_depth, term_unfold_coalgebra, terms_up_to,
                           truncate_term, unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, NAT_PLUS, STAR, TRIV, const_sig,
                         finite_monoid, functor_map, fvalues, is_bottom, node,
                         shape_sig)
from cind.measuring import check_law, from_morphism

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)


def _numeral(n):
    t = BOTTOM
    for _ in range(n):
        t = node("e", t)
    return t


# ---------------------------------------------------------------------------
# bounded term algebras


def test_unary_bound_two_is_saturating_counter():
    a = term_algebra_bounded(F1, 2)
    assert a.elements == (_numeral(0), _numeral(1), _numeral(2))
    # successor saturates at the bound
    assert a.alpha(node("e", _numeral(2))) == _numeral(2)
    assert a.alpha(node("e", _numeral(1))) == _numeral(2)
    assert a.alpha(BOTTOM) == _numeral(0)


def test_binary_bound_one_carrier_and_truncation():
    a = term_algebra_bounded(H2, 1)
    assert set(a.elements) == {BOTTOM, node(0, BOTTOM, BOTTOM), node(1, BOTTOM, BOTTOM)}
    deep = node(1, BOTTOM, BOTTOM)
    assert a.alpha(node(0, deep, deep)) == node(0, BOTTOM, BOTTOM)


def test_list_bound_three_truncates_cons_to_prefix():
    a = term_algebra_bounded(G1, 3)

    def as_list(t):
        out = []
        while not is_bottom(t):
            out.append(t.label)
            t = t.slots[0]
        return out

    def of_list(xs):
        t = BOTTOM
        for x in reversed(xs):
            t = node(x, t)
        return t

    assert a.alpha(node(1, of_list([0, 1, 0]))) == of_list([1, 0, 1])
    assert as_list(a.alpha(node(1, of_list([0, 1])))) == [1, 0, 1]
    assert all(len(as_list(t)) <= 3 for t in a.elements)


def test_bounded_carrier_sizes():
    # depth <= 2 binary trees over a two-element label set
    assert len(term_algebra_bounded(H2, 2).elements) == 19
    assert len(term_algebra_bounded(shape_sig(BOOL_OR, 0), 1).elements) == 3


def _terms_by_layers(arity, depth, labels):
    """Reference enumerator: a later layer takes, per label, the arity-tuples
    over the terms so far that use a term of the last layer, in
    lexicographic order."""
    def using(old, new, arity):
        if arity == 0:
            return iter(())
        return itertools.chain(
            ((x,) + rest for x in old for rest in using(old, new, arity - 1)),
            itertools.product(new, *[old + new] * (arity - 1)))

    out, last = [BOTTOM], 0
    for level in range(depth):
        old, new = out[:last], out[last:]
        layer = [node(m, *combo) for m in labels
                 for combo in (itertools.product(out, repeat=arity) if level == 0
                               else using(old, new, arity))]
        last = len(out)
        out.extend(layer)
        if not layer:
            break
    return tuple(out)


def test_terms_up_to_agrees_with_a_layered_enumerator():
    max3 = finite_monoid("Max3", (0, 1, 2), max, 0)
    cases = [(max3, labels) for labels in (None, (0, 1, 2), (2, 1, 0), (0, 1), (1,))]
    cases += [(BOOL_OR, None), (BOOL_OR, (1, 0)), (NAT_PLUS, (0, 1, 2))]
    cap = 3000  # terms per case
    for monoid, labels in cases:
        listed = monoid.elements if labels is None else labels
        for arity in range(4):
            sig, size = shape_sig(monoid, arity), 1
            for depth in range(6):
                assert terms_up_to(sig, depth, labels) == _terms_by_layers(arity, depth, listed)
                size = 1 + len(listed) * size ** arity  # terms of depth <= depth + 1
                if size > cap:
                    break


def test_truncate_idempotent_and_fold_agrees():
    sums = Algebra(G1, lambda v: 0 if is_bottom(v) else v.label + v.slots[0])
    for t in terms_up_to(G1, 3):
        n = term_depth(t)
        assert truncate_term(truncate_term(t, 2), 2) == truncate_term(t, 2)
        assert truncate_term(t, n) == t
        assert fold(sums, truncate_term(t, 3)) == fold(sums, t)


# ---------------------------------------------------------------------------
# fold


def test_fold_counts_numerals():
    nats = Algebra(F1, lambda v: 0 if is_bottom(v) else v.slots[0] + 1,
                   tag="derived", name="nat")
    assert fold(nats, _numeral(2)) == 2
    assert fold(nats, BOTTOM) == 0


def test_fold_sums_tree_labels():
    sig = shape_sig(NAT_PLUS, 2)
    sums = Algebra(sig, lambda v: 0 if is_bottom(v) else v.label + sum(v.slots),
                   tag="derived", name="sum")
    t = node(3, node(1, BOTTOM, BOTTOM), BOTTOM)
    assert fold(sums, t) == 4


# ---------------------------------------------------------------------------
# walks that keep their own containers: the results of structural
# recursion, at any depth

DEEP = 1500  # above the default recursion limit of 1 000


def _depth_by_recursion(t):
    return 0 if is_bottom(t) else 1 + max(map(_depth_by_recursion, t.slots), default=0)


def _truncate_by_recursion(t, n):
    if is_bottom(t) or n <= 0:
        return BOTTOM
    return node(t.label, *(_truncate_by_recursion(s, n - 1) for s in t.slots))


def _fold_by_recursion(b, t):
    if is_bottom(t):
        return b.alpha(BOTTOM)
    return b.alpha(node(t.label, *(_fold_by_recursion(b, s) for s in t.slots)))


def test_term_walks_agree_with_structural_recursion():
    for sig, depth in ((H2, 2), (G1, 4), (shape_sig(BOOL_OR, 0), 1), (shape_sig(BOOL_OR, 3), 1)):
        sizes = Algebra(sig, lambda v: 1 if is_bottom(v) else 1 + v.label + sum(v.slots))
        for t in terms_up_to(sig, depth):
            assert term_depth(t) == _depth_by_recursion(t)
            assert fold(sizes, t) == _fold_by_recursion(sizes, t)
            for n in range(-1, depth + 2):
                assert truncate_term(t, n) is _truncate_by_recursion(t, n)


def test_term_depth_of_a_deep_term():
    assert term_depth(_numeral(DEEP)) == DEEP


def test_truncate_term_of_a_deep_term():
    deep = _numeral(DEEP)
    assert truncate_term(deep, DEEP) is deep
    assert truncate_term(deep, DEEP - 1) is _numeral(DEEP - 1)
    assert truncate_term(deep, 3) is _numeral(3)


def test_fold_of_a_deep_term():
    nats = Algebra(F1, lambda v: 0 if is_bottom(v) else v.slots[0] + 1,
                   tag="derived", name="nat")
    assert fold(nats, _numeral(DEEP)) == DEEP


def test_fold_evaluates_each_distinct_subterm_once():
    # a perfect tree of depth 16 has 17 distinct subterms but 2^17 - 1 paths
    sig = shape_sig(NAT_PLUS, 2)
    perfect = BOTTOM
    for _ in range(16):
        perfect = node(1, perfect, perfect)
    calls = []
    sums = Algebra(sig, lambda v: calls.append(v) or (0 if is_bottom(v) else v.label + sum(v.slots)))
    assert fold(sums, perfect) == 2 ** 16 - 1
    assert len(calls) == 17
    assert term_depth(perfect) == 16


def test_fold_on_unique_morphism_out_of_terms():
    # every structure-respecting table out of an initial segment of terms is
    # the fold: enumerate all candidates and filter by the defining equation
    terms3 = terms_up_to(F1, 3)
    terms2 = terms_up_to(F1, 2)
    initial = initial_term_algebra(F1)
    import random
    rng = random.Random(5)
    from cind.oracle import random_algebra
    for size in (1, 2, 3):
        b = random_algebra(F1, size, rng)
        expected = {t: fold(b, t) for t in terms3}
        matches = []
        for combo in itertools.product(b.elements, repeat=len(terms3)):
            f = dict(zip(terms3, combo))
            ok = all(f[initial.alpha(v)] == b.alpha(functor_map(F1, f.__getitem__, v))
                     for v in fvalues(F1, terms2))
            if ok:
                matches.append(f)
        assert matches == [expected]


# ---------------------------------------------------------------------------
# coalgebras


def test_tensor_of_counters():
    two, three = nat_counter(2), nat_counter(3)
    prod = tensor_coalgebra(two, three)
    assert prod.chi[(2, 3)] == node("e", (1, 2))
    for k in range(4):
        assert is_bottom(prod.chi[(0, k)])


def test_tensor_signature_mismatch():
    with pytest.raises(ValueError):
        tensor_coalgebra(nat_counter(1), term_unfold_coalgebra(G1, 1))


def test_tensor_unit_is_identity_up_to_pairing():
    c = nat_counter(2)
    u = unit_coalgebra(F1)
    prod = tensor_coalgebra(u, c)
    for s in c.states:
        assert functor_map(F1, lambda p: p[1], prod.chi[(STAR, s)]) == c.chi[s]


def test_tensor_self_loops_multiply_labels():
    sig = G1
    m1 = coalgebra(sig, ("s",), {"s": node(1, "s")})
    m2 = coalgebra(sig, ("t",), {"t": node(1, "t")})
    prod = tensor_coalgebra(m1, m2)
    assert prod.states == (("s", "t"),)
    assert prod.chi[("s", "t")].label == 1


def test_tensor_associative_up_to_reassociation():
    machines = [nat_counter(1), nat_counter(2), unit_coalgebra(F1)]
    for a, b, c in itertools.product(machines, repeat=3):
        left = tensor_coalgebra(tensor_coalgebra(a, b), c)
        right = tensor_coalgebra(a, tensor_coalgebra(b, c))
        for x in a.states:
            for y in b.states:
                for z in c.states:
                    lv = left.chi[((x, y), z)]
                    rv = right.chi[(x, (y, z))]
                    assert functor_map(F1, lambda p: ((p[0][0], p[0][1]), p[1]), lv) == \
                        functor_map(F1, lambda p: ((p[0], p[1][0]), p[1][1]), rv)


def test_unit_coalgebra_values():
    assert unit_coalgebra(F1).chi[STAR] == node("e", STAR)
    assert unit_coalgebra(H2).chi[STAR] == node(0, STAR, STAR)
    assert unit_coalgebra(const_sig(BOOL_OR)).chi[STAR] == 0


def test_coalgebra_rejects_unknown_states():
    with pytest.raises(ValueError):
        coalgebra(F1, ("a",), {"a": node("e", "ghost")})


# ---------------------------------------------------------------------------
# named gallery carriers


def test_nat_counter_unfolding():
    c = nat_counter(3)
    assert is_bottom(c.chi[0])
    assert c.chi[2] == node("e", 1)


def test_shape_coalgebra_counts():
    assert len(shape_coalgebra(shape_sig(TRIV, 2), 2).states) == 5
    assert len(shape_coalgebra(H2, 2).states) == 5  # labels pinned to the unit


def test_perfect_shape_states_and_unfolding():
    p = perfect_shape(H2, 2)
    assert p.states == (0, 1, 2)
    assert p.chi[2] == node(0, 1, 1)


def test_term_as_coalgebra_collects_subterms():
    t = node(1, node(0, BOTTOM, BOTTOM), BOTTOM)
    m = term_as_coalgebra(H2, t)
    assert set(m.states) == {t, node(0, BOTTOM, BOTTOM), BOTTOM}
    assert m.chi[t] == t


def test_builtin_carriers_dispatch():
    assert nat_counter(2).states == (0, 1, 2)
    assert term_algebra_bounded(F1, 1).elements == (_numeral(0), _numeral(1))
    assert len(term_algebra_bounded(H2, 1).elements) == 3
    assert len(term_algebra_bounded(G1, 2).elements) == 7
    assert len(shape_coalgebra(H2, 1).states) == 2


# ---------------------------------------------------------------------------
# rendering


def test_render_term():
    assert render_term(BOTTOM) == "#b"
    assert render_term(node(5, node(1, BOTTOM, BOTTOM), BOTTOM)) == "(5 (1 #b #b) #b)"
    assert render_term(node("e", BOTTOM)) == "(e #b)"


def test_morphism_checks():
    nats = Algebra(F1, lambda v: 0 if is_bottom(v) else v.slots[0] + 1,
                   tag="derived", name="nat")
    bounded = term_algebra_bounded(F1, 2)
    f = {t: min(fold(nats, t), 9) for t in bounded.elements}
    # saturation breaks it
    assert not check_law(from_morphism(f, bounded, nats, verify=False)).ok
    g = {i: min(i + 1, 2) for i in range(3)}
    two = nat_counter(2)
    assert not coalgebras_identical(two, nat_counter(3))
    assert coalgebras_identical(two, nat_counter(2))
