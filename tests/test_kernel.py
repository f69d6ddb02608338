import gc
import itertools
import pickle
import random

import pytest

from cind import kernel
from cind.carriers import render_term, render_value
from cind.kernel import (BOOL_OR, BOTTOM, NAT_PLUS, STAR, TRIV, TRUTH_AND,
                         TRUTH_OR, collapse_hom, finite_monoid,
                         functor_map, fvalues, hom, hom_check, identity_hom,
                         identity_nat, is_bottom, monoid_check, nat_apply,
                         nat_check_lax, nat_transform, node, shape_sig,
                         const_sig, unit_hom, unit_value,
                         zip_values)
from helpers import sampled_nat_check_lax


# ---------------------------------------------------------------------------
# hash-consed terms


def _deep_list(n, labels=(0, 1)):
    t = BOTTOM
    for i in range(n):
        t = node(labels[i % len(labels)], t)
    return t


def test_equal_nodes_are_one_object():
    assert node(1, node(0, BOTTOM), "s") is node(1, node(0, BOTTOM), "s")
    assert node(1, BOTTOM) is not node(0, BOTTOM)
    assert node(1, BOTTOM) != node(0, BOTTOM)
    assert kernel.Node(1, (BOTTOM,)) is node(1, BOTTOM)
    assert pickle.loads(pickle.dumps(node(1, node(0, BOTTOM)))) is node(1, node(0, BOTTOM))
    assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
    assert type(BOTTOM)() is BOTTOM


def test_deep_terms_hash_and_compare_without_recursion():
    deep = _deep_list(5000)
    assert isinstance(hash(deep), int)
    assert _deep_list(5000) is deep
    assert deep == _deep_list(5000)
    assert {deep: 1}[_deep_list(5000)] == 1
    rendered = "(1 (0 " * 2500 + "#b" + ")" * 5000
    assert repr(deep) == rendered
    assert render_term(deep) == rendered
    assert render_value((deep, "s")) == f"({rendered} s)"


def test_hash_clashes_keep_distinct_terms_apart():
    # hash(-1) == hash(-2) in CPython, so the intern keys of these two nodes
    # share a hash
    assert hash(-1) == hash(-2) and hash((-1, ("clash",))) == hash((-2, ("clash",)))
    a, b = node(-1, "clash"), node(-2, "clash")
    assert a is not b and a.label == -1 and b.label == -2
    assert node(-1, "clash") is a and node(-2, "clash") is b
    assert node(-1, a) is not node(-2, b) and node(-2, b) is node(-2, b)
    del a  # the first of the two to be built leaves; the second stays found
    gc.collect()
    assert node(-2, "clash") is b
    assert node(-1, "clash").label == -1


def test_nodes_reject_attribute_assignment():
    t = node(0, BOTTOM)
    with pytest.raises(AttributeError):
        t.label = 1
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.slots
    assert t.label == 0 and t is node(0, BOTTOM)


def test_unreachable_nodes_leave_the_intern_table():
    t = _deep_list(300, labels=("only here",))
    size, key = len(kernel._interned), (t.label, t.slots)
    assert kernel._interned[key]() is t
    del t
    gc.collect()
    assert key not in kernel._interned
    del key  # it holds the node's child, which leaves with it
    gc.collect()
    assert len(kernel._interned) <= size - 300


# ---------------------------------------------------------------------------
# monoid laws


def test_bool_or_is_a_monoid():
    assert monoid_check(BOOL_OR).ok


def test_nat_plus_sampled_is_clean():
    report = monoid_check(NAT_PLUS)
    assert report.ok
    assert report.coverage.startswith("sampled: ")


def test_non_associative_table_is_reported():
    # truncated-subtraction-like table: op(a, b) = a unless b wipes it
    table = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    m = finite_monoid("Sub", (0, 1), lambda a, b: table[a, b], 0)
    report = monoid_check(m)
    assert not report.ok
    # independent oracle: exhaust all 8 triples by hand
    bad = [(a, b, c) for a, b, c in itertools.product((0, 1), repeat=3)
           if table[table[a, b], c] != table[a, table[b, c]]]
    assert bad
    reported_triples = {v[1] for v in report.violations if v[0] == "assoc"}
    assert reported_triples == set(bad)
    assert (1, 0, 1) in reported_triples


def test_unit_violation_reported():
    table = {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    m = finite_monoid("Sub", (0, 1), lambda a, b: table[a, b], 0)
    kinds = {v[0] for v in monoid_check(m).violations}
    assert "unit-left" in kinds


def test_finite_monoid_rejects_open_tables():
    with pytest.raises(ValueError):
        finite_monoid("Open", (0, 1), lambda a, b: a + b, 0)


def test_hom_check_flip():
    flip = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"})
    assert hom_check(flip).ok


def test_hom_check_catches_non_hom():
    bad = hom(BOOL_OR, BOOL_OR, {0: 1, 1: 0})
    assert not hom_check(bad).ok


def test_hom_inverse_is_derived_and_a_wrong_one_raises():
    flip = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"})
    assert flip.is_injective() and flip.preimage("F") == "T"
    given = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"F": "T", "T": "F"})
    assert given.inverse == flip.inverse
    for wrong in ({"T": "T", "F": "F"}, {"F": "T"}, lambda y: y):
        with pytest.raises(ValueError, match="inverse disagrees"):
            hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse=wrong, name="flip")
    # no unique preimage: a collapse has none, and no inverse may be given
    assert not collapse_hom(BOOL_OR).is_injective()
    assert collapse_hom(BOOL_OR).preimage("e") is None
    with pytest.raises(ValueError, match="inverse disagrees"):
        hom(BOOL_OR, TRIV, {0: "e", 1: "e"}, inverse={"e": 0})


# ---------------------------------------------------------------------------
# functor action


def test_functor_map_applies_to_slots():
    sig = shape_sig(TRIV, 1)
    assert functor_map(sig, lambda x: x + 1, node("e", 3)) == node("e", 4)


def test_functor_map_fixes_bottom():
    sig = shape_sig(BOOL_OR, 2)
    assert is_bottom(functor_map(sig, lambda x: not x, BOTTOM))


def test_functor_map_const_ignores_function():
    sig = const_sig(BOOL_OR)
    assert functor_map(sig, lambda x: x + 100, 1) == 1


def test_functor_map_arity_mismatch():
    with pytest.raises(ValueError):
        functor_map(shape_sig(TRIV, 2), lambda x: x, node("e", 1))


def test_functor_laws_on_enumerated_values():
    payloads = (0, 1, 2)
    f = lambda x: (x + 1) % 3
    g = lambda x: (2 * x) % 3
    for sig in (shape_sig(TRIV, 1), shape_sig(BOOL_OR, 2), const_sig(BOOL_OR)):
        for v in fvalues(sig, payloads):
            assert functor_map(sig, lambda x: x, v) == v
            assert functor_map(sig, f, functor_map(sig, g, v)) == \
                functor_map(sig, lambda x: f(g(x)), v)


# ---------------------------------------------------------------------------
# zip and unit


def test_zip_multiplies_labels_and_pairs_slots():
    sig = shape_sig(NAT_PLUS, 2)
    out = zip_values(sig, node(2, "p", "q"), node(3, "s", "t"))
    assert out == node(5, ("p", "s"), ("q", "t"))


def _pair(x, y):
    return (x, y)


@pytest.mark.parametrize("f", [None, _pair], ids=["pairs", "f"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_zip_arity_mismatch_raises_on_either_argument(side, f):
    sig = shape_sig(TRIV, 2)
    good, bad = node("e", "x", "y"), node("e", "x")
    u, v = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(ValueError, match=r"^arity mismatch: shape\(Triv,2\) vs node with 1 slots$"):
        zip_values(sig, u, v, f)


def test_zip_bottom_absorbs():
    for sig, x in ((shape_sig(TRIV, 1), node("e", "x")), (shape_sig(BOOL_OR, 2), node(1, "x", "y"))):
        for u, v in ((BOTTOM, x), (x, BOTTOM), (BOTTOM, BOTTOM)):
            for f in (None, _pair):
                assert zip_values(sig, u, v, f) is BOTTOM


def test_zip_const_is_monoid_op():
    cases = ((BOOL_OR, 1, 0, 1), (BOOL_OR, 0, 1, 1), (TRUTH_AND, "T", "F", "F"),
             (NAT_PLUS, 0, 0, 0), (NAT_PLUS, 2, 3, 5), (NAT_PLUS, NAT_PLUS.unit, 7, 7),
             (NAT_PLUS, 2 ** 70, 1, 2 ** 70 + 1))
    for m, x, y, xy in cases:
        assert m.op(x, y) == xy
        for f in (None, _pair):
            assert zip_values(const_sig(m), x, y, f) == xy


def test_unit_values():
    assert unit_value(shape_sig(BOOL_OR, 2)) == node(0, STAR, STAR)
    assert unit_value(shape_sig(TRIV, 1)) == node("e", STAR)
    assert unit_value(const_sig(NAT_PLUS)) == 0


def _reassoc(p):
    (a, bc) = p
    (b, c) = bc
    return ((a, b), c)


@pytest.mark.parametrize("sig", [shape_sig(TRIV, 1), shape_sig(BOOL_OR, 1),
                                 shape_sig(BOOL_OR, 2), const_sig(BOOL_OR),
                                 shape_sig(BOOL_OR, 0)])
def test_zip_associative_up_to_reassociation(sig):
    xs, ys, zs = ("a", "b"), ("c", "d"), ("f", "g")
    for u in fvalues(sig, xs):
        for v in fvalues(sig, ys):
            for w in fvalues(sig, zs):
                left = zip_values(sig, zip_values(sig, u, v), w)
                right = functor_map(sig, _reassoc, zip_values(sig, u, zip_values(sig, v, w)))
                assert left == right


@pytest.mark.parametrize("sig", [shape_sig(TRIV, 1), shape_sig(BOOL_OR, 2),
                                 const_sig(BOOL_OR)])
def test_zip_unital(sig):
    for v in fvalues(sig, ("a", "b")):
        left = functor_map(sig, lambda p: p[1], zip_values(sig, unit_value(sig), v))
        right = functor_map(sig, lambda p: p[0], zip_values(sig, v, unit_value(sig)))
        assert left == v
        assert right == v


# ---------------------------------------------------------------------------
# signature morphisms


def _doubling():
    # unit-labelled successor nodes become two-slot nodes: x |-> (e, x, x)
    return nat_transform(shape_sig(TRIV, 1), shape_sig(BOOL_OR, 2),
                         unit_hom(BOOL_OR), (0, 0), name="double")


def _projection():
    # forget labels and keep the single slot: (x', x) |-> x
    return nat_transform(shape_sig(BOOL_OR, 1), shape_sig(TRIV, 1),
                         collapse_hom(BOOL_OR), (0,), name="project")


def test_nat_apply_duplicates_slots():
    assert nat_apply(_doubling(), node("e", "x")) == node(0, "x", "x")


def test_nat_apply_drops_labels():
    assert nat_apply(_projection(), node(1, "x")) == node("e", "x")


def test_nat_apply_preserves_bottom():
    assert is_bottom(nat_apply(_doubling(), BOTTOM))


def test_nat_transform_rejects_cross_kind():
    with pytest.raises(ValueError):
        nat_transform(const_sig(BOOL_OR), shape_sig(BOOL_OR, 1),
                      identity_hom(BOOL_OR), (0,))


def test_nat_check_lax_clean_for_valid_transform():
    assert nat_check_lax(_doubling()).ok
    assert nat_check_lax(_projection()).ok
    assert nat_check_lax(identity_nat(shape_sig(BOOL_OR, 2))).ok


def test_nat_check_lax_flags_non_hom_labels():
    from cind.kernel import MonoidHom, NatTransform
    bad_h = MonoidHom(BOOL_OR, BOOL_OR, {0: 1, 1: 0})
    bad = NatTransform(shape_sig(BOOL_OR, 1), shape_sig(BOOL_OR, 1), bad_h, (0,))
    report = nat_check_lax(bad)
    assert not report.ok
    assert any(v[0] == "zip" for v in report.violations)


def test_every_valid_transform_is_lax_on_small_carriers():
    mus = [_doubling(), _projection(),
           nat_transform(shape_sig(BOOL_OR, 2), shape_sig(BOOL_OR, 1),
                         identity_hom(BOOL_OR), (1,)),
           nat_transform(const_sig(TRUTH_AND), const_sig(TRUTH_OR),
                         hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}))]
    for mu in mus:
        assert nat_check_lax(mu).ok


def _small_monoids():
    """Every monoid on {0, .., n-1} with unit 0, for n = 1, 2, 3."""
    out = []
    for n in (1, 2, 3):
        elems = tuple(range(n))
        rest = [(a, b) for a in elems[1:] for b in elems[1:]]
        for combo in itertools.product(elems, repeat=len(rest)):
            table = dict(zip(rest, combo))
            m = finite_monoid(f"M{n}.{len(out)}", elems,
                              lambda a, b, t=table: t.get((a, b), a if b == 0 else b), 0)
            if monoid_check(m).ok:
                out.append(m)
    return out


def test_nat_check_lax_agrees_with_the_brute_force_reference():
    # random label maps between small monoids, most of them lawless, under
    # const signatures and shape arities 0-2; the reference tries every map
    # between two 2-element payload sets and every value pair over them
    monoids = _small_monoids()
    assert len(monoids) > 6
    rng = random.Random(19)
    failed = unit_only = 0
    for trial in range(1200):
        src, dst = rng.choice(monoids), rng.choice(monoids)
        h = hom(src, dst, {x: rng.choice(dst.elements) for x in src.elements})
        if trial % 4 == 0:
            mu = nat_transform(const_sig(src), const_sig(dst), h)
        else:
            a = rng.randint(0, 2)
            b = rng.randint(0, 2) if a else 0  # no slot to copy from arity 0
            mu = nat_transform(shape_sig(src, a), shape_sig(dst, b), h,
                               tuple(rng.randrange(a) for _ in range(b)))
        report = nat_check_lax(mu)
        reference = sampled_nat_check_lax(mu, ((0, 1), (0, 1)))
        assert report.ok == reference.ok, (mu, h.mapping)
        kinds = {w[0] for w in report.witnesses}
        assert kinds == {w[0] for w in reference.witnesses}
        failed += not report.ok
        unit_only += kinds == {"unit"}
    assert 300 < failed < 1100 and unit_only > 20


def test_nat_check_lax_over_builtin_nat_checks_the_listed_labels():
    # a table out of builtin nat that does not list 0: the reference's
    # sample 0, 1, 2 meets an unmapped label, the check reads what is listed
    sig = shape_sig(NAT_PLUS, 1)
    doubling = nat_transform(sig, sig, hom(NAT_PLUS, NAT_PLUS, {1: 2, 2: 4}), (0,))
    with pytest.raises(ValueError):
        sampled_nat_check_lax(doubling)
    report = nat_check_lax(doubling)
    assert report.ok and report.coverage == "sampled: labels 1, 2"
    skewed = nat_transform(sig, sig, hom(NAT_PLUS, NAT_PLUS, {1: 2, 2: 5}), (0,))
    assert nat_check_lax(skewed).violations == (("zip", (1, 1), 5, 4),)
    assert nat_check_lax(identity_nat(sig)).coverage == "sampled: labels 0, 1, 2"


def test_builtin_carrier_declines_enumeration():
    sig = shape_sig(NAT_PLUS, 1)
    with pytest.raises(ValueError):
        fvalues(sig, ("x",))
    labelled = fvalues(sig, ("x",), labels=(0, 1))
    assert node(1, "x") in labelled
    from cind.carriers import term_algebra_bounded, terms_up_to
    with pytest.raises(ValueError):
        terms_up_to(sig, 1)
    bounded = term_algebra_bounded(sig, 2)
    assert bounded.elements is None
    elems, sampled = bounded.carrier(2, labels=(0, 1))
    assert sampled == ("terms of depth <= 2", "labels 0, 1") and len(elems) == 7
    assert bounded.alpha(node(7, node(9, BOTTOM))) == node(7, node(9, BOTTOM))

