import itertools
import random

import pytest

from cind.carriers import (Algebra, coalgebra, finite_algebra, fold,
                           initial_term_algebra, nat_counter,
                           term_algebra_bounded, term_as_coalgebra,
                           term_unfold_coalgebra, tensor_coalgebra,
                           unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, NAT_PLUS, STAR, TRIV, TRUTH_AND,
                         TRUTH_OR, collapse_hom, const_sig, hom,
                         identity_hom, identity_nat, is_bottom, nat_transform,
                         node, shape_sig, unit_hom, zip_values)
from cind.measuring import (Measuring, MeasuringLawError,
                            canonical_const_measuring,
                            canonical_term_measuring, check_law, compose,
                            embed_measuring, from_morphism, measuring_to_json,
                            measurings_equal, pull_measuring, push_measuring,
                            table_measuring, to_morphism)
from cind.oracle import (check_respects_composition, random_algebra,
                         random_coalgebra, raw_lawful_tables)
from cind.transport import (expand_algebra, pullback_algebra,
                            pushforward_coalgebra)

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)
MU_LIST = nat_transform(F1, G1, unit_hom(BOOL_OR), (0,), name="mu")
NU_LIST = nat_transform(G1, F1, collapse_hom(BOOL_OR), (0,), name="nu")


def _numeral(n):
    t = BOTTOM
    for _ in range(n):
        t = node("e", t)
    return t


def _blist(xs):
    t = BOTTOM
    for x in reversed(xs):
        t = node(x, t)
    return t


# ---------------------------------------------------------------------------
# check_law


def test_zip_measuring_is_lawful():
    l2 = term_algebra_bounded(G1, 2)
    zipm = canonical_term_measuring(term_unfold_coalgebra(G1, 2), l2,
                                    initial_term_algebra(G1))
    report = check_law(zipm)
    assert report.ok and report.coverage == "exhaustive"


def test_constant_map_fails_at_bottom_clause():
    l1 = term_algebra_bounded(G1, 1)
    bad = Measuring(term_unfold_coalgebra(G1, 1), l1, l1,
                    lambda c, a: node(1, BOTTOM))
    report = check_law(bad)
    assert not report.ok
    c, v, got, expected = report.violations[0]
    assert is_bottom(v) and is_bottom(expected)


def test_morphism_as_measuring_is_lawful():
    n2 = term_algebra_bounded(F1, 2)
    nats = Algebra(F1, lambda v: 0 if is_bottom(v) else min(v.slots[0] + 1, 2),
                   tag="derived", name="sat")
    f = {t: fold(nats, t) for t in n2.elements}
    phi = from_morphism(f, n2, nats)
    assert check_law(phi).ok


def test_check_law_budget_flags_partial():
    l2 = term_algebra_bounded(G1, 2)
    zipm = canonical_term_measuring(term_unfold_coalgebra(G1, 2), l2, l2)
    report = check_law(zipm, budget=10)
    assert report.coverage.startswith("sampled: ")
    assert report.checked <= 15 + 10  # one state's worth at most over


def test_check_law_passes_exactly_the_raw_oracles_tables():
    # every table of each seeded instance, lawful or not: the law check must
    # pass those the raw filter keeps and fail all the others
    rng = random.Random(1010)
    sigs = [const_sig(BOOL_OR), const_sig(TRUTH_AND)] + [shape_sig(BOOL_OR, k) for k in (0, 1, 2)]
    key = lambda t: tuple(sorted(t.items(), key=repr))
    tried = lawful = 0
    for trial in range(30):
        sig = sigs[trial % len(sigs)]
        c = random_coalgebra(sig, rng.randint(1, 2), rng)
        a = random_algebra(sig, rng.randint(1, 3), rng)
        b = random_algebra(sig, rng.randint(1, 3), rng)
        cells = [(s, x) for s in c.states for x in a.elements]
        assert len(b.elements) ** len(cells) <= 2 ** 10
        raw = set(map(key, raw_lawful_tables(c, a, b)))
        for combo in itertools.product(b.elements, repeat=len(cells)):
            table = dict(zip(cells, combo))
            assert check_law(table_measuring(c, a, b, table)).ok == (key(table) in raw)
            tried += 1
        lawful += len(raw)
    assert tried > 400 and 0 < lawful < tried


# ---------------------------------------------------------------------------
# eval


def test_prune_overlap():
    sig = shape_sig(NAT_PLUS, 2)
    trees = initial_term_algebra(sig)
    shape = node(0, BOTTOM, BOTTOM)
    fuel = term_as_coalgebra(sig, shape)
    phi = canonical_term_measuring(fuel, trees, trees)
    subject = node(5, node(1, BOTTOM, BOTTOM), BOTTOM)
    assert phi.eval(shape, subject) == node(5, BOTTOM, BOTTOM)


def test_prune_evaluates_each_state_and_subterm_once():
    # perfect trees share their subterms: depth 16 has 17 distinct subterms
    # but 2^17 - 1 paths, so only the memo on inner calls keeps this small
    import dataclasses
    sig = shape_sig(NAT_PLUS, 2)
    trees = initial_term_algebra(sig)
    perfect = BOTTOM
    for _ in range(16):
        perfect = node(1, perfect, perfect)
    calls = []
    counting = dataclasses.replace(trees, alpha=lambda v: calls.append(v) or trees.alpha(v))
    phi = canonical_term_measuring(term_as_coalgebra(sig, perfect), trees, counting)
    out = phi.eval(perfect, perfect)
    assert out.label == 2 and out.slots[0] is out.slots[1]
    assert len(calls) == 17
    phi.eval(perfect, perfect)
    assert len(calls) == 17


def test_prune_adds_no_frame_per_level():
    # a fuel shape and a subject tree as deep as half the recursion limit
    import sys
    depth = sys.getrecursionlimit() // 2 - 50
    sig = shape_sig(NAT_PLUS, 2)
    trees = initial_term_algebra(sig)
    shape = subject = BOTTOM
    for _ in range(depth):
        shape, subject = node(0, shape, BOTTOM), node(1, subject, BOTTOM)
    phi = canonical_term_measuring(term_as_coalgebra(sig, shape), trees, trees)
    assert phi.eval(shape, subject) is subject


def test_prune_raises_key_error_for_an_unknown_state():
    sig = shape_sig(NAT_PLUS, 2)
    trees = initial_term_algebra(sig)
    loop = coalgebra(sig, ("s",), {"s": node(0, "s", "s")}, "loop")
    phi = canonical_term_measuring(loop, trees, trees)
    assert phi.eval("s", BOTTOM) is BOTTOM
    for t in (BOTTOM, node(1, BOTTOM, BOTTOM)):
        with pytest.raises(KeyError):
            phi.eval("t", t)


def _prune_with_pair_keys(c, a, b):
    """The canonical measuring with one memo keyed by (state, term) tuples:
    the reference for the heap test below."""
    sig, chi, memo = a.sig, c.chi, {}

    def ev(state, t):
        out = memo.get((state, t), memo)
        if out is memo:
            out = memo[state, t] = b.alpha(zip_values(sig, chi[state], t, ev))
        return out

    return Measuring(c, a, b, rule=ev, name="prune")


def test_law_check_of_the_loop_prune_needs_less_heap_than_pair_keys():
    # the law check of tree_pruning's loop measuring at depth 2 (7 204
    # instances): Python 3.11 reads a 0.91 MB peak against 1.21 MB for the
    # memo keyed by (state, term) tuples; both are measured here, so the
    # bound holds whatever a Python version's object sizes are
    import tracemalloc
    sig = shape_sig(NAT_PLUS, 2)
    trees = initial_term_algebra(sig)
    loop = coalgebra(sig, ("s",), {"s": node(0, "s", "s")}, "loop")

    def peak(make):
        check_law(make(loop, trees, trees), depth=2)  # also grows the intern table
        tracemalloc.start()
        try:
            report = check_law(make(loop, trees, trees), depth=2)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report, ours = peak(canonical_term_measuring)
    reference, theirs = peak(_prune_with_pair_keys)
    assert report.ok and report.checked == reference.checked == 7204
    assert ours < 0.85 * theirs


def test_eval_bottom_goes_to_bottom_image():
    l2 = term_algebra_bounded(G1, 2)
    zipm = canonical_term_measuring(term_unfold_coalgebra(G1, 2), l2, l2)
    for c in zipm.coalg.states:
        assert is_bottom(zipm.eval(c, BOTTOM))


def test_min_zip_value():
    n4 = term_algebra_bounded(F1, 4)
    lists = pullback_algebra(MU_LIST, initial_term_algebra(G1))
    phi = canonical_term_measuring(nat_counter(4), n4, lists)
    assert phi.eval(2, _numeral(3)) == _blist([0, 0])


def test_out_of_table_eval_raises():
    phi = table_measuring(nat_counter(0), term_algebra_bounded(F1, 0),
                          term_algebra_bounded(F1, 0), {(0, BOTTOM): BOTTOM})
    with pytest.raises(ValueError):
        phi.eval(0, _numeral(1))


# ---------------------------------------------------------------------------
# composition


def test_compose_with_unit_fuel_is_identity_up_to_pairing():
    n2 = term_algebra_bounded(F1, 2)
    c2 = nat_counter(2)
    phi = canonical_term_measuring(c2, n2, n2)
    unit_phi = from_morphism({t: t for t in n2.elements}, n2, n2)
    comp = compose(unit_phi, phi)
    assert measurings_equal(comp, phi, state_map=lambda sc: sc[1])


def test_composed_zips_equal_zip_by_product_fuel():
    l2 = term_algebra_bounded(G1, 2)
    dual = term_unfold_coalgebra(G1, 2)
    zipm = canonical_term_measuring(dual, l2, l2)
    comp = compose(zipm, zipm)
    direct = canonical_term_measuring(tensor_coalgebra(dual, dual), l2, l2)
    assert measurings_equal(comp, direct)
    assert check_law(comp).ok


def test_compose_after_morphism_is_postcomposition():
    n2 = term_algebra_bounded(F1, 2)
    c2 = nat_counter(2)
    phi = canonical_term_measuring(c2, n2, n2)
    swap = {t: n2.elements[-1 - i] for i, t in enumerate(n2.elements)}
    # swap is generally not a morphism; use a lawful one: the saturating fold
    back = from_morphism({t: t for t in n2.elements}, n2, n2)
    comp = compose(phi, back)
    for c in c2.states:
        for t in n2.elements:
            assert comp.eval((c, STAR), t) == phi.eval(c, t)


def test_compose_rejects_middle_mismatch():
    n1 = term_algebra_bounded(F1, 1)
    n2 = term_algebra_bounded(F1, 2)
    phi = canonical_term_measuring(nat_counter(1), n1, n1)
    psi = canonical_term_measuring(nat_counter(2), n2, n2)
    with pytest.raises(ValueError):
        compose(psi, phi)


def test_composition_associative_up_to_reassociation():
    n2 = term_algebra_bounded(F1, 2)
    machines = [nat_counter(1), nat_counter(2), unit_coalgebra(F1)]
    phis = [canonical_term_measuring(c, n2, n2) for c in machines]
    for p1, p2, p3 in itertools.product(phis, repeat=3):
        left = compose(compose(p1, p2), p3)
        right = compose(p1, compose(p2, p3))
        assert measurings_equal(left, right,
                                state_map=lambda s: (s[0][0], (s[0][1], s[1])))


# ---------------------------------------------------------------------------
# the morphism correspondence


def test_from_to_morphism_roundtrip():
    n2 = term_algebra_bounded(F1, 2)
    f = {t: t for t in n2.elements}
    assert to_morphism(from_morphism(f, n2, n2)) == f


def test_from_morphism_rejects_non_morphisms():
    n2 = term_algebra_bounded(F1, 2)
    bad = {t: n2.elements[0] for t in n2.elements}
    with pytest.raises(MeasuringLawError):
        from_morphism(bad, n2, n2)


def test_to_morphism_needs_unit_fuel():
    n2 = term_algebra_bounded(F1, 2)
    phi = canonical_term_measuring(nat_counter(2), n2, n2)
    with pytest.raises(ValueError):
        to_morphism(phi)


def test_unit_measuring_counts_match_morphism_counts():
    rng = random.Random(41)
    from cind.oracle import raw_lawful_tables, solve_measurings
    for sig in (F1, G1, const_sig(BOOL_OR)):
        for _ in range(4):
            from cind.oracle import random_algebra
            a = random_algebra(sig, rng.randint(1, 3), rng)
            b = random_algebra(sig, rng.randint(1, 3), rng)
            unit = unit_coalgebra(sig)
            measurings = solve_measurings(unit, a, b).solutions
            morphisms = [{x: t[STAR, x] for x in a.elements}
                         for t in raw_lawful_tables(unit, a, b)]
            assert len(measurings) == len(morphisms)
            tabled = {tuple(sorted(((s, x), v) for (s, x), v in t.items()))
                      for t in measurings}
            lifted = {tuple(sorted(((STAR, x), v) for x, v in f.items()))
                      for f in morphisms}
            assert tabled == lifted


# ---------------------------------------------------------------------------
# transport of measurings


def test_embed_keeps_the_table():
    n2 = term_algebra_bounded(F1, 2)
    c2 = nat_counter(2)
    phi = canonical_term_measuring(c2, n2, n2)
    emb = embed_measuring(NU_LIST, MU_LIST, phi)
    assert emb.coalg.sig == G1
    for c in c2.states:
        for t in n2.elements:
            assert emb.eval(c, t) == phi.eval(c, t)
    assert check_law(emb).ok


def test_embed_with_identity_pair_is_identity():
    n2 = term_algebra_bounded(F1, 2)
    phi = canonical_term_measuring(nat_counter(2), n2, n2)
    emb = embed_measuring(identity_nat(F1), identity_nat(F1), phi)
    assert measurings_equal(emb, phi)


def test_embed_requires_a_split_pair():
    def prune(sig):
        return canonical_term_measuring(term_unfold_coalgebra(sig, 1),
                                        term_algebra_bounded(sig, 1),
                                        term_algebra_bounded(sig, 1))

    swap = nat_transform(H2, H2, identity_hom(BOOL_OR), (1, 0), name="swap")
    unsplit = [
        (MU_LIST, NU_LIST, prune(G1)),  # labels do not round-trip
        (identity_nat(H2), swap, prune(H2)),  # labels do, the slots do not
        (identity_nat(F1), MU_LIST, prune(F1)),  # endpoints do not meet
    ]
    for nu, mu, phi in unsplit:
        with pytest.raises(ValueError, match="split pair"):
            embed_measuring(nu, mu, phi)
    # over a builtin monoid the test samples the labels, and passes the identity
    nat = shape_sig(NAT_PLUS, 1)
    fuel = term_as_coalgebra(nat, node(0, node(1, BOTTOM)))
    lists = initial_term_algebra(nat)
    phi = canonical_term_measuring(fuel, lists, lists)
    assert embed_measuring(identity_nat(nat), identity_nat(nat), phi).rule is phi.rule


def test_push_list_zip_prunes_and_relabels():
    gn = shape_sig(NAT_PLUS, 1)
    hn = shape_sig(NAT_PLUS, 2)
    mu = nat_transform(gn, hn, identity_hom(NAT_PLUS), (0, 0), name="dup")
    lists = initial_term_algebra(gn)
    fuel_list = _blist([0, 1, 2])
    fuel = term_as_coalgebra(gn, fuel_list)
    phi = canonical_term_measuring(fuel, lists, lists)
    pushed = push_measuring(mu, phi)
    subject = node(5, node(1, BOTTOM, BOTTOM), node(7, BOTTOM, BOTTOM))
    assert pushed.eval(fuel_list, subject) == \
        node(5, node(2, BOTTOM, BOTTOM), node(8, BOTTOM, BOTTOM))
    assert is_bottom(pushed.eval(fuel_list, BOTTOM))
    assert check_law(pushed, depth=2, labels=(0, 1, 2)).ok


def test_push_of_unit_measuring_extends_the_morphism():
    mu = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    n2 = term_algebra_bounded(F1, 2)
    f = {t: t for t in n2.elements}
    phi = from_morphism(f, n2, n2)
    pushed = push_measuring(mu, phi)
    ex = expand_algebra(mu, n2)
    for t in n2.elements:
        assert pushed.eval(STAR, ex.embed(t)) == ex.embed(f[t])
    assert check_law(pushed).ok


def test_push_const_formula():
    flip = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"})
    mu = nat_transform(const_sig(TRUTH_AND), const_sig(TRUTH_OR), flip, name="flip")
    am = finite_algebra(const_sig(TRUTH_AND), ("T", "F"), lambda x: x, "AM")
    cc = coalgebra(const_sig(TRUTH_AND), ("c0", "c1"), {"c0": "T", "c1": "F"})
    phi = canonical_const_measuring(cc, am, am)
    pushed = push_measuring(mu, phi)
    assert check_law(pushed).ok
    for c in ("c0", "c1"):
        for r in pushed.source.elements:
            assert pushed.eval(c, r) in pushed.target.elements
    # carrier elements keep going through phi: class of T maps to class of
    # phi(c1, T) = class of F
    from cind.transport import pushout_algebra
    p = pushout_algebra(flip, am)
    assert pushed.eval("c1", p.embed("T")) == p.embed(phi.eval("c1", "T"))


def test_pull_restricts_to_lifting_states():
    l2 = term_algebra_bounded(G1, 2)
    dual = term_unfold_coalgebra(G1, 2)
    zipm = canonical_term_measuring(dual, l2, initial_term_algebra(G1))
    pulled = pull_measuring(MU_LIST, zipm)
    assert check_law(pulled).ok
    elist2 = _blist([0, 0])
    assert pulled.eval(elist2, _blist([1, 1])) == _blist([1, 1])
    assert pulled.eval(_blist([0]), _blist([1, 1])) == _blist([1])


def test_pull_on_empty_restriction_is_vacuous():
    m = coalgebra(G1, ("s",), {"s": node(1, "s")})
    l1 = term_algebra_bounded(G1, 1)
    phi = canonical_term_measuring(m, l1, l1)
    pulled = pull_measuring(MU_LIST, phi)
    assert pulled.coalg.states == ()
    assert check_law(pulled).ok


def test_pull_of_pushed_forward_fuel_keeps_all_states():
    pushed_fuel = pushforward_coalgebra(MU_LIST, nat_counter(2))
    l2 = term_algebra_bounded(G1, 2)
    phi = canonical_term_measuring(pushed_fuel, l2, l2)
    pulled = pull_measuring(MU_LIST, phi)
    assert pulled.coalg.states == pushed_fuel.states
    assert check_law(pulled).ok
    assert measurings_equal(pulled, phi)


def test_pull_agrees_with_direct_length_fuel():
    # restricting the zip to unit-labelled fuel equals the plain length zip
    # under the state identification (unit list of length i) <-> i
    l2 = term_algebra_bounded(G1, 2)
    linf = initial_term_algebra(G1)
    zipm = canonical_term_measuring(term_unfold_coalgebra(G1, 2), l2, linf)
    pulled = pull_measuring(MU_LIST, zipm)
    n2 = term_algebra_bounded(F1, 2)
    minm = canonical_term_measuring(nat_counter(2), n2, pullback_algebra(MU_LIST, linf))
    for i in range(3):
        for j in range(3):
            assert pulled.eval(_blist([0] * i), _blist([0] * j)) == \
                minm.eval(i, _numeral(j))


def test_combined_relabel_and_duplicate_transport():
    # a morphism that changes labels and duplicates the slot in one step:
    # unit-conjunction lists become disjunction-labelled binary trees
    ga = shape_sig(TRUTH_AND, 1)
    ho = shape_sig(TRUTH_OR, 2)
    flip = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"})
    mu = nat_transform(ga, ho, flip, (0, 0), name="flipdup")
    from cind.kernel import nat_check_lax
    assert nat_check_lax(mu).ok

    l1 = term_algebra_bounded(ga, 1)
    dual = term_unfold_coalgebra(ga, 1)
    phi = canonical_term_measuring(dual, l1, l1)
    pushed = push_measuring(mu, phi)
    assert check_law(pushed).ok
    # the singleton list [T] expands to a depth-1 tree labelled with flip(T)
    tl = node("T", BOTTOM)
    ex = pushed.source
    from cind.transport import expand_algebra
    embedded = expand_algebra(mu, l1).embed(tl)
    assert embedded == node("F", BOTTOM, BOTTOM)
    # fuel [T] on the embedded [F]-list: labels combine through the target or
    assert pushed.eval(tl, node("T", BOTTOM, BOTTOM)) == node("T", BOTTOM, BOTTOM)
    from cind.oracle import check_respects_composition
    assert check_respects_composition("push", [(mu, phi, phi)]).ok


def test_depth_fuel_pruning_is_truncation():
    # pruning by the perfect depth fuel must agree with the independent
    # depth-clamp on every enumerated tree
    from cind.carriers import perfect_shape, terms_up_to, truncate_term
    trees = initial_term_algebra(H2)
    fuel = perfect_shape(H2, 3)
    phi = canonical_term_measuring(fuel, trees, trees)
    for t in terms_up_to(H2, 2):
        for i in range(4):
            assert phi.eval(i, t) == truncate_term(t, i)


# ---------------------------------------------------------------------------
# lawfulness is preserved by every transport, exhaustively at small bounds


def test_transports_preserve_lawfulness():
    n1 = term_algebra_bounded(F1, 1)
    l1 = term_algebra_bounded(G1, 1)
    mu2 = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    fuels_f = [unit_coalgebra(F1), nat_counter(1), nat_counter(2)]
    fuels_g = [unit_coalgebra(G1), term_unfold_coalgebra(G1, 1)]
    for c in fuels_f:
        phi = canonical_term_measuring(c, n1, n1)
        assert check_law(embed_measuring(NU_LIST, MU_LIST, phi)).ok
        assert check_law(push_measuring(mu2, phi)).ok
    for c in fuels_g:
        phi = canonical_term_measuring(c, l1, l1)
        assert check_law(pull_measuring(MU_LIST, phi)).ok


# ---------------------------------------------------------------------------
# serialisation


def test_measuring_serialises_to_a_table():
    n1 = term_algebra_bounded(F1, 1)
    phi = canonical_term_measuring(nat_counter(1), n1, n1, name="m")
    blob = measuring_to_json(phi)
    assert blob["coalgebra"] == "fuel1"
    assert blob["coverage"] == "exhaustive"
    assert {"coalgebraState", "input", "output"} == set(blob["table"][0])
    assert len(blob["table"]) == 2 * 2
    import json
    json.dumps(blob)


def test_measuring_json_states_a_sampled_coverage():
    lists = initial_term_algebra(G1)
    phi = canonical_term_measuring(term_unfold_coalgebra(G1, 1), lists, lists)
    blob = measuring_to_json(phi, depth=2)
    assert blob["coverage"] == "sampled: terms of depth <= 2"
    blob = measuring_to_json(phi, depth=2, labels=(0,))
    assert blob["coverage"] == "sampled: terms of depth <= 2; labels 0"
    assert len(blob["table"]) == len(phi.coalg.states) * 3  # #b, (0 #b), (0 (0 #b))


NAT1 = shape_sig(NAT_PLUS, 1)
NAT_LISTS = initial_term_algebra(NAT1)
NAT_ZIP = canonical_term_measuring(term_as_coalgebra(NAT1, node(0, node(1, BOTTOM))),
                                   NAT_LISTS, NAT_LISTS)
NAT_DUP = nat_transform(NAT1, shape_sig(NAT_PLUS, 2), identity_hom(NAT_PLUS), (0, 0))


@pytest.mark.parametrize("call, expected", [
    (lambda: check_law(NAT_ZIP, depth=2).line(),
     "[holds] law prune  (sampled: terms of depth <= 2; labels 0, 1, 2)"),
    (lambda: measuring_to_json(NAT_ZIP, depth=1)["coverage"],
     "sampled: terms of depth <= 1; labels 0, 1, 2"),
    (lambda: check_respects_composition("push", [(NAT_DUP, NAT_ZIP, NAT_ZIP)], depth=2).line(),
     "[holds] respects-composition[push] 1 instances"
     "  (sampled: terms of depth <= 2; labels 0, 1, 2)"),
    (lambda: measurings_equal(NAT_ZIP, NAT_ZIP, depth=2), True),
    (lambda: from_morphism(lambda x: x, NAT_LISTS, NAT_LISTS).name, "morphism"),
    (lambda: embed_measuring(identity_nat(NAT1), identity_nat(NAT1), NAT_ZIP).name,
     "embed[prune]"),
], ids=["check_law", "to_json", "respects_composition", "measurings_equal",
        "from_morphism", "embed"])
def test_builtin_nat_carriers_sample_their_labels(call, expected):
    # the enumerator behind the term carrier picks the labels 0, 1, 2
    assert call() == expected


def test_labels_sample_the_carrier_not_a_finite_source_signature():
    # a pullback along a relabelling: its carrier holds NatPlus terms, which
    # the labels sample, while its signature values run over BoolOr's own
    mu = nat_transform(G1, NAT1, hom(BOOL_OR, NAT_PLUS, {0: 0, 1: 0}), (0,))
    p = pullback_algebra(mu, initial_term_algebra(NAT1))
    phi = from_morphism(lambda x: x, p, p, depth=2, labels=(0, 1, 2))
    report = check_law(phi, depth=2, labels=(0, 1, 2))
    assert report.ok
    assert report.coverage == "sampled: terms of depth <= 2; labels 0, 1, 2"
    assert measuring_to_json(phi, depth=2, labels=(0, 1, 2))["coverage"] == report.coverage


LIFT = MU_LIST
DUP = nat_transform(G1, H2, identity_hom(BOOL_OR), (0, 0), name="dup")
FLIP = nat_transform(const_sig(TRUTH_AND), const_sig(TRUTH_OR),
                     hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"}),
                     name="flip")


@pytest.mark.parametrize("move, mu, a", [
    (push_measuring, LIFT, term_algebra_bounded(F1, 2)),
    (push_measuring, DUP, term_algebra_bounded(G1, 2)),
    (pull_measuring, LIFT, term_algebra_bounded(G1, 2)),
    (pull_measuring, DUP, term_algebra_bounded(H2, 1)),
    (push_measuring, FLIP, finite_algebra(const_sig(TRUTH_AND), ("t", "f", "x"),
                                          {"T": "t", "F": "f"}.__getitem__)),
], ids=["push-lift", "push-dup", "pull-lift", "pull-dup", "push-flip"])
def test_transports_send_identities_to_identities(move, mu, a):
    # enriched functors preserve identities: the moved identity measuring is
    # the identity morphism of its carrier, fuelled by the unit machine
    moved = move(mu, from_morphism(lambda x: x, a, a))
    assert moved.source.elements == moved.target.elements
    assert to_morphism(moved) == {x: x for x in moved.source.elements}
