import gc
import random
import re
import weakref

import pytest

from cind import oracle
from cind.carriers import (Coalgebra, coalgebra, finite_algebra,
                           initial_term_algebra, nat_counter, shape_coalgebra,
                           table_algebra, term_algebra_bounded,
                           term_unfold_coalgebra, unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, TRIV, TRUTH_AND, collapse_hom,
                         const_sig, finite_monoid, fvalues, identity_hom,
                         identity_nat, is_bottom, nat_transform, node,
                         shape_sig, unit_hom)
from cind.measuring import Measuring, canonical_term_measuring, check_law
from cind.oracle import (check_adjunction, check_preinitial_subterminal,
                         check_preserves_c_initial,
                         check_respects_composition, decide_c_initial,
                         random_algebra, random_algebras, random_coalgebra,
                         raw_lawful_tables, solve_measurings,
                         solutions_as_measurings)
from cind.transport import SubCoalgebra

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)
K2 = const_sig(BOOL_OR)
MU_LIST = nat_transform(F1, G1, unit_hom(BOOL_OR), (0,), name="mu")


def _canonical(tables):
    return sorted(tuple(sorted(t.items(), key=repr)) for t in tables)


# ---------------------------------------------------------------------------
# solver vs raw filter


def test_solver_matches_raw_filter_on_seeded_instances():
    rng = random.Random(100)
    sigs = [F1, G1, H2, const_sig(BOOL_OR), const_sig(TRUTH_AND)]
    for trial in range(12):
        sig = sigs[trial % len(sigs)]
        c = random_coalgebra(sig, rng.randint(1, 3), rng)
        a = random_algebra(sig, rng.randint(1, 3), rng)
        b = random_algebra(sig, rng.randint(1, 3), rng)
        result = solve_measurings(c, a, b)
        assert result.exhaustive
        raw = raw_lawful_tables(c, a, b)
        assert _canonical(result.solutions) == _canonical(raw)


def test_solver_every_solution_is_lawful():
    rng = random.Random(7)
    c = random_coalgebra(G1, 3, rng)
    a = random_algebra(G1, 2, rng)
    b = random_algebra(G1, 2, rng)
    result = solve_measurings(c, a, b)
    for phi in solutions_as_measurings(c, a, b, result):
        assert check_law(phi).ok


def test_pruning_is_the_unique_shape_fuelled_measuring():
    t2 = term_algebra_bounded(shape_sig(TRIV, 2), 2)
    s2 = shape_coalgebra(shape_sig(TRIV, 2), 2)
    result = solve_measurings(s2, t2, t2)
    assert len(result.solutions) == 1
    direct = canonical_term_measuring(s2, t2, t2)
    table = result.solutions[0]
    assert all(direct.eval(c, a) == v for (c, a), v in table.items())


def test_unit_fuel_gives_exactly_the_fold_when_it_exists():
    from cind.carriers import fold
    from cind.kernel import STAR
    n2 = term_algebra_bounded(F1, 2)
    # mapping into itself: the fold is the identity and is the only solution
    result = solve_measurings(unit_coalgebra(F1), n2, n2)
    assert len(result.solutions) == 1
    assert all(result.solutions[0][STAR, t] == t for t in n2.elements)
    # bounded sources are preinitial, not initial: against random targets the
    # count is 0 or 1 and matches the morphism count exactly
    rng = random.Random(3)
    for _ in range(6):
        b = random_algebra(F1, 3, rng)
        result = solve_measurings(unit_coalgebra(F1), n2, b)
        morphs = raw_lawful_tables(unit_coalgebra(F1), n2, b)
        assert len(result.solutions) == len(morphs) <= 1
        for table in result.solutions:
            assert all(table[STAR, t] == fold(b, t) for t in n2.elements)


def test_unconstrained_cells_branch():
    # an uninterpreted carrier element leaves its cells free
    a = finite_algebra(const_sig(BOOL_OR), ("x", "y"),
                       lambda m: "x", "A")
    c = coalgebra(const_sig(BOOL_OR), ("c",), {"c": 0})
    result = solve_measurings(c, a, a)
    assert len(result.solutions) == 2
    raw = raw_lawful_tables(c, a, a)
    assert _canonical(result.solutions) == _canonical(raw)


def test_budget_exhaustion_is_reported_not_raised():
    rng = random.Random(5)
    c = random_coalgebra(G1, 3, rng)
    a = random_algebra(G1, 3, rng)
    b = random_algebra(G1, 3, rng)
    result = solve_measurings(c, a, b, budget=2)
    assert not result.exhaustive
    assert result.steps <= 3


def test_solver_deterministic():
    rng = random.Random(8)
    c = random_coalgebra(G1, 3, rng)
    a = random_algebra(G1, 2, rng)
    b = random_algebra(G1, 3, rng)
    r1 = solve_measurings(c, a, b)
    r2 = solve_measurings(c, a, b)
    assert r1.solutions == r2.solutions
    assert r1.steps == r2.steps


def test_raw_oracle_refuses_oversized_instances():
    rng = random.Random(2)
    c = random_coalgebra(G1, 5, rng)
    a = random_algebra(G1, 5, rng)
    b = random_algebra(G1, 3, rng)
    with pytest.raises(ValueError):
        raw_lawful_tables(c, a, b, limit=2 ** 10)


def test_free_cells_multiply_solution_count():
    # two uninterpreted elements over a spent fuel state: the law pins only
    # the interpreted cell, so counts follow |B|^(free cells)
    a = finite_algebra(F1, ("root", "u1", "u2"), lambda v: "root", "loose")
    c = coalgebra(F1, ("c",), {"c": BOTTOM})
    b = finite_algebra(F1, ("b0", "b1", "b2"),
                       lambda v: "b0" if is_bottom(v) else "b1", "B3")
    result = solve_measurings(c, a, b)
    assert len(result.solutions) == 3 ** 2
    assert _canonical(result.solutions) == _canonical(raw_lawful_tables(c, a, b))
    for table in result.solutions:
        assert table["c", "root"] == "b0"


def test_search_of_many_free_cells_needs_no_recursion():
    # 1 499 uninterpreted elements leave 1 499 free cells, one branch deep each
    elems = tuple(range(1500))
    a = finite_algebra(const_sig(BOOL_OR), elems, lambda m: 0, "loose")
    c = coalgebra(const_sig(BOOL_OR), ("c",), {"c": 0})
    b = finite_algebra(const_sig(BOOL_OR), ("b",), lambda m: "b", "one")
    result = solve_measurings(c, a, b)
    assert result.exhaustive
    assert result.solutions == ({("c", e): "b" for e in elems},)


def test_solver_frees_its_structure_when_solve_returns():
    rng = random.Random(9)
    c = random_coalgebra(G1, 2, rng)
    a = random_algebra(G1, 2, rng)
    structure = oracle._Structure(c, a)
    ref = weakref.ref(structure)
    gc.disable()  # a reference cycle would keep it alive until the collector ran
    try:
        structure.solve(random_algebra(G1, 2, rng))
        del structure
        assert ref() is None
    finally:
        gc.enable()


def test_solver_rejects_a_target_that_leaves_its_carrier():
    a = finite_algebra(const_sig(BOOL_OR), ("a0", "a1"), {0: "a0", 1: "a1"}.__getitem__, "A")
    b = finite_algebra(const_sig(BOOL_OR), ("b0", "b1"), {0: "b0", 1: "b2"}.__getitem__, "B")
    c = coalgebra(const_sig(BOOL_OR), ("c",), {"c": 0})
    with pytest.raises(ValueError, match="left the carrier at 1"):
        solve_measurings(c, a, b)
    leaky = finite_algebra(G1, ("b0",), lambda v: "b1", "leaky")
    with pytest.raises(ValueError, match="left the carrier at #b"):
        solve_measurings(unit_coalgebra(G1), term_algebra_bounded(G1, 1), leaky)


def test_unique_on_dual_lists_does_the_same_propagation_work():
    # the integer core takes exactly the steps the term-based solver took
    lists = term_algebra_bounded(G1, 5)
    result = solve_measurings(term_unfold_coalgebra(G1, 5), lists, lists)
    assert result.exhaustive
    assert len(result.solutions) == 1
    assert result.steps == 7937


def _cross_validation_instances(seed, count):
    """Seeded (c, a, b) triples small enough for the raw oracle: const
    sources with uninterpreted elements, and shape signatures of arity 0-2."""
    rng = random.Random(seed)
    shapes = [shape_sig(m, arity) for m in (TRIV, BOOL_OR) for arity in (0, 1, 2)]
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            m = rng.choice([BOOL_OR, TRUTH_AND])
            sig = const_sig(m)
            interpret = {x: f"a{rng.randrange(2)}" for x in m.elements}
            elems = sorted(set(interpret.values())) + [f"u{i}" for i in range(rng.randint(0, 3))]
            a = finite_algebra(sig, elems, interpret.__getitem__, "A")
        else:
            sig = rng.choice(shapes)
            a = random_algebra(sig, rng.randint(1, 3), rng)
        c = random_coalgebra(sig, rng.randint(1, 3), rng)
        b = random_algebra(sig, rng.randint(1, 3), rng)
        if len(b.elements) ** (len(c.states) * len(a.elements)) <= 2 ** 12:
            out.append((c, a, b))
    return out


def test_solver_keeps_the_raw_oracles_tables_in_its_order():
    split = 0
    for c, a, b in _cross_validation_instances(31, 150):
        raw = raw_lawful_tables(c, a, b)
        result = solve_measurings(c, a, b)
        assert result.exhaustive
        assert result.solutions == raw
        assert result.count == len(raw)
        for keep in (1, 2):
            result = solve_measurings(c, a, b, keep=keep)
            assert result.exhaustive
            assert result.solutions == raw[:keep]
            assert result.count == len(raw)
            split += len(raw) > keep
    assert split > 40  # the count past the kept tables ran on many of them


def _const_free_cells(free):
    """Two fuel states over BoolOr constants and ``free`` uninterpreted
    elements into a 3-element target: 3^(2 free) lawful tables."""
    sig = const_sig(BOOL_OR)
    elems = ("a0", "a1") + tuple(f"u{i}" for i in range(free))
    a = finite_algebra(sig, elems, {0: "a0", 1: "a1"}.__getitem__, "A")
    c = coalgebra(sig, ("c0", "c1"), {"c0": 0, "c1": 1})
    b = finite_algebra(sig, ("b0", "b1", "b2"), {0: "b0", 1: "b1"}.__getitem__, "B")
    return c, a, b


def test_untouched_free_cells_count_the_target_size_each():
    # six free cells, none touched by a constraint: each counts |B| with no
    # search
    c, a, b = _const_free_cells(3)
    raw = raw_lawful_tables(c, a, b)
    result = solve_measurings(c, a, b, keep=2)
    assert result.exhaustive
    assert result.count == len(raw) == 3 ** 6
    assert result.solutions == raw[:2]


def test_count_searches_free_cells_that_constraints_touch():
    # under a looping state, the cells of p <-> q, s <-> t and u (whose
    # successor is r) stay free after the first propagation, and constraints
    # touch each; the target's successor swaps 1 and 2, so each 2-cycle has
    # 3 lawful values and u one
    f1 = shape_sig(TRIV, 1)
    succ = {"r": "r", "p": "q", "q": "p", "s": "t", "t": "s", "u": "r"}
    a = finite_algebra(f1, tuple(succ), lambda v: "r" if is_bottom(v) else succ[v.slots[0]], "A")
    c = coalgebra(f1, ("loop",), {"loop": node("e", "loop")})
    b = finite_algebra(f1, (0, 1, 2), lambda v: 0 if is_bottom(v) else (0, 2, 1)[v.slots[0]], "B")
    raw = raw_lawful_tables(c, a, b)
    result = solve_measurings(c, a, b, keep=2)
    assert result.exhaustive
    assert result.count == len(raw) == 3 * 3 * 1
    assert result.solutions == raw[:2]


def test_count_searches_cells_that_a_constraint_defines():
    # no constraint reads the cells of the root state, but its cells at p and
    # q are defined from the free cells of the loop's 2-cycle, so they are
    # not set aside at |B| each
    f1 = shape_sig(TRIV, 1)
    succ = {"r": "r", "p": "q", "q": "p"}
    a = finite_algebra(f1, tuple(succ), lambda v: "r" if is_bottom(v) else succ[v.slots[0]], "A")
    c = coalgebra(f1, ("root", "loop"), {"root": node("e", "loop"), "loop": node("e", "loop")})
    b = finite_algebra(f1, (0, 1, 2), lambda v: 0 if is_bottom(v) else (0, 2, 1)[v.slots[0]], "B")
    raw = raw_lawful_tables(c, a, b)
    result = solve_measurings(c, a, b, keep=1)
    assert result.exhaustive
    assert result.count == len(raw) == 3
    assert result.solutions == raw[:1]


def test_budget_bounds_kept_tables_and_branches():
    c, a, b = _const_free_cells(6)
    result = solve_measurings(c, a, b, budget=10)
    assert not result.exhaustive
    assert len(result.solutions) <= 10
    assert result.steps <= 10
    counted = solve_measurings(c, a, b, keep=2)
    assert counted.exhaustive
    assert counted.count == 3 ** 12
    assert len(counted.solutions) == 2


def test_bang_adjunction_with_non_injective_hom():
    # the pushout adjoint needs no injectivity; collapse both labels to the
    # trivial monoid and verify hom counts still biject
    collapse = collapse_hom(BOOL_OR)
    mu = nat_transform(const_sig(BOOL_OR), const_sig(TRIV), collapse, name="collapse")
    rng = random.Random(77)
    instances = [(random_algebra(const_sig(BOOL_OR), s, rng),
                  random_algebra(const_sig(TRIV), t, rng))
                 for s in (1, 2, 3) for t in (1, 2)]
    report = check_adjunction(mu, "bang", instances)
    assert report.ok, report.witnesses[:2]


# ---------------------------------------------------------------------------
# c-initiality


def test_counter_fuel_makes_bounded_numerals_initial():
    c, a = nat_counter(2), term_algebra_bounded(F1, 2)
    report = decide_c_initial(c, a)
    assert report.ok and report.coverage == "exhaustive"
    for b in random_algebras(F1, (1, 2, 3), 5, seed=50):
        assert solve_measurings(c, a, b, keep=2).count == 1


def test_non_preinitial_source_fails_with_witnesses():
    # an uninterpreted extra element admits several measurings
    a = finite_algebra(F1, ("z", "w"),
                       lambda v: "z", "loose")
    report = decide_c_initial(nat_counter(1), a)
    assert not report.ok
    assert report.witnesses


def test_check_c_initial_budget_status():
    report = decide_c_initial(nat_counter(2), term_algebra_bounded(F1, 2), budget=1)
    assert report.status == "budget"
    assert report.checked == 1


# one instance per outcome of the decision, each confirmed by the solver on
# the algebra its witness names

def _named_target(report, sig):
    """(the algebra a failing decision's witness names, the measurings the
    witness says it has: 0, or 2 for at least two)."""
    witness = report.witnesses[0]
    depth = re.search(r"no measuring into T(\d+)\[", witness)
    if depth:
        return term_algebra_bounded(sig, int(depth.group(1))), 0
    if witness.endswith("with the identity structure map"):
        return finite_algebra(sig, sig.monoid.elements, lambda x: x, "labels"), 0
    assert "the 2-element algebra with a constant structure map" in witness
    return finite_algebra(sig, (0, 1), lambda v: 0, "const2"), 2


def _confirmed(report, c, a):
    b, expected = _named_target(report, a.sig)
    count = solve_measurings(c, a, b, keep=2).count
    return count >= 2 if expected else count == 0


def test_decision_pins_an_instance_the_sampled_check_passed():
    # the DSL's former sample (5 targets of sizes 1 and 2, seed 2024) found
    # exactly one measuring into each; T_k has none.  The clashing terms
    # first differ at level 3, so the witness names T3 (the solver counts 1,
    # 1, 0, 0, 0 measurings into T1..T5), not T5, their larger depth
    c = coalgebra(F1, (0, 1, 2), {0: node("e", 2), 1: node("e", 0), 2: node("e", 1)}, "cyc")
    a = table_algebra(F1, (0, 1, 2), {BOTTOM: 2, node("e", 0): 0, node("e", 1): 0,
                                      node("e", 2): 1}, "A")
    report = decide_c_initial(c, a)
    assert report.status == "fails" and report.coverage == "exhaustive"
    assert report.witnesses[0].endswith(
        ": (e (e #b)) and (e (e (e (e (e #b))))) clash; no measuring into T3[shape(Triv,1)]")
    assert _confirmed(report, c, a)
    assert [solve_measurings(c, a, term_algebra_bounded(F1, k)).count
            for k in range(1, 6)] == [1, 1, 0, 0, 0]
    assert solve_measurings(c, a, term_algebra_bounded(F1, 4)).count == 0
    assert all(solve_measurings(c, a, b, keep=2).count == 1
               for b in random_algebras(F1, (1, 2), 5, seed=2024))


@pytest.mark.parametrize("sig,chi,interpret", [
    (F1, BOTTOM, lambda v: "z"),
    (K2, 1, lambda x: "z"),
], ids=["shape", "const"])
def test_decision_names_a_cell_no_constraint_defines(sig, chi, interpret):
    c = coalgebra(sig, ("s",), {"s": chi}, "one")
    a = finite_algebra(sig, ("z", "w"), interpret, "extra")
    report = decide_c_initial(c, a)
    assert report.witnesses == ("cell (s w) is defined by no constraint; the 2-element "
                                "algebra with a constant structure map has >= 2 measurings",)
    assert _confirmed(report, c, a)


def test_decision_names_a_clash_of_labels_for_a_constant_signature():
    c = coalgebra(K2, ("s",), {"s": 0}, "one")
    a = finite_algebra(K2, ("z",), lambda x: "z", "point")
    report = decide_c_initial(c, a)
    assert report.witnesses == ("cell (s z): 1 and 0 clash; no measuring into BoolOr "
                                "with the identity structure map",)
    assert _confirmed(report, c, a)


def test_decision_agrees_with_the_solver_on_seeded_instances():
    # holds: exactly one measuring into each seeded target; fails: the
    # witness's algebra has none (or two, for a cell no constraint defines)
    max3 = finite_monoid("Max3", (0, 1, 2), max, 0)
    sigs = [const_sig(BOOL_OR), const_sig(TRUTH_AND), const_sig(max3)] + \
        [shape_sig(m, arity) for m in (TRIV, BOOL_OR) for arity in (0, 1, 2)]
    rng = random.Random(111)
    outcomes = set()
    for trial in range(600):
        sig = sigs[trial % len(sigs)]
        c = random_coalgebra(sig, rng.randint(1, 3), rng)
        a = random_algebra(sig, rng.randint(1, 3), rng)
        if rng.random() < 0.2:  # add an element the structure map never reaches
            old = set(fvalues(sig, a.elements))
            a = table_algebra(sig, a.elements + (3,),
                              {v: a.alpha(v) if v in old else 0
                               for v in fvalues(sig, a.elements + (3,))}, a.name)
        report = decide_c_initial(c, a)
        assert report.coverage == "exhaustive" and report.status != "budget"
        if report.ok:
            outcomes.add("holds")
            for b in random_algebras(sig, (1, 2, 3), 2, seed=trial):
                assert solve_measurings(c, a, b, keep=2).count == 1, (trial, b.name)
        else:
            outcomes.add("clash" if "clash" in report.witnesses[0] else "undefined")
            assert _confirmed(report, c, a), (trial, report.witnesses)
    assert outcomes == {"holds", "clash", "undefined"}


# ---------------------------------------------------------------------------
# preinitiality


def test_bounded_terms_are_preinitial():
    p = term_algebra_bounded(shape_sig(TRIV, 2), 1)
    rng = random.Random(12)
    for size in (1, 2, 3):
        b = random_algebra(shape_sig(TRIV, 2), size, rng)
        report = check_preinitial_subterminal(
            p, b, coalgebras=[shape_coalgebra(shape_sig(TRIV, 2), 1)])
        assert report.ok


def test_preinitial_check_reports_an_exhausted_budget():
    p = term_algebra_bounded(shape_sig(TRIV, 2), 1)
    b = random_algebra(shape_sig(TRIV, 2), 2, random.Random(12))
    assert check_preinitial_subterminal(p, b).ok
    assert check_preinitial_subterminal(p, b, budget=1).status == "budget"


def test_two_constant_algebra_is_not_preinitial():
    # two fixed points of the interpretation yield two morphisms
    p = finite_algebra(F1, ("p0", "p1"),
                       lambda v: "p0" if (v is not None and
                                          (v == BOTTOM or v.slots[0] == "p0")) else "p1",
                       "twoconst")
    b = finite_algebra(F1, ("b0", "b1"),
                       lambda v: "b0" if (v == BOTTOM or v.slots[0] == "b0") else "b1",
                       "fixed")
    report = check_preinitial_subterminal(p, b)
    assert not report.ok
    assert any("morphisms" in w for w in report.witnesses if isinstance(w, str))


# ---------------------------------------------------------------------------
# respects-composition / adjunction / preservation reports


def test_respects_composition_identity_is_trivial():
    n1 = term_algebra_bounded(F1, 1)
    phi = canonical_term_measuring(nat_counter(1), n1, n1)
    ident = identity_nat(F1)
    report = check_respects_composition("embed", [(ident, ident, phi, phi)])
    assert report.ok
    report = check_respects_composition("pull", [(ident, phi, phi)])
    assert report.ok


def test_respects_composition_detects_breakage():
    # a deliberately wrong "transport" cannot arise through the public API,
    # so check the checker by comparing two genuinely different measurings
    n1 = term_algebra_bounded(F1, 1)
    phi = canonical_term_measuring(nat_counter(1), n1, n1)
    mu2 = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    report = check_respects_composition("push", [(mu2, phi, phi)])
    assert report.ok


def test_respects_composition_fails_for_a_transport_that_ignores_the_fuel(monkeypatch):
    real = oracle.push_measuring

    def fuel_blind(mu, phi, *args):
        # runs every fuel state as the machine's second one; on the product
        # machine of a composite that state is (0, 1), not (1, 1)
        pushed = real(mu, phi, *args)
        fixed = pushed.coalg.states[1]
        return Measuring(pushed.coalg, pushed.source, pushed.target,
                         lambda c, x: pushed.eval(fixed, x), pushed.name)

    monkeypatch.setattr(oracle, "push_measuring", fuel_blind)
    n2 = term_algebra_bounded(F1, 2)
    phi = canonical_term_measuring(nat_counter(2), n2, n2)
    mu2 = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    report = oracle.check_respects_composition("push", [(mu2, phi, phi)])
    assert report.status == "fails"
    assert report.witnesses[0][0] == "instance 1"


def test_respects_composition_over_an_infinite_carrier_is_sampled():
    lists = initial_term_algebra(G1)
    phi = canonical_term_measuring(term_unfold_coalgebra(G1, 1), lists, lists)
    report = check_respects_composition("push", [(identity_nat(G1), phi, phi)], depth=2)
    assert report.ok
    assert report.coverage == "sampled: terms of depth <= 2"
    n1 = term_algebra_bounded(F1, 1)
    psi = canonical_term_measuring(nat_counter(1), n1, n1)
    finite = check_respects_composition("push", [(identity_nat(F1), psi, psi)])
    assert finite.coverage == "exhaustive"


def test_check_adjunction_identity_morphism():
    ident = identity_nat(const_sig(BOOL_OR))
    rng = random.Random(33)
    instances = [(random_algebra(const_sig(BOOL_OR), 2, rng),
                  random_algebra(const_sig(BOOL_OR), 2, rng))]
    assert check_adjunction(ident, "bang", instances).ok
    identF = identity_nat(F1)
    minstances = [(random_coalgebra(F1, 2, rng), random_coalgebra(F1, 3, rng))]
    assert check_adjunction(identF, "shriek", minstances).ok



def _bang_identity_instance():
    # one morphism each side: the identity of the identity algebra
    a = table_algebra(K2, (0, 1), {0: 0, 1: 1}, "id")
    return identity_nat(K2), [(a, a)]


def test_bang_transpose_that_raises_is_a_fails_witness(monkeypatch):
    mu, instances = _bang_identity_instance()
    assert check_adjunction(mu, "bang", instances).ok

    def broken(p, b, f):
        raise ValueError("transpose not well defined")

    monkeypatch.setattr(oracle, "pushout_transpose", broken)
    report = check_adjunction(mu, "bang", instances)
    assert report.status == "fails"
    assert report.witnesses == (("instance 1", "transpose fails", "{0: 0, 1: 1}"),)


def test_bang_transpose_to_a_wrong_map_fails(monkeypatch):
    mu, instances = _bang_identity_instance()
    real = oracle.pushout_transpose

    def swapped(p, b, f):
        g = real(p, b, f)
        return dict(zip(g, reversed(list(g.values()))))

    monkeypatch.setattr(oracle, "pushout_transpose", swapped)
    report = check_adjunction(mu, "bang", instances)
    assert report.status == "fails"
    assert report.witnesses[0][:2] == ("instance 1", "transpose fails")


def test_shriek_restriction_short_of_a_state_fails_on_counts(monkeypatch):
    mu = identity_nat(K2)
    d = coalgebra(K2, ("d",), {"d": 0})
    c = coalgebra(K2, ("c0", "c1"), {"c0": 0, "c1": 0})
    assert check_adjunction(mu, "shriek", [(d, c)]).ok
    real = oracle.restrict_coalgebra

    def one_short(mu, c):
        sub = real(mu, c)
        kept = sub.kept[:-1]
        lifted = Coalgebra(sub.coalg.sig, kept, {s: sub.coalg.chi[s] for s in kept})
        return SubCoalgebra(sub.nat, sub.parent, kept, lifted)

    monkeypatch.setattr(oracle, "restrict_coalgebra", one_short)
    report = check_adjunction(mu, "shriek", [(d, c)])
    assert report.status == "fails"
    assert report.witnesses == (("instance 1", "counts", 1, 2),)


def test_shriek_cap_overflow_reports_budget():
    rng = random.Random(34)
    instances = [(random_coalgebra(F1, 3, rng), random_coalgebra(G1, 3, rng))]
    assert check_adjunction(MU_LIST, "shriek", instances).ok
    report = check_adjunction(MU_LIST, "shriek", instances, cap=1)
    assert report.status == "budget"
    assert report.witnesses == (("instance 1", "cap exceeded"),)


@pytest.mark.parametrize("check", [
    lambda: check_adjunction(MU_LIST, "bogus", []),
    lambda: check_respects_composition("bogus", []),
], ids=["side", "kind"])
def test_unknown_side_or_kind_is_rejected_without_instances(check):
    with pytest.raises(ValueError, match="unknown"):
        check()


def test_check_preserves_c_initial_pipeline():
    mu2 = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    report = check_preserves_c_initial(mu2, nat_counter(1), term_algebra_bounded(F1, 1))
    assert report.ok and report.coverage == "exhaustive"
    assert check_preserves_c_initial(mu2, nat_counter(1), term_algebra_bounded(F1, 1),
                                     budget=1).status == "budget"


def test_check_preserves_c_initial_identity_matches_plain_check():
    ident = identity_nat(F1)
    for n in (1, 2):  # counter fuel 2 is deeper than the algebra: a clash
        a = term_algebra_bounded(F1, 1)
        report = check_preserves_c_initial(ident, nat_counter(n), a)
        plain = decide_c_initial(nat_counter(n), a)
        assert report.ok == plain.ok
        assert report.witnesses == tuple(f"{side}: {w}" for side in ("source", "image")
                                         for w in plain.witnesses)


def test_list_fuel_expansion_small_instance():
    # pushing the length-bounded list dual forward makes the expanded tree
    # algebra uniquely measurable by it
    gb, hb = G1, H2
    mub = nat_transform(gb, hb, identity_hom(BOOL_OR), (0, 0), name="dupb")
    from cind.transport import expand_algebra, pushforward_coalgebra
    l1 = term_algebra_bounded(gb, 1)
    t1 = expand_algebra(mub, l1).algebra
    fuel = pushforward_coalgebra(mub, term_unfold_coalgebra(gb, 1))
    assert decide_c_initial(fuel, t1).ok


# ---------------------------------------------------------------------------
# reports


def test_reports_are_deterministic_and_serialisable():
    r1 = decide_c_initial(nat_counter(1), term_algebra_bounded(F1, 1))
    r2 = decide_c_initial(nat_counter(1), term_algebra_bounded(F1, 1))
    assert r1 == r2
    blob = r1.to_json()
    assert blob["status"] == "holds"
    assert set(blob) == {"claim", "instance", "status", "coverage", "witnesses"}
    import json
    json.dumps(blob)
