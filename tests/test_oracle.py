import gc
import random
import re
import weakref
from collections import Counter
from functools import partial

import pytest

from cind import oracle
from cind.carriers import (Coalgebra, coalgebra, counter_coalgebra, finite_algebra,
                           initial_term_algebra, nat_counter, shape_coalgebra,
                           table_algebra, term_algebra_bounded,
                           term_unfold_coalgebra, unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, TRIV, TRUTH_AND, collapse_hom,
                         const_sig, finite_monoid, fvalues, identity_hom,
                         identity_nat, is_bottom, nat_transform, node,
                         shape_sig, unit_hom)
from cind.measuring import Measuring, canonical_term_measuring, check_law
from cind.oracle import (check_adjunction, check_preserves_c_initial,
                         check_respects_composition, coalgebra_morphisms,
                         decide_c_initial, raw_lawful_tables, solve_measurings)
from cind.transport import SubCoalgebra
from helpers import (forward_pass_decision, materialized_constraints,
                     product_coalgebra_morphisms,
                     random_algebra, random_algebras, random_coalgebra,
                     solutions_as_measurings)

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


def test_a_bad_target_is_rejected_before_the_budget_is_consulted():
    rng = random.Random(5)
    c, a = random_coalgebra(G1, 3, rng), random_algebra(G1, 3, rng)
    other = random_algebra(const_sig(BOOL_OR), 2, rng)
    for budget in (0, 10 ** 6):
        with pytest.raises(ValueError, match="signature mismatch: target over const"):
            solve_measurings(c, a, other, budget=budget)


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


def test_unique_on_dual_trees_does_the_same_propagation_work():
    # arity 2: dual(T_2) and counter(2) put one state in both slots of a node;
    # the decision takes the steps its former forward pass took
    trees = term_algebra_bounded(H2, 2)
    for c, steps in ((term_unfold_coalgebra(H2, 2), 13033),
                     (counter_coalgebra(H2, 2), 1465), (unit_coalgebra(H2), 1065)):
        result = solve_measurings(c, trees, trees)
        assert result.exhaustive and len(result.solutions) == 1
        assert result.steps == steps, c.name
    decided = [decide_c_initial(c, trees) for c in (
        term_unfold_coalgebra(H2, 2), counter_coalgebra(H2, 2),
        shape_coalgebra(H2, 2), unit_coalgebra(H2))]
    assert [(r.status, r.checked) for r in decided] == [
        ("holds", 13033), ("holds", 1465), ("holds", 2911), ("fails", 4)]


def _structure_instances(seed, count):
    """Seeded (c, a) pairs: constant signatures whose labels collapse
    products (BoolOr's 1, TruthAnd's 0), with uninterpreted elements at
    times; shape signatures of arity 0-2 over random and bounded term
    algebras; machines with bottom states, and arity-2 machines with one
    state in both slots of a node."""
    rng = random.Random(seed)
    sigs = [K2, const_sig(TRUTH_AND)] + [shape_sig(m, k) for m in (TRIV, BOOL_OR)
                                        for k in (0, 1, 2)]
    for trial in range(count):
        sig = sigs[trial % len(sigs)]
        if sig.kind == "const" and rng.random() < 0.4:
            elems = tuple(range(rng.randint(1, 4)))
            a = finite_algebra(sig, elems, lambda m, k=rng.randrange(len(elems)): k, "free")
        elif sig.kind != "const" and sig.arity and rng.random() < 0.2:
            a = term_algebra_bounded(sig, rng.randint(0, 2))
        else:
            a = random_algebra(sig, rng.randint(1, 3 if sig.kind == "const" or sig.arity < 2
                                                else 2), rng)
        c = random_coalgebra(sig, rng.randint(0, 4), rng)
        if sig.kind != "const" and c.states:
            chi, s = dict(c.chi), rng.choice(c.states)
            if rng.random() < 0.3:
                chi[s] = BOTTOM
            elif sig.arity == 2 and rng.random() < 0.5:
                chi[s] = node(rng.choice(sig.monoid.elements), *(2 * [rng.choice(c.states)]))
            c = coalgebra(sig, c.states, chi, "edited")
        yield c, a


def test_streamed_structure_matches_the_materialised_constraints():
    # the ids s * |F(A)| + v that no mask drops, in order, decode to the
    # reference's constraints; the initial list, every cell's readers and the
    # loose cells agree under that numbering
    masked = bottoms = repeats = 0
    for c, a in _structure_instances(1701, 600):
        ref = materialized_constraints(c, a)
        s = oracle._Structure(c, a)
        live = [si * s.nv + vi for si, mask in enumerate(s.masks)
                for vi in range(s.nv) if not (mask and mask[vi])]
        assert [s.decode(ci) for ci in live] == ref.constraints, (c.chi, a.name)
        number = {ci: k for k, ci in enumerate(live)}
        assert [number[ci] for ci in s.initial] == ref.initial
        for cell in range(s.ncells):
            assert [number[ci] for ci in s.readers(cell)] == ref.by_dep[cell]
        assert s.loose == ref.loose
        masked += any(m is not None for m in s.masks)
        bottoms += any(is_bottom(v) for v in c.chi.values())
        repeats += any(any(len(ps) > 1 for _, ps in up) for up in s.parents)
    assert masked > 150 and bottoms > 50 and repeats > 20, (masked, bottoms, repeats)


def test_c_initial_decision_needs_a_quarter_of_the_materialised_heap():
    # dual(L_5): 7 937 constraints once built up front, which the decision
    # streams; Python 3.11 reads a 0.23 MB peak, most of it the loop's cache
    # of images, against 2.6 MB.  Both peaks are measured here, so the bound
    # holds whatever a Python version's object sizes are
    import tracemalloc
    lists = term_algebra_bounded(G1, 5)
    dual = term_unfold_coalgebra(G1, 5)
    decide_c_initial(dual, lists)  # grows the intern table first

    def peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    report, ours = peak(lambda: decide_c_initial(dual, lists))
    reference, theirs = peak(lambda: materialized_constraints(dual, lists))
    assert report.ok and len(reference.constraints) == 7937
    assert ours < theirs / 4, (ours, theirs)


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
    # 3 states times 4 signature values: a build of 12 constraints
    c, a = nat_counter(2), term_algebra_bounded(F1, 2)
    report = decide_c_initial(c, a, budget=11)
    assert report.status == "budget"
    assert report.checked == 0  # the build is not started
    assert decide_c_initial(c, a, budget=12).ok


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
    result = solve_measurings(c, a, b, keep=2)
    return result.exhaustive and (result.count >= 2 if expected else result.count == 0)


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


def _decision_instances(seed, count):
    """Seeded (c, a, budget) triples: constant signatures, with uninterpreted
    elements at times, and shape signatures of arity 0-3 over random and
    bounded term algebras; machines of 1-5 states, with bottom states and
    arity-2 and -3 nodes that put one state in several slots, and the
    counter, shape, dual and unit fuels over bounded term algebras; budgets
    5, 20, 50, 10^6 and |C|·|F(A)|."""
    rng = random.Random(seed)
    max3 = finite_monoid("Max3", (0, 1, 2), max, 0)
    sigs = [K2, const_sig(TRUTH_AND), const_sig(max3)] + \
        [shape_sig(m, k) for m in (TRIV, BOOL_OR) for k in (0, 1, 2, 3)]
    for trial in range(count):
        sig = sigs[trial % len(sigs)]
        if sig.kind == "const" and rng.random() < 0.3:
            elems = tuple(range(rng.randint(1, 4)))
            a = finite_algebra(sig, elems, lambda m, k=rng.randrange(len(elems)): k, "free")
        elif sig.kind != "const" and rng.random() < 0.3:
            a = term_algebra_bounded(sig, rng.randint(0, (4, 3, 2, 1)[sig.arity]))
        else:
            a = random_algebra(sig, rng.randint(1, 3 if sig.kind == "const" or sig.arity < 2
                                                else 2), rng)
        c = random_coalgebra(sig, rng.randint(1, 5), rng)
        if sig.kind != "const" and a.term_based and rng.random() < 0.5:
            k = rng.randint(0, a.bound)  # the paper's fuels, under which T_k holds
            c = rng.choice((partial(counter_coalgebra, sig, k), partial(shape_coalgebra, sig, k),
                            partial(term_unfold_coalgebra, sig, k), partial(unit_coalgebra, sig)))()
        elif sig.kind != "const":
            chi, s = dict(c.chi), rng.choice(c.states)
            if rng.random() < 0.3:
                chi[s] = BOTTOM
            elif sig.arity >= 2 and rng.random() < 0.5:
                chi[s] = node(rng.choice(sig.monoid.elements), *(sig.arity * [rng.choice(c.states)]))
            c = coalgebra(sig, c.states, chi, "edited")
        budget = rng.choice((5, 20, 50, 10 ** 6, oracle._build_size(c, a)))
        yield c, a, budget


def test_decision_agrees_with_its_former_forward_pass():
    # the same status; the same witness, or one that the solver confirms on
    # the algebra it names; the same steps wherever a constraint reads at most
    # one cell, as then both queueing rules evaluate the same constraints in
    # the same order, and never more steps than the budget
    statuses = Counter()
    for c, a, budget in _decision_instances(2024, 1200):
        ours, ref = decide_c_initial(c, a, budget), forward_pass_decision(c, a, budget)
        assert ours.status == ref.status, (c.chi, a.name, budget)
        if ours.witnesses != ref.witnesses:
            assert _confirmed(ours, c, a), (c.chi, a.name, ours.witnesses)
        if a.sig.kind == "const" or a.sig.arity <= 1:
            assert ours.checked == ref.checked, (c.chi, a.name, budget)
        assert ours.checked <= budget
        statuses[ours.status] += 1
    assert min(statuses[s] for s in ("holds", "fails", "budget")) > 150, statuses


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


def test_shriek_past_its_budget_reports_budget():
    rng = random.Random(34)
    instances = [(random_coalgebra(F1, 3, rng), random_coalgebra(G1, 3, rng))]
    assert check_adjunction(MU_LIST, "shriek", instances).ok
    report = check_adjunction(MU_LIST, "shriek", instances, budget=1)
    assert report.status == "budget"
    assert report.witnesses == (("instance 1", "budget exceeded"),)


def test_forcing_search_matches_the_product_over_seeded_pairs():
    # the forcing search against every map filtered, in the same order; a
    # budget one step short cuts the search, keeping a prefix of the maps
    rng = random.Random(1601)
    sigs = [K2, F1, G1, shape_sig(TRIV, 2), H2]
    mapped = branched = 0  # pairs with a map, and with two or more
    for trial in range(1000):
        sig = sigs[trial % len(sigs)]
        c = random_coalgebra(sig, rng.randint(0, 5), rng)
        d = random_coalgebra(sig, rng.randint(0, 3), rng)
        expected = product_coalgebra_morphisms(c, d)
        result = coalgebra_morphisms(c, d)
        assert result.solutions == expected, (c.chi, d.chi)
        assert result.exhaustive and result.count == len(expected)
        mapped += len(expected) > 0
        branched += len(expected) > 1
        if result.steps:
            short = coalgebra_morphisms(c, d, budget=result.steps - 1)
            assert not short.exhaustive and short.steps == result.steps
            assert short.solutions == expected[:short.count]
    assert mapped > 300 and branched > 50


def test_forcing_search_handles_a_5000_state_chain():
    # a 5000-state BoolOr list leading into a loop, its states listed from
    # either end: forcing runs down the chain, or the search opens one
    # branch a state; both end with the one map into the loop
    loop = coalgebra(G1, ("x",), {"x": node(0, "x")})
    n = 5000
    chi = {i: node(0, min(i + 1, n - 1)) for i in range(n)}
    for states in (range(n), range(n - 1, -1, -1)):
        result = coalgebra_morphisms(coalgebra(G1, states, chi), loop)
        assert result.exhaustive and result.steps == n
        assert result.solutions == ({i: "x" for i in states},)
    short = coalgebra_morphisms(coalgebra(G1, range(n), chi), loop, budget=n - 1)
    assert (short.exhaustive, short.count, short.steps) == (False, 0, n)


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
