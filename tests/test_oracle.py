import random

import pytest

from cind import oracle
from cind.carriers import (coalgebra, finite_algebra, initial_term_algebra,
                           nat_counter, shape_coalgebra, term_algebra_bounded,
                           term_unfold_coalgebra, unit_coalgebra)
from cind.kernel import (BOOL_OR, BOTTOM, TRIV, TRUTH_AND, collapse_hom,
                         const_sig, identity_hom, identity_nat, is_bottom,
                         nat_transform, shape_sig, unit_hom)
from cind.measuring import Measuring, canonical_term_measuring, check_law
from cind.oracle import (check_adjunction, check_c_initial,
                         check_preinitial_subterminal,
                         check_preserves_c_initial,
                         check_respects_composition, random_algebra,
                         random_algebras, random_coalgebra,
                         raw_lawful_tables, solve_measurings,
                         solutions_as_measurings)

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)
MU_LIST = nat_transform(F1, G1, unit_hom(BOOL_OR), (0,), name="mu")


def _canonical(tables):
    return sorted(tuple(sorted(t.items(), key=repr)) for t in tables)


# ---------------------------------------------------------------------------
# solver vs raw filter


def test_solver_matches_raw_filter_on_seeded_instances():
    rng = random.Random(100)
    sigs = [F1, G1, const_sig(BOOL_OR), const_sig(TRUTH_AND)]
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
    targets = random_algebras(F1, (1, 2, 3), 5, seed=50)
    report = check_c_initial(nat_counter(2), term_algebra_bounded(F1, 2), targets)
    assert report.ok


def test_non_preinitial_source_fails_with_witnesses():
    # an uninterpreted extra element admits several measurings
    a = finite_algebra(F1, ("z", "w"),
                       lambda v: "z", "loose")
    targets = [random_algebra(F1, 2, random.Random(9))]
    report = check_c_initial(nat_counter(1), a, targets)
    assert not report.ok
    assert report.witnesses


def test_check_c_initial_budget_status():
    targets = random_algebras(F1, (2,), 1, seed=51)
    report = check_c_initial(nat_counter(2), term_algebra_bounded(F1, 2),
                             targets, budget=1)
    assert report.status == "budget"


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


def test_check_preserves_c_initial_pipeline():
    mu2 = nat_transform(F1, H2, unit_hom(BOOL_OR), (0, 0), name="perfect")
    report = check_preserves_c_initial(
        mu2, nat_counter(1), term_algebra_bounded(F1, 1),
        random_algebras(F1, (1, 2), 3, seed=60),
        random_algebras(H2, (1, 2), 3, seed=61))
    assert report.ok


def test_check_preserves_c_initial_identity_matches_plain_check():
    ident = identity_nat(F1)
    targets = random_algebras(F1, (1, 2), 3, seed=62)
    report = check_preserves_c_initial(ident, nat_counter(1),
                                       term_algebra_bounded(F1, 1),
                                       targets, targets)
    plain = check_c_initial(nat_counter(1), term_algebra_bounded(F1, 1), targets)
    assert report.ok == plain.ok


def test_list_fuel_expansion_small_instance():
    # pushing the length-bounded list dual forward makes the expanded tree
    # algebra uniquely measurable by it
    gb, hb = G1, H2
    mub = nat_transform(gb, hb, identity_hom(BOOL_OR), (0, 0), name="dupb")
    from cind.transport import expand_algebra, pushforward_coalgebra
    l1 = term_algebra_bounded(gb, 1)
    t1 = expand_algebra(mub, l1).algebra
    fuel = pushforward_coalgebra(mub, term_unfold_coalgebra(gb, 1))
    report = check_c_initial(fuel, t1, random_algebras(hb, (1, 2, 3), 5, seed=63))
    assert report.ok


# ---------------------------------------------------------------------------
# reports


def test_reports_are_deterministic_and_serialisable():
    targets = random_algebras(F1, (1, 2), 2, seed=70)
    r1 = check_c_initial(nat_counter(1), term_algebra_bounded(F1, 1), targets)
    r2 = check_c_initial(nat_counter(1), term_algebra_bounded(F1, 1), targets)
    assert r1 == r2
    blob = r1.to_json()
    assert blob["status"] == "holds"
    assert set(blob) == {"claim", "instance", "status", "coverage", "witnesses"}
    import json
    json.dumps(blob)
