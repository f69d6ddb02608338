"""Acceptance suite: every criterion at its stated bound, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import functools
import io
import itertools
import random
import time
from pathlib import Path


from cind import cli, dsl
from cind.carriers import (coalgebra, coalgebras_identical, finite_algebra,
                           initial_term_algebra, nat_counter, perfect_shape,
                           shape_coalgebra, term_algebra_bounded,
                           term_unfold_coalgebra, tensor_coalgebra,
                           unit_coalgebra)
from cind.gallery import GALLERY
from cind.kernel import (BOOL_OR, BOTTOM, STAR, TRIV, TRUTH_AND, TRUTH_OR,
                         collapse_hom, const_sig, hom, identity_hom,
                         nat_transform, node, shape_sig, unit_hom)
from cind.measuring import (canonical_term_measuring, check_law, compose,
                            from_morphism, table_measuring, to_morphism)
from cind.oracle import (check_adjunction, check_preserves_c_initial,
                         check_respects_composition, decide_c_initial,
                         random_algebra, random_algebras, random_coalgebra,
                         raw_lawful_tables, solve_measurings)
from cind.transport import (expand_algebra, pullback_algebra,
                            pushforward_coalgebra, pushout_algebra)

F1 = shape_sig(TRIV, 1)
G1 = shape_sig(BOOL_OR, 1)
H2 = shape_sig(BOOL_OR, 2)
T2 = shape_sig(TRIV, 2)
MU_LIST = nat_transform(F1, G1, unit_hom(BOOL_OR), (0,), name="mu")
NU_LIST = nat_transform(G1, F1, collapse_hom(BOOL_OR), (0,), name="nu")
MU_PERF = nat_transform(F1, T2, unit_hom(TRIV), (0, 0), name="perfect")
MU_DUP = nat_transform(G1, H2, identity_hom(BOOL_OR), (0, 0), name="dup")
FLIP = hom(TRUTH_AND, TRUTH_OR, {"T": "F", "F": "T"}, inverse={"T": "F", "F": "T"})
MU_FLIP = nat_transform(const_sig(TRUTH_AND), const_sig(TRUTH_OR), FLIP, name="flip")

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "cind" / "fixtures"


def _criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)  # keeps fn's signature, so pytest passes its fixtures
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
        return wrapped
    return deco


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


@_criterion(1, "law suite over gallery fixtures and enumerated instances (< 30 s)")
def test_criterion_01_measuring_law_suite(gallery_fixture):
    start = time.monotonic()
    for name in sorted(GALLERY):
        fixture = gallery_fixture(name)
        lawful = []
        for phi, kwargs in fixture.measurings:
            # base fuels stay within 8 states; compose outputs carry product
            # fuel and may square that bound
            assert len(phi.coalg.states) <= 64
            assert check_law(phi, **kwargs).ok, f"{name}: {phi.name}"
            lawful.append((phi, kwargs))
        # compose every composable pair of fixture measurings and recheck
        for (psi, kw1), (phi, kw2) in itertools.product(lawful, repeat=2):
            if psi.source is not phi.target:
                continue
            both = dict(kw2)
            assert check_law(compose(psi, phi), **both).ok, f"{name}: composite"
    # systematic enumeration: fuel machines up to 8 states, carriers of depth
    # up to 3, label monoids of size up to 2
    instances = [
        (F1, term_algebra_bounded(F1, 3),
         [unit_coalgebra(F1), nat_counter(3), term_unfold_coalgebra(F1, 2)]),
        (G1, term_algebra_bounded(G1, 2),
         [unit_coalgebra(G1), term_unfold_coalgebra(G1, 2),
          pushforward_coalgebra(MU_LIST, nat_counter(2))]),
        (H2, term_algebra_bounded(H2, 1),
         [unit_coalgebra(H2), shape_coalgebra(H2, 1), perfect_shape(H2, 2)]),
    ]
    for sig, alg, machines in instances:
        assert len(sig.monoid.elements) <= 2
        for c in machines:
            assert len(c.states) <= 8
            phi = canonical_term_measuring(c, alg, alg)
            assert check_law(phi).ok
        for d, c in itertools.product(machines, repeat=2):
            composite = compose(canonical_term_measuring(d, alg, alg),
                                canonical_term_measuring(c, alg, alg))
            assert len(composite.coalg.states) <= 64
            assert check_law(composite).ok
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"law suite took {elapsed:.1f}s"


@_criterion(2, "unit-fuel measurings biject with algebra morphisms (>= 20 pairs)")
def test_criterion_02_morphism_bijection():
    rng = random.Random(202)
    pairs = []
    for sig in (F1, G1, const_sig(BOOL_OR), const_sig(TRUTH_AND)):
        for _ in range(5):
            pairs.append((sig, random_algebra(sig, rng.randint(1, 3), rng),
                          random_algebra(sig, rng.randint(1, 3), rng)))
    pairs.append((F1, term_algebra_bounded(F1, 2), term_algebra_bounded(F1, 2)))
    assert len(pairs) >= 20
    for sig, a, b in pairs:
        unit = unit_coalgebra(sig)
        solved = solve_measurings(unit, a, b)
        assert solved.exhaustive
        morphisms = [{x: t[STAR, x] for x in a.elements}
                     for t in raw_lawful_tables(unit, a, b)]
        assert len(solved.solutions) == len(morphisms)
        for f in morphisms:
            phi = from_morphism(f, a, b)
            assert to_morphism(phi) == f
            table = {(STAR, x): f[x] for x in a.elements}
            assert table in [dict(t) for t in solved.solutions]
        for t in solved.solutions:
            g = to_morphism(table_measuring(unit, a, b, t))
            assert {(STAR, x): g[x] for x in a.elements} == t


def _one_measuring_into_each(c, a, targets):
    """The solver's cross-check of a decided c-initiality: exactly one
    measuring into each seeded target."""
    for b in targets:
        assert solve_measurings(c, a, b, keep=2).count == 1, b.name


@_criterion(3, "bounded trees are uniquely measurable by their shape fuel (< 60 s)")
def test_criterion_03_c_initiality():
    start = time.monotonic()
    for monoid in (TRIV, BOOL_OR):
        sig = shape_sig(monoid, 2)
        for n in (0, 1, 2):
            trees = term_algebra_bounded(sig, n)
            shapes = shape_coalgebra(sig, n)
            report = decide_c_initial(shapes, trees)
            assert report.ok, f"{monoid.name} n={n}: {report.witnesses[:2]}"
            assert report.coverage == "exhaustive"
            _one_measuring_into_each(shapes, trees,
                                     random_algebras(sig, (1, 2, 3), 25, seed=300 + n))
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"c-initiality took {elapsed:.1f}s"


@_criterion(4, "the unique length-fuel measuring sends (i, j) to min(i, j) units")
def test_criterion_04_min_closed_form():
    n4 = term_algebra_bounded(F1, 4)
    fuel = nat_counter(4)
    lists = pullback_algebra(MU_LIST, initial_term_algebra(G1))
    phi = canonical_term_measuring(fuel, n4, lists)
    assert check_law(phi).ok
    for i in range(5):
        for j in range(5):
            assert phi.eval(i, _numeral(j)) == _elist(min(i, j))
    # uniqueness at the solver level against the bounded list target
    bounded_lists = pullback_algebra(MU_LIST, term_algebra_bounded(G1, 4))
    result = solve_measurings(fuel, n4, bounded_lists)
    assert result.exhaustive and len(result.solutions) == 1
    table = result.solutions[0]
    for i in range(5):
        for j in range(5):
            assert table[i, _numeral(j)] == _elist(min(i, j))


@_criterion(5, "pushforward preserves product machines strictly (all pairs, <= 4 states)")
def test_criterion_05_strictness():
    rng = random.Random(505)
    cases = [
        (MU_LIST, [unit_coalgebra(F1), nat_counter(1), nat_counter(3),
                   term_unfold_coalgebra(F1, 2),
                   random_coalgebra(F1, 4, rng), random_coalgebra(F1, 3, rng)]),
        (MU_PERF, [unit_coalgebra(F1), nat_counter(2),
                   random_coalgebra(F1, 4, rng), random_coalgebra(F1, 2, rng)]),
        (MU_DUP, [unit_coalgebra(G1), term_unfold_coalgebra(G1, 1),
                  random_coalgebra(G1, 4, rng), random_coalgebra(G1, 3, rng)]),
        (MU_FLIP, [unit_coalgebra(const_sig(TRUTH_AND)),
                   random_coalgebra(const_sig(TRUTH_AND), 4, rng),
                   random_coalgebra(const_sig(TRUTH_AND), 3, rng)]),
    ]
    for mu, machines in cases:
        assert all(len(m.states) <= 4 for m in machines)
        for d, c in itertools.product(machines, repeat=2):
            left = pushforward_coalgebra(mu, tensor_coalgebra(d, c))
            right = tensor_coalgebra(pushforward_coalgebra(mu, d),
                                     pushforward_coalgebra(mu, c))
            assert coalgebras_identical(left, right)


@_criterion(6, "adjunction bijections: >= 20 pushout-side and >= 20 restriction-side (< 60 s)")
def test_criterion_06_adjunctions():
    start = time.monotonic()
    rng = random.Random(606)
    bang = []
    for mu in (MU_FLIP,
               nat_transform(const_sig(BOOL_OR), const_sig(BOOL_OR),
                             identity_hom(BOOL_OR), name="id"),
               nat_transform(const_sig(TRIV), const_sig(BOOL_OR),
                             unit_hom(BOOL_OR), name="eB")):
        for _ in range(7):
            a = random_algebra(mu.source, rng.randint(1, 4), rng)
            b = random_algebra(mu.target, rng.randint(1, 4), rng)
            bang.append((mu, a, b))
    assert len(bang) >= 20
    by_mu = {}
    for mu, a, b in bang:
        by_mu.setdefault(mu, []).append((a, b))
    for mu, instances in by_mu.items():
        report = check_adjunction(mu, "bang", instances)
        assert report.ok, report.witnesses[:2]

    shriek = [(random_coalgebra(F1, rng.randint(1, 5), rng),
               random_coalgebra(G1, rng.randint(1, 5), rng))
              for _ in range(21)]
    assert len(shriek) >= 20
    report = check_adjunction(MU_LIST, "shriek", shriek)
    assert report.ok, report.witnesses[:2]
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"adjunction suite took {elapsed:.1f}s"


@_criterion(7, "transports respect measuring composition (all pairs per transport)")
def test_criterion_07_respects_composition():
    n2 = term_algebra_bounded(F1, 2)
    fuels_f = [unit_coalgebra(F1), nat_counter(1), nat_counter(2),
               term_unfold_coalgebra(F1, 2)]
    embed_pairs = [(NU_LIST, MU_LIST,
                    canonical_term_measuring(d, n2, n2),
                    canonical_term_measuring(c, n2, n2))
                   for d in fuels_f for c in fuels_f]
    assert check_respects_composition("embed", embed_pairs).ok

    l1 = term_algebra_bounded(G1, 1)
    fuels_g1 = [unit_coalgebra(G1), term_unfold_coalgebra(G1, 1),
                pushforward_coalgebra(MU_LIST, nat_counter(1))]
    push_pairs = [(MU_DUP, canonical_term_measuring(d, l1, l1),
                   canonical_term_measuring(c, l1, l1))
                  for d in fuels_g1 for c in fuels_g1]
    l2 = term_algebra_bounded(G1, 2)
    deeper = [unit_coalgebra(G1), term_unfold_coalgebra(G1, 2)]
    push_pairs += [(MU_DUP, canonical_term_measuring(d, l2, l2),
                    canonical_term_measuring(c, l2, l2))
                   for d in deeper for c in deeper]
    assert check_respects_composition("push", push_pairs).ok

    am = finite_algebra(const_sig(TRUTH_AND), ("T", "F"), lambda x: x, "AM")
    from cind.measuring import canonical_const_measuring
    const_fuels = [unit_coalgebra(const_sig(TRUTH_AND)),
                   coalgebra(const_sig(TRUTH_AND), ("c0", "c1"),
                             {"c0": "T", "c1": "F"}, "Cc")]
    push_const_pairs = [(MU_FLIP, canonical_const_measuring(d, am, am),
                         canonical_const_measuring(c, am, am))
                        for d in const_fuels for c in const_fuels]
    assert check_respects_composition("push", push_const_pairs).ok

    fuels_g2 = [unit_coalgebra(G1), term_unfold_coalgebra(G1, 2),
                pushforward_coalgebra(MU_LIST, nat_counter(2))]
    pull_pairs = [(MU_LIST, canonical_term_measuring(d, l2, l2),
                   canonical_term_measuring(c, l2, l2))
                  for d in fuels_g2 for c in fuels_g2]
    l3 = term_algebra_bounded(G1, 3)
    dual3 = term_unfold_coalgebra(G1, 3)
    pull_pairs.append((MU_LIST, canonical_term_measuring(dual3, l3, l3),
                       canonical_term_measuring(dual3, l3, l3)))
    assert check_respects_composition("pull", pull_pairs).ok


@_criterion(8, "T_n^G is c-initial for the pushed perfect-tree fuel (n = 1, 2)")
def test_criterion_08_preservation():
    for n in (1, 2):
        numerals = term_algebra_bounded(F1, n)
        fuel = nat_counter(n)
        expanded = expand_algebra(MU_PERF, numerals)
        reference = term_algebra_bounded(T2, n)
        assert expanded.algebra.elements == reference.elements
        assert coalgebras_identical(pushforward_coalgebra(MU_PERF, fuel),
                                    perfect_shape(T2, n))
        report = check_preserves_c_initial(MU_PERF, fuel, numerals)
        assert report.ok, report.witnesses[:2]
        assert report.coverage == "exhaustive"
        _one_measuring_into_each(fuel, numerals,
                                 random_algebras(F1, (1, 2, 3), 8, seed=800 + n))
        _one_measuring_into_each(pushforward_coalgebra(MU_PERF, fuel), expanded.algebra,
                                 random_algebras(T2, (1, 2, 3), 8, seed=810 + n))


@_criterion(9, "solver output equals the raw filter oracle (>= 50 instances)")
def test_criterion_09_solver_vs_raw():
    rng = random.Random(909)
    sigs = [F1, G1, H2, const_sig(BOOL_OR), const_sig(TRUTH_AND)]
    count = 0
    for trial in range(52):
        sig = sigs[trial % len(sigs)]
        nb = 3 if trial % 3 else 2
        c = random_coalgebra(sig, rng.randint(1, 3), rng)
        a = random_algebra(sig, rng.randint(1, 4), rng)
        b = random_algebra(sig, nb, rng)
        cells = len(c.states) * len(a.elements)
        if len(b.elements) ** cells > 2 ** 18:
            b = random_algebra(sig, 2, rng)
        assert len(b.elements) ** cells <= 2 ** 18
        result = solve_measurings(c, a, b)
        assert result.exhaustive
        raw = raw_lawful_tables(c, a, b)
        key = lambda t: tuple(sorted(t.items(), key=repr))
        assert sorted(map(key, result.solutions)) == sorted(map(key, raw))
        count += 1
    assert count >= 50


@_criterion(10, "the truth-value pushout swaps the two interpretations")
def test_criterion_10_truth_pushout():
    a3 = finite_algebra(const_sig(TRUTH_AND), ("ta", "fa", "other"),
                        lambda x: {"T": "ta", "F": "fa"}[x], "A3")
    p = pushout_algebra(FLIP, a3)
    assert p.classes == ((("alg", "ta"), ("mon", "F")),
                         (("alg", "fa"), ("mon", "T")),
                         (("alg", "other"),))
    # the new structure map interprets each truth value as the old other one
    assert p.algebra.alpha("T") == ("alg", "fa")
    assert p.algebra.alpha("F") == ("alg", "ta")


@_criterion(11, "script round trips, CLI exit codes, and pruning goldens")
def test_criterion_11_dsl_and_cli():
    for path in sorted(FIXTURE_DIR.glob("*.cind")):
        once = dsl.parse(path.read_text())
        assert dsl.parse(dsl.print_script(once)) == once

    def run(argv, env=None):
        import os
        out = io.StringIO()
        saved = {}
        for k, v in (env or {}).items():
            saved[k] = os.environ.get(k)
            os.environ[k] = v
        try:
            return cli.main(argv, out=out), out.getvalue()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    ok_path = str(FIXTURE_DIR / "truth_monoid.cind")
    assert run(["check", ok_path])[0] == 0
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".cind", delete=False) as fh:
        fh.write("monoid B = table {0, 1} max 0\n"
                 "functor CB = const(B)\n"
                 "alg A2 = constalg(CB, {x, y}, {0 -> x, 1 -> x})\n"
                 "coalg C1 = machine(CB, {c -> 0})\n"
                 "check count C1 A2 A2 1\n")
        fail_path = fh.name
    assert run(["check", fail_path])[0] == 1
    with tempfile.NamedTemporaryFile("w", suffix=".cind", delete=False) as fh:
        fh.write("monoid = broken\n")
        broken_path = fh.name
    assert run(["check", broken_path])[0] == 2
    assert run(["check", str(FIXTURE_DIR / "nat_as_lists.cind")],
               env={"CIND_BUDGET": "1"})[0] == 3

    code, text = run(["gallery", "tree_pruning"])
    assert code == 0
    assert "prune #b (5 (1 #b #b) #b) -> #b" in text
    assert "prune (0 #b #b) (5 (1 #b #b) #b) -> (5 #b #b)" in text
    assert "push [0,1,2] (5 (1 #b #b) (7 #b #b)) -> (5 (2 #b #b) (8 #b #b))" in text

    code, text = run(["demo", "prune", "--shape", "#b", "--tree", "(1 #b #b)"])
    assert code == 0 and text.strip() == "#b"
