import io
import json
import os
from pathlib import Path

import pytest

from cind import cli, dsl
from cind.kernel import BOTTOM, node

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "cind" / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.cind"))


# ---------------------------------------------------------------------------
# parsing


def test_parse_smallest_monoid_decl():
    script = dsl.parse("monoid B = table {0, 1} max 0")
    assert len(script.decls) == 1
    d = script.decls[0]
    assert d.name == "B"
    assert d.body == ("table", (0, 1), "max", 0)


def test_parse_functor_and_nat_with_resolution():
    text = """
monoid Triv = builtin trivial
monoid B = table {0, 1} max 0
hom eB : Triv -> B = [e -> 0]
functor F = shape(Triv, 1)
functor G = shape(B, 1)
nat mu : F -> G = (hom eB, reindex [1])
"""
    script = dsl.parse(text)
    nat = script.decls[-1]
    assert nat.src == "F" and nat.dst == "G" and nat.reindex == (1,)


def test_parse_rejects_cross_kind_nat():
    text = """
monoid B = table {0, 1} max 0
functor G = shape(B, 1)
functor CB = const(B)
hom idB : B -> B = [0 -> 0, 1 -> 1]
nat bad : G -> CB = (hom idB, reindex [1])
"""
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    assert "kind mismatch" in str(err.value)


def test_parse_error_positions_and_expectations():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("monoid B table {0} max 0")
    e = err.value
    assert e.line == 1 and e.col == 10
    assert "=" in e.expected


def test_parse_unresolved_reference():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("functor F = shape(Ghost, 1)")
    assert "unresolved" in str(err.value)


def test_parse_duplicate_name():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("monoid B = table {0, 1} max 0\nmonoid B = builtin nat")
    assert "duplicate" in str(err.value)


def test_parse_reindex_bounds():
    text = """
monoid B = table {0, 1} max 0
functor G = shape(B, 1)
functor H = shape(B, 2)
hom idB : B -> B = [0 -> 0, 1 -> 1]
nat bad : G -> H = (hom idB, reindex [1, 2])
"""
    with pytest.raises(dsl.DslError) as err:
        dsl.parse(text)
    assert "reindex" in str(err.value)


def test_term_literals():
    assert dsl.parse_term("#b") == BOTTOM
    assert dsl.parse_term("(5 (1 #b #b) #b)") == node(5, node(1, BOTTOM, BOTTOM), BOTTOM)
    assert dsl.parse_term("[0, 1, 2]") == node(0, node(1, node(2, BOTTOM)))
    with pytest.raises(dsl.DslError):
        dsl.parse_term("(5 (1 #b #b)")


def test_bottom_token_versus_comment():
    script = dsl.parse("# a comment mentioning #b stays a comment\n"
                       "monoid B = table {0, 1} max 0\n")
    assert len(script.decls) == 1
    # a bare bottom token outside a term is a syntax error, not a comment
    with pytest.raises(dsl.DslError):
        dsl.parse("#b\nmonoid B = table {0, 1} max 0\n")


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_roundtrip_on_fixture_corpus(path):
    text = path.read_text()
    once = dsl.parse(text)
    again = dsl.parse(dsl.print_script(once))
    assert once == again


def test_roundtrip_covers_every_construct():
    text = """
monoid Nat = builtin nat
monoid B = table {0, 1} max 0
monoid MA = table {T, F} and T
hom idB : B -> B = [0 -> 0, 1 -> 1]
functor F = shape(B, 1)
functor H = shape(B, 2)
functor CM = const(MA)
nat dup : F -> H = (hom idB, reindex [1, 1])
alg L1 = bounded(F, 1)
alg Li = initial(F)
alg LP = pullback(dup, Li)
alg T1 = expand(dup, L1)
alg AC = constalg(CM, {x, y}, {T -> x, F -> y})
coalg U = unit(F)
coalg C1 = counter(F, 1)
coalg S1 = shapes(H, 1)
coalg D1 = dual(L1)
coalg TT = tensor(C1, D1)
coalg PF = pushforward(dup, C1)
coalg M1 = machine(F, {a -> (0 b), b -> #b})
measure phi = solve(D1, L1, L1)
check law phi
check unique D1 L1 L1
check count D1 L1 L1 1
check c-initial D1 L1 2 3
"""
    once = dsl.parse(text)
    printed = dsl.print_script(once)
    assert dsl.parse(printed) == once
    # printing is idempotent on the canonical form
    assert dsl.print_script(dsl.parse(printed)) == printed


# ---------------------------------------------------------------------------
# running scripts


def test_run_passing_script():
    script = dsl.parse((FIXTURE_DIR / "truth_monoid.cind").read_text())
    reports, code = dsl.run(script)
    assert code == 0
    assert all(r.ok for r in reports)


def test_run_false_uniqueness_yields_two_witness_tables():
    text = """
monoid B = table {0, 1} max 0
functor CB = const(B)
alg A2 = constalg(CB, {x, y}, {0 -> x, 1 -> x})
coalg C1 = machine(CB, {c -> 0})
check count C1 A2 A2 1
"""
    reports, code = dsl.run(dsl.parse(text))
    assert code == 1
    failing = [r for r in reports if r.status == "fails"]
    assert len(failing) == 1
    # the first witness summarises, the next two are the tables themselves
    assert len(failing[0].witnesses) == 3


def test_run_reports_roundtrip_through_json():
    script = dsl.parse((FIXTURE_DIR / "truth_monoid.cind").read_text())
    reports, _ = dsl.run(script)
    blob = json.loads(dsl.reports_to_json(reports))
    assert [r["claim"] for r in blob] == [r.claim for r in reports]
    assert all(set(r) == {"claim", "instance", "status", "coverage", "witnesses"}
               for r in blob)


def test_measure_with_no_solution_fails_gracefully():
    # no lawful table exists: both labels interpret to the same source
    # element, but under unit fuel the target separates them, so the one
    # pinned cell is forced to two different values
    text = """
monoid B = table {0, 1} max 0
functor CB = const(B)
alg A2 = constalg(CB, {x, y}, {0 -> x, 1 -> y})
alg B2 = constalg(CB, {p, q}, {0 -> p, 1 -> p})
coalg C1 = machine(CB, {c -> 0})
measure phi = solve(C1, B2, A2)
check law phi
"""
    reports, code = dsl.run(dsl.parse(text))
    assert code == 1
    assert reports[0].claim == "solve" and reports[0].status == "fails"
    assert reports[1].claim == "law" and reports[1].status == "fails"


def test_machine_with_unknown_state_is_a_run_error():
    text = """
monoid B = table {0, 1} max 0
functor F = shape(B, 1)
coalg M = machine(F, {a -> (0 ghost)})
"""
    with pytest.raises(dsl.ScriptRunError):
        dsl.run(dsl.parse(text))


# ---------------------------------------------------------------------------
# CLI


def _main(argv, env=None):
    out = io.StringIO()
    old = {}
    env = env or {}
    for k, v in env.items():
        old[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        code = cli.main(argv, out=out)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


def test_cli_check_ok_and_json():
    path = str(FIXTURE_DIR / "truth_monoid.cind")
    code, text = _main(["check", path])
    assert code == 0
    assert "[holds]" in text
    code, text = _main(["check", path, "--json"])
    assert code == 0
    json.loads(text)


def test_cli_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.cind"
    bad.write_text("""
monoid B = table {0, 1} max 0
functor CB = const(B)
alg A2 = constalg(CB, {x, y}, {0 -> x, 1 -> x})
coalg C1 = machine(CB, {c -> 0})
check count C1 A2 A2 1
""")
    code, _ = _main(["check", str(bad)])
    assert code == 1


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "syntax.cind"
    bad.write_text("monoid = ")
    code, _ = _main(["check", str(bad)])
    assert code == 2


def test_cli_budget_exit_code(capsys):
    path = str(FIXTURE_DIR / "nat_as_lists.cind")
    code, _ = _main(["check", path], env={"CIND_BUDGET": "1"})
    assert code == 3
    code, _ = _main(["check", path, "--budget", "1"])
    assert code == 3
    code, _ = _main(["check", path], env={"CIND_BUDGET": "abc"})
    assert code == 2
    assert "cind: CIND_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err


def test_cli_demo_prune_clauses():
    code, text = _main(["demo", "prune", "--shape", "#b",
                        "--tree", "(5 (1 #b #b) #b)"])
    assert code == 0 and text.strip() == "#b"
    code, text = _main(["demo", "prune", "--shape", "(0 #b #b)",
                        "--tree", "(5 (1 #b #b) #b)"])
    assert code == 0 and text.strip() == "(5 #b #b)"
    shape = "(0 (0 #b #b) #b)"
    code, text = _main(["demo", "prune", "--shape", shape, "--tree", shape])
    assert code == 0 and text.strip() == shape


def test_cli_demo_prune_rejects_bad_terms():
    code, _ = _main(["demo", "prune", "--shape", "(0 #b", "--tree", "#b"])
    assert code == 2
    code, _ = _main(["demo", "prune", "--shape", "(e #b #b)", "--tree", "#b"])
    assert code == 2


def test_cli_gallery_unknown_name():
    code, _ = _main(["gallery", "mystery"])
    assert code == 2


def test_cli_no_command_is_usage_error():
    code, _ = _main([])
    assert code == 2


def test_cli_demo_without_subcommand_is_usage_error():
    code, _ = _main(["demo"])
    assert code == 2


def _check_script(tmp_path, text):
    path = tmp_path / "script.cind"
    path.write_text(text)
    return _main(["check", str(path)])


def test_cli_label_outside_carrier_is_a_run_error(tmp_path, capsys):
    code, _ = _check_script(tmp_path, """monoid B = table {0, 1} max 0
functor K = const(B)
alg A = constalg(K, {x, y}, {0 -> x, 1 -> z})
coalg C = machine(K, {c -> 0})
check unique C A A
""")
    assert code == 2
    assert "5:1: structure map" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["check unique D L L", "check c-initial D L"])
def test_cli_check_over_builtin_nat_is_a_run_error(tmp_path, capsys, check):
    code, _ = _check_script(tmp_path, f"""monoid N = builtin nat
functor G = shape(N, 1)
alg L = initial(G)
coalg D = counter(G, 2)
{check}
""")
    assert code == 2
    assert "5:1:" in capsys.readouterr().err


_NAT_LISTS = """monoid Triv = builtin trivial
functor F = shape(Triv, 1)
alg L = bounded(F, 2)
coalg D = counter(F, 2)
"""


def test_cli_count_without_its_number_is_a_parse_error(tmp_path, capsys):
    code, _ = _check_script(tmp_path, _NAT_LISTS + "check count D L L\n")
    assert code == 2
    assert "5:1: check count needs the expected number" in capsys.readouterr().err


@pytest.mark.parametrize("check,extra", [("check unique D L L 7", "7"),
                                         ("check c-initial D L 1 1 9", "9"),
                                         ("check count D L L 1 2", "2")])
def test_cli_check_with_extra_numbers_is_a_parse_error(tmp_path, capsys, check, extra):
    code, out = _check_script(tmp_path, _NAT_LISTS + check + "\n")
    assert code == 2
    assert not out
    assert f"5:1: check {check.split()[1]}: extra number {extra}; usage: " in capsys.readouterr().err


def test_cli_check_with_extra_references_is_a_parse_error(tmp_path, capsys):
    code, _ = _check_script(tmp_path, _NAT_LISTS + "check unique D L L L\n")
    assert code == 2
    assert "5:1: check unique needs 3 references; usage: check unique COALG ALG ALG" \
        in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["0 5", "2 0"])
def test_cli_c_initial_over_no_targets_is_a_parse_error(tmp_path, capsys, bounds):
    code, _ = _check_script(tmp_path, _NAT_LISTS + f"check c-initial D L {bounds}\n")
    assert code == 2
    assert "5:1: check c-initial needs" in capsys.readouterr().err
