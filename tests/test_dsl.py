import io
import json
import os
from pathlib import Path

import pytest

from cind import cli, dsl
from cind.kernel import BOTTOM, node

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "cind" / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"
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


def test_tokenize_pins_every_token_kind():
    # a hyphenated name, #b beside a #bx comment, ->, a tab and a \r
    tokens = dsl.tokenize("alg a-b = f(12, [x]) -> #b#bx note\n\t{k:\r7}")
    assert [(t.kind, t.value, t.line, t.col) for t in tokens] == [
        ("NAME", "alg", 1, 1), ("NAME", "a-b", 1, 5), ("SYM", "=", 1, 9),
        ("NAME", "f", 1, 11), ("SYM", "(", 1, 12), ("INT", 12, 1, 13), ("SYM", ",", 1, 15),
        ("SYM", "[", 1, 17), ("NAME", "x", 1, 18), ("SYM", "]", 1, 19), ("SYM", ")", 1, 20),
        ("SYM", "->", 1, 22), ("BOTTOM", "#b", 1, 25),
        ("SYM", "{", 2, 2), ("NAME", "k", 2, 3), ("SYM", ":", 2, 4), ("INT", 7, 2, 6),
        ("SYM", "}", 2, 7), ("EOF", None, 2, 8)]
    # after a trailing comment, EOF sits at the end of the line
    assert dsl.tokenize("a # note")[-1] == dsl.Token("EOF", None, 1, 9)


def test_tokenize_unexpected_character_position():
    with pytest.raises(dsl.DslError) as err:
        dsl.tokenize("alg A = x\n  b ! c\n")
    assert (err.value.line, err.value.col) == (2, 5)
    assert str(err.value) == "2:5: unexpected character '!'"


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
monoid MO = table {T, F} or F
hom idB : B -> B = [0 -> 0, 1 -> 1]
hom flip : MA -> MO = [T -> F, F -> T]
functor F = shape(B, 1)
functor H = shape(B, 2)
functor CM = const(MA)
functor CO = const(MO)
nat dup : F -> H = (hom idB, reindex [1, 1])
nat cflip : CM -> CO = (hom flip)
alg L1 = bounded(F, 1)
alg Li = initial(F)
alg LP = pullback(dup, Li)
alg T1 = expand(dup, L1)
alg AC = constalg(CM, {x, y}, {T -> x, F -> y})
alg PO = pushout(cflip, AC)
coalg U = unit(F)
coalg C1 = counter(F, 1)
coalg S1 = shapes(H, 1)
coalg D1 = dual(L1)
coalg TT = tensor(C1, D1)
coalg PF = pushforward(dup, C1)
coalg R1 = restrict(dup, S1)
coalg M1 = machine(F, {a -> (0 b), b -> #b})
measure phi = solve(D1, L1, L1)
check law phi
check unique D1 L1 L1
check count D1 L1 L1 1
check c-initial D1 L1 2 3
"""
    once = dsl.parse(text)
    # every constructor row appears, so a new row cannot skip the round trip
    assert {(d.which, d.head) for d in once.decls
            if isinstance(d, dsl.CallDecl)} == set(dsl._CONSTRUCTORS)
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


def test_cli_check_of_a_script_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.cind"
    bad.write_bytes(b"monoid B = table {0, 1} max 0 # \xff\n")
    code, _ = _main(["check", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith("cind: 'utf-8' codec can't decode byte 0xff")


def test_cli_budget_exit_code(capsys):
    path = str(FIXTURE_DIR / "nat_as_lists.cind")
    code, _ = _main(["check", path], env={"CIND_BUDGET": "1"})
    assert code == 3
    code, _ = _main(["check", path, "--budget", "1"])
    assert code == 3
    code, _ = _main(["check", path], env={"CIND_BUDGET": "abc"})
    assert code == 2
    assert "cind: CIND_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err
    code, _ = _main(["check", path, "--budget", "-5"])
    assert code == 2
    assert "cind: --budget must not be negative, got -5" in capsys.readouterr().err
    code, _ = _main(["check", path], env={"CIND_BUDGET": "-5"})
    assert code == 2
    assert "cind: CIND_BUDGET must not be negative, got -5" in capsys.readouterr().err
    code, _ = _main(["check", path, "--budget", "0"])
    assert code == 3


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


def _deep_shape(depth):
    return "(1 " * depth + "#b" + " #b)" * depth


def test_deep_terms_parse_without_recursion():
    t = dsl.parse_term(_deep_shape(5000))
    for _ in range(5000):
        assert t.label == 1 and t.slots[1] == BOTTOM
        t = t.slots[0]
    assert t == BOTTOM
    assert dsl.parse_term("(a (b) [0, 1] #b)") == node("a", node("b"), node(0, node(1, BOTTOM)), BOTTOM)


def test_cli_demo_prune_of_a_deep_shape():
    code, text = _main(["demo", "prune", "--shape", _deep_shape(1200), "--tree", "(1 #b #b)"])
    assert code == 0 and text.strip() == "(2 #b #b)"


def test_cli_demo_prune_rejects_bad_terms(capsys):
    code, _ = _main(["demo", "prune", "--shape", "(0 #b", "--tree", "#b"])
    assert code == 2
    assert capsys.readouterr().err.startswith("cind: parse error: 1:6: ")
    # a term of the wrong form has no position in the text, so none is printed
    for shape, tree, which in (("(e #b #b)", "#b", "shape"), ("(0 #b #b)", "(5 #b)", "tree")):
        code, _ = _main(["demo", "prune", "--shape", shape, "--tree", tree])
        assert code == 2
        assert capsys.readouterr().err == (
            f"cind: parse error: {which} must be a binary tree with natural-number labels\n")


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
    assert "3:1: constalg structure map leaves the carrier: 1 -> z" in capsys.readouterr().err


def test_cli_target_outside_its_carrier_is_an_elaboration_error(tmp_path, capsys):
    code, out = _check_script(tmp_path, """monoid M = table {0, 1} max 0
functor K = const(M)
alg A = constalg(K, {a0, a1}, {0 -> a0, 1 -> a1})
alg B = constalg(K, {b0, b1}, {0 -> b0, 1 -> b2})
coalg C = machine(K, {c -> 0})
check count C A B 1
""")
    assert code == 2
    assert out == ""
    assert "4:1: constalg structure map leaves the carrier: 1 -> b2" in capsys.readouterr().err


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


@pytest.mark.parametrize("numbers", ["0 5", "2 0", "3"])
def test_cli_c_initial_decides_whatever_numbers_trail_it(tmp_path, numbers):
    # the two numbers that once sized its random targets still parse, unused
    bare = _check_script(tmp_path, _NAT_LISTS + "check c-initial D L\n")
    assert bare == (0, "[holds] c-initial counter2 (x) T2[shape(Triv,1)]  (exhaustive)\n")
    assert _check_script(tmp_path, _NAT_LISTS + f"check c-initial D L {numbers}\n") == bare


# ---------------------------------------------------------------------------
# constructor calls, checked against their table row

# one declaration of each kind a constructor can reference; a call follows on line 8
_PRELUDE = """monoid M = table {0, 1} max 0
hom h : M -> M = [0 -> 0, 1 -> 1]
functor F = shape(M, 1)
nat n : F -> F = (hom h, reindex [1])
alg A = bounded(F, 1)
coalg C = counter(F, 1)
measure P = solve(C, A, A)
"""
_LITERALS = {"int": "1", "set": "{x, y}", "map": "{x -> 0}"}
_NAMES = {"monoid": "M", "functor": "F", "nat": "n", "alg": "A", "coalg": "C"}
_OTHER_KIND = {"monoid": "F", "functor": "M", "nat": "A", "alg": "C", "coalg": "A"}


@pytest.mark.parametrize("slip", ["missing", "extra", "wrong-kind"])
@pytest.mark.parametrize("row", sorted(dsl._CONSTRUCTORS), ids="-".join)
def test_cli_constructor_slip_is_a_parse_error(tmp_path, capsys, row, slip):
    which, head = row
    kinds = dsl._CONSTRUCTORS[row][0]
    args = [_LITERALS[k] if k in _LITERALS else _NAMES[k] for k in kinds]
    first_ref = next(i for i, k in enumerate(kinds) if k in _NAMES)
    if slip == "missing":
        args.pop()
    elif slip == "extra":
        args.append("1")
    else:
        args[first_ref] = _OTHER_KIND[kinds[first_ref]]
    code, out = _check_script(tmp_path, f"{_PRELUDE}{which} X = {head}({', '.join(args)})\n")
    assert code == 2 and not out
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"; usage: {head}({', '.join(kinds)})")
    if slip == "wrong-kind":
        assert f"8:1: {head} argument {first_ref + 1}: want {kinds[first_ref]}, got " in err
    else:
        assert f"8:1: {head} takes {len(kinds)} argument" in err


_LISTS = """monoid Triv = builtin trivial
monoid B = table {0, 1} max 0
functor F = shape(Triv, 1)
functor G = shape(B, 1)
alg L = bounded(G, 1)
coalg D = dual(L)
"""


@pytest.mark.parametrize("decl,message", [
    ("alg X = bounded(L, 2)",
     "bounded argument 1: want functor, got alg 'L'; usage: bounded(functor, int)"),
    ("coalg X = counter(F)", "counter takes 2 arguments; usage: counter(functor, int)"),
    ("coalg X = counter(F, 2, 3)", "counter takes 2 arguments; usage: counter(functor, int)"),
    ("coalg X = counter(F, G)",
     "counter argument 2: want int, got functor 'G'; usage: counter(functor, int)"),
    ("coalg X = dual(G)", "dual argument 1: want alg, got functor 'G'; usage: dual(alg)"),
    ("coalg X = tensor(D, G)",
     "tensor argument 2: want coalg, got functor 'G'; usage: tensor(coalg, coalg)"),
    ("coalg X = machine(G, {a, b})",
     "machine argument 2: want map, got set; usage: machine(functor, map)"),
    ("coalg X = countr(F, 2)", "unknown coalg constructor 'countr'"),
])
def test_cli_constructor_slips_name_the_argument(tmp_path, capsys, decl, message):
    code, _ = _check_script(tmp_path, _LISTS + decl + "\n")
    assert code == 2
    assert f"7:1: {message}" in capsys.readouterr().err


def test_cli_constalg_over_a_shape_functor_is_a_run_error(tmp_path, capsys):
    code, _ = _check_script(tmp_path, _LISTS + """alg A = constalg(G, {x, y}, {0 -> x, 1 -> y})
coalg U = unit(G)
check unique U A A
""")
    assert code == 2
    assert "7:1: constalg expects a const functor" in capsys.readouterr().err


@pytest.mark.parametrize("functor,message", [
    ("shape(B, 1)", "state 'c' unfolds to 7, not a node or bottom"),
    ("const(B)", "state 'c' unfolds with label 7 outside B"),
])
def test_cli_machine_with_a_bad_unfolding_is_a_run_error(tmp_path, capsys, functor, message):
    code, _ = _check_script(tmp_path, f"""monoid B = table {{0, 1}} max 0
functor K = {functor}
coalg C = machine(K, {{c -> 7}})
alg A = initial(K)
check unique C A A
""")
    assert code == 2
    assert f"3:1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("hom,message", [
    ("hom h : Triv -> B = [e -> 7]", "hom maps 'e' -> 7, but 7 is not in B"),
    ("hom h : B -> B = [0 -> 0, 1 -> 0, 2 -> 1]", "hom maps 2 -> 1, but 2 is not in B"),
])
def test_cli_hom_leaving_a_finite_monoid_is_a_run_error(tmp_path, capsys, hom, message):
    code, _ = _check_script(tmp_path, f"""monoid Triv = builtin trivial
monoid B = table {{0, 1}} max 0
{hom}
""")
    assert code == 2
    assert f"3:1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["(0 (0 a))", "[0, a]"])
def test_cli_machine_with_a_nested_unfolding_is_a_run_error(tmp_path, capsys, value):
    # a map value is any term; an unfolding one level deep is the machine's check
    code, out = _check_script(tmp_path, f"""monoid B = table {{0, 1}} max 0
functor G = shape(B, 1)
coalg C = machine(G, {{a -> {value}}})
""")
    assert code == 2 and not out
    assert "3:1: state 'a' unfolds to " in capsys.readouterr().err


def test_cli_const_machine_unfolding_to_a_node_is_a_run_error(tmp_path, capsys):
    # over builtin nat no label set catches the node; it used to reach tensor
    code, _ = _check_script(tmp_path, """monoid N = builtin nat
functor K = const(N)
coalg C = machine(K, {a -> (1 a)})
coalg D = machine(K, {b -> 3})
coalg T = tensor(C, D)
""")
    assert code == 2
    assert "3:1: state 'a' unfolds to (1 'a'), not a label" in capsys.readouterr().err


@pytest.mark.parametrize("decls,error", [
    ("functor K = const(N)\ncoalg C = machine(K, {a -> x})\n"
     "coalg D = machine(K, {b -> 3})\ncoalg T = tensor(C, D)\n",
     "3:1: state 'a' unfolds with label 'x' outside N"),
    ("functor S = shape(N, 1)\ncoalg C = machine(S, {a -> (x a)})\n",
     "3:1: state 'a' unfolds with label 'x' outside N"),
    ("hom h : N -> N = [0 -> x]\n", "2:1: hom maps 0 -> 'x', but 'x' is not in N"),
    ("functor K = const(N)\nalg A = constalg(K, {p}, {x -> p})\n",
     "3:1: constalg interprets 'x', which is not in N"),
], ids=["const-machine", "shape-machine", "hom", "constalg"])
def test_cli_label_over_builtin_nat_must_be_a_natural_number(tmp_path, capsys, decls, error):
    code, _ = _check_script(tmp_path, "monoid N = builtin nat\n" + decls)
    assert code == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("table", ["{a, b} mul a", "{0, a} max 0"])
def test_cli_table_op_undefined_on_its_elements_is_a_run_error(tmp_path, capsys, table):
    code, _ = _check_script(tmp_path, f"monoid M = table {table}\n")
    assert code == 2
    assert "1:1: M: op(" in capsys.readouterr().err


def test_cli_builtin_monoid_keeps_its_declared_name(tmp_path, capsys):
    code, _ = _check_script(tmp_path, """monoid N = builtin nat
functor F = shape(N, 1)
alg T = bounded(F, 2)
coalg C = counter(F, 2)
check c-initial C T
""")
    assert code == 2
    assert "5:1: N is not enumerable" in capsys.readouterr().err


def test_cli_partial_hom_names_itself_and_the_label(tmp_path, capsys):
    # a table hom out of builtin nat maps only the labels it lists
    code, _ = _check_script(tmp_path, """monoid N = builtin nat
functor GN = shape(N, 1)
hom h : N -> N = [0 -> 0]
nat mu : GN -> GN = (hom h, reindex [1])
coalg M = machine(GN, {a -> (5 a)})
coalg Q = pushforward(mu, M)
""")
    assert code == 2
    err = capsys.readouterr().err
    assert "6:1: hom h" in err and "does not map the label 5" in err


def test_cli_count_of_many_free_cells_builds_no_tables(tmp_path):
    # 12 free cells: 3^12 lawful tables, counted as a product, none built
    import tracemalloc
    script = """monoid M = table {0, 1} max 0
functor K = const(M)
alg A = constalg(K, {a0, a1, u0, u1, u2, u3, u4, u5}, {0 -> a0, 1 -> a1})
coalg C = machine(K, {c0 -> 0, c1 -> 1})
alg B = constalg(K, {b0, b1, b2}, {0 -> b0, 1 -> b1})
"""
    tracemalloc.start()
    try:
        code, text = _check_script(tmp_path, script + "check count C A B 531441\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, text
    assert "[holds] count" in text
    assert peak < 2 * 2 ** 20
    code, text = _check_script(tmp_path, script + "check unique C A B\n")
    assert code == 1
    assert "531441 lawful tables, expected 1" in text


@pytest.mark.parametrize("decl,message", [
    ("monoid M = table {0, 1, 0} max 0", "duplicate element 0"),
    ("hom h : B -> B = [0 -> 0, 1 -> 1, 1 -> 0]", "duplicate key 1"),
    ("alg A = constalg(K, {x, x}, {0 -> x, 1 -> x})", "duplicate element 'x'"),
    ("alg A = constalg(K, {x, y}, {0 -> x, 0 -> y, 1 -> x})", "duplicate key 0"),
    ("coalg C = machine(G, {a -> #b, a -> (0 a)})", "duplicate key 'a'"),
])
def test_cli_repeated_element_or_key_is_a_parse_error(tmp_path, capsys, decl, message):
    # a repeated carrier element used to count two lawful tables where one exists
    code, _ = _check_script(tmp_path, f"""monoid B = table {{0, 1}} max 0
functor K = const(B)
functor G = shape(B, 1)
{decl}
""")
    assert code == 2
    assert f"4:1: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the README's script language section


def test_readme_script_example_runs(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Script language", 1)[1]
    example = section.split("```text\n", 1)[1].split("```", 1)[0]
    code, out = _check_script(tmp_path, example)
    assert code == 0
    assert "[holds] law zip2" in out


def test_readme_lists_every_constructor_usage():
    text = README.read_text(encoding="utf-8")
    missing = [f"{head}({', '.join(kinds)})"
               for (_, head), (kinds, _) in dsl._CONSTRUCTORS.items()
               if f"`{head}({', '.join(kinds)})`" not in text]
    assert not missing
