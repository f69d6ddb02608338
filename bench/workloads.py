"""The four seeded workloads: their inputs, their verdicts and known answers.

``build(workload, seed, workdir)`` writes a workload's inputs and returns its
verdicts.  A verdict is one call into cind (one ``cind`` command through
``cli.main``, or one library call) plus a check of its output against an
answer from ``answers.py``.  The seed changes names, labels and random
tables, never the size or the order of the instances, so every seed costs
the same; the order stays fixed because it moves the peak RSS by up to 10%.

Calls go through module attributes (``transport.restrict_coalgebra``, not a
name imported at load time) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cind import carriers, cli, kernel, measuring, oracle, transport

import answers

WORKLOADS = ("gallery", "ladder", "search", "transport")

# far above what any instance needs, so no verdict depends on what a budget counts
BUDGET = 10 ** 9
CAP = 2 ** 24

INPUTS = Path(__file__).resolve().parent / "inputs"
GALLERY_NAMES = ("nat_as_lists", "truth_monoid", "pulling_back_lists",
                 "tree_pruning", "intro_examples")

# two-element label monoids, as (DSL table op, unit); each is a semilattice
LABEL_MONOIDS = (("max", 0), ("min", 1), ("or", 0), ("and", 1), ("mul", 1))


@dataclass
class Verdict:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right
    smallest: bool = False


def build(workload: str, seed: int, workdir: Path) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return globals()[f"_{workload}"](rng, workdir)


# ---------------------------------------------------------------------------
# cind commands


def _cind(*argv):
    out = io.StringIO()
    code = cli.main([*argv, "--json", "--budget", str(BUDGET)], out=out)
    return code, out.getvalue()


def _reports_check(expected_code: int, expected: list):
    """Check `cind check --json`: the exit code and each (claim, status)."""
    def check(output):
        code, text = output
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        got = [(r["claim"], r["status"]) for r in json.loads(text)]
        if got != expected:
            return f"reports {got}, expected {expected}"
        return None
    return check


def _script(workdir: Path, name: str, text: str) -> str:
    path = workdir / f"{name}.cind"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rename(text: str, suffix: str) -> str:
    """Alpha-rename every declared name of a script by appending a suffix."""
    names = re.findall(r"^\s*(?:monoid|hom|functor|nat|alg|coalg|measure)\s+(\w+)",
                       text, flags=re.M)
    for name in sorted(set(names), key=len, reverse=True):
        text = re.sub(rf"(?<![\w-]){re.escape(name)}(?![\w-])", name + suffix, text)
    return text


# ---------------------------------------------------------------------------
# gallery: the users' own path, every named setup and every fixture script


def _gallery(rng, workdir):
    suffix = f"_{rng.randrange(10 ** 6)}"
    verdicts = []
    for name in GALLERY_NAMES:
        def gallery_check(output, name=name):
            code, text = output
            if code != 0:
                return f"exit code {code}, expected 0"
            payload = json.loads(text)
            claims = [r["claim"] for r in payload["reports"]]
            if claims != answers.GALLERY_CLAIMS[name]:
                return f"claims {claims}"
            failing = [r["claim"] for r in payload["reports"] if r["status"] != "holds"]
            if failing:
                return f"not holding: {failing}"
            if payload["goldens"] != answers.GALLERY_GOLDENS[name]:
                return f"goldens {payload['goldens']}"
            return None
        smallest = name == "truth_monoid"
        verdicts.append(Verdict(f"gallery {name}", lambda name=name: _cind("gallery", name),
                                gallery_check, smallest))
        text = _rename((INPUTS / f"{name}.cind").read_text(encoding="utf-8"), suffix)
        path = _script(workdir, name, text)
        expected = [(claim, "holds") for claim in answers.SCRIPT_CLAIMS[name]]
        verdicts.append(Verdict(f"check {name}", lambda path=path: _cind("check", path),
                                _reports_check(0, expected), smallest))
    return verdicts


# ---------------------------------------------------------------------------
# ladder: the scaling ladder of unique measurability


def _ladder(rng, workdir):
    op, unit = rng.choice(LABEL_MONOIDS)
    names = rng.sample(["B", "M", "Lab", "Q"], 1) + rng.sample(["G", "H", "F"], 3)
    lab, g, h, f = names
    header = (f"monoid {lab} = table {{0, 1}} {op} {unit}\n"
              f"monoid Triv = builtin trivial\n"
              f"functor {g} = shape({lab}, 1)\n"
              f"functor {h} = shape({lab}, 2)\n"
              f"functor {f} = shape(Triv, 1)\n")
    cases = []
    for n in (3, 4, 5, 6):
        cases.append((f"list-unique-n{n}", n == 3,
                      f"alg L = bounded({g}, {n})\ncoalg D = dual(L)\ncheck unique D L L\n",
                      "unique"))
    for d in (1, 2):
        for fuel in ("dual", "shapes", "counter"):
            coalg = "dual(T)" if fuel == "dual" else f"{fuel}({h}, {d})"
            cases.append((f"tree-unique-d{d}-{fuel}", d == 1 and fuel == "dual",
                          f"alg T = bounded({h}, {d})\ncoalg D = {coalg}\n"
                          f"check unique D T T\n", "unique"))
    for n in (2, 4, 8):
        cases.append((f"nat-c-initial-n{n}", n == 2,
                      f"alg N = bounded({f}, {n})\ncoalg C = counter({f}, {n})\n"
                      f"check c-initial C N 3 5\n", "c-initial"))
    verdicts = []
    for name, smallest, body, claim in cases:
        path = _script(workdir, name, header + body)
        verdicts.append(Verdict(name, lambda path=path: _cind("check", path),
                                _reports_check(0, [(claim, "holds")]), smallest))
    return verdicts


# ---------------------------------------------------------------------------
# search: free cells, so the solver backtracks and keeps every solution

# (labels |M|, free elements k, fuel states |C|, target size |B|)
SEARCH_LARGE = ((3, 5, 2, 3), (2, 4, 3, 2), (2, 3, 2, 4))
SEARCH_SMALL = ((2, 1, 2, 2), (2, 2, 2, 3), (3, 1, 2, 3))


def _search_instance(rng, n_labels, k, n_states, n_target):
    labels = list(range(n_labels))
    return {
        "labels": labels,
        "interpret": {x: f"a{x}" for x in labels},
        "free": [f"u{i}" for i in range(k)],
        "chi": {f"c{i}": rng.choice(labels) for i in range(n_states)},
        "target": [f"b{i}" for i in range(n_target)],
        "target_interpret": {x: f"b{rng.randrange(n_target)}" for x in labels},
    }


def _search_script(inst, check_line):
    def braces(pairs):
        return "{" + ", ".join(f"{k} -> {v}" for k, v in pairs.items()) + "}"
    labels = ", ".join(map(str, inst["labels"]))
    elems = ", ".join(list(inst["interpret"].values()) + inst["free"])
    return (f"monoid M = table {{{labels}}} max 0\n"
            f"functor K = const(M)\n"
            f"alg A = constalg(K, {{{elems}}}, {braces(inst['interpret'])})\n"
            f"coalg C = machine(K, {braces(inst['chi'])})\n"
            f"alg B = constalg(K, {{{', '.join(inst['target'])}}}, "
            f"{braces(inst['target_interpret'])})\n"
            f"{check_line}\n")


def _const_objects(inst):
    """The instance as cind objects: labels, fuel, source and target."""
    m = kernel.finite_monoid("M", inst["labels"], max, 0)
    sig = kernel.const_sig(m)
    c = carriers.coalgebra(sig, tuple(inst["chi"]), inst["chi"], "C")
    a = carriers.finite_algebra(sig, list(inst["interpret"].values()) + inst["free"],
                                inst["interpret"].__getitem__, "A")
    b = carriers.finite_algebra(sig, inst["target"],
                                inst["target_interpret"].__getitem__, "B")
    return m, sig, c, a, b


def _search_raw(inst):
    _, _, c, a, b = _const_objects(inst)
    return len(oracle.raw_lawful_tables(c, a, b, CAP))


def _search_adjunction(inst, pairs):
    """Bang adjunction along h(x) = min(x, 1) into two labels, on random
    (source, target) algebra pairs."""
    m, sig, _, _, _ = _const_objects(inst)
    m2 = kernel.finite_monoid("M2", (0, 1), max, 0)
    sig2 = kernel.const_sig(m2)
    mu = kernel.nat_transform(sig, sig2, kernel.hom(m, m2, {x: min(x, 1) for x in m.elements}))
    instances = [(carriers.table_algebra(sig, range(na), ta, f"A{i}"),
                  carriers.table_algebra(sig2, range(nb), tb, f"B{i}"))
                 for i, (na, ta, nb, tb) in enumerate(pairs)]
    return oracle.check_adjunction(mu, "bang", instances, CAP).status


def _status_check(expected):
    def check(output):
        return None if output == expected else f"{output!r}, expected {expected!r}"
    return check


def _search(rng, workdir):
    verdicts = []
    sizes = [(s, False) for s in SEARCH_LARGE] + [(s, True) for s in SEARCH_SMALL]
    for i, ((n_labels, k, n_states, n_target), small) in enumerate(sizes):
        inst = _search_instance(rng, n_labels, k, n_states, n_target)
        tag = f"m{n_labels}-k{k}-c{n_states}-b{n_target}"
        count = answers.free_cell_count(n_target, n_states, k)
        path = _script(workdir, f"count-{i}", _search_script(inst, f"check count C A B {count}"))
        verdicts.append(Verdict(f"count-{tag}", lambda path=path: _cind("check", path),
                                _reports_check(0, [("count", "holds")]), i == 3))
        path = _script(workdir, f"unique-{i}", _search_script(inst, "check unique C A B"))
        verdicts.append(Verdict(f"unique-{tag}", lambda path=path: _cind("check", path),
                                _reports_check(1, [("unique", "fails")]), i == 3))
        if not small:
            continue
        verdicts.append(Verdict(f"raw-{tag}", lambda inst=inst: _search_raw(inst),
                                _status_check(count), i == 3))
        n_elems = n_labels + k
        pairs = []
        for na, nb in ((n_elems, 2), (2, 3), (3, 2)):
            pairs.append((na, {x: rng.randrange(na) for x in range(n_labels)},
                          nb, {x: rng.randrange(nb) for x in (0, 1)}))
        verdicts.append(Verdict(f"adjunction-{tag}",
                                lambda inst=inst, pairs=pairs: _search_adjunction(inst, pairs),
                                _status_check("holds"), i == 3))
    return verdicts


# ---------------------------------------------------------------------------
# transport: the three transports and the adjoint closed forms

LIST_CHAIN = (900, 300)   # (chain whose end does not lift, chain ending in bottom)
TREE_CHAIN = (500, 200)
PUSHOUT_SIZE = (40, 300)  # (labels, carrier elements)
# (target labels, target arity, depth) of the perfect-embedding expansions
EXPANSIONS = ((2, 2, 3), (1, 3, 3), (2, 1, 4), (3, 2, 3))


class _Sigs:
    """The signatures and morphisms of the transport workload for one choice
    of two-element label monoid."""

    def __init__(self, op, unit):
        self.unit, self.other = unit, 1 - unit
        self.lab = kernel.finite_monoid("Lab", (0, 1), op, unit)
        self.f = kernel.shape_sig(kernel.TRIV, 1)
        self.g = kernel.shape_sig(self.lab, 1)
        self.h = kernel.shape_sig(self.lab, 2)
        self.lift = kernel.nat_transform(self.f, self.g, kernel.unit_hom(self.lab), (0,))
        self.forget = kernel.nat_transform(self.g, self.f, kernel.collapse_hom(self.lab), (0,))
        self.dup = kernel.nat_transform(self.g, self.h, kernel.identity_hom(self.lab), (0, 0))


def _chain_machine(sig, chains, step):
    """States 0..n-1 laid out chain after chain in ascending order, so each
    greatest-fixpoint pass removes one state of a dropped chain.  ``step(s,
    nxt)`` gives a linked unfolding, ``step(s, None)`` a dropped chain's end."""
    chi, start = {}, 0
    for length, lifts in chains:
        for s in range(start, start + length - 1):
            chi[s] = step(s, s + 1)
        last = start + length - 1
        chi[last] = kernel.BOTTOM if lifts else step(last, None)
        start += length
    return carriers.coalgebra(sig, range(start), chi)


def _restrict_list(sigs, chains):
    def step(s, nxt):
        if nxt is None:
            return kernel.Node(sigs.other, (s,))  # a label outside the image
        return kernel.Node(sigs.unit, (nxt,))
    sub = transport.restrict_coalgebra(sigs.lift, _chain_machine(sigs.g, chains, step))
    return list(sub.kept), [sub.coalg.chi[s] for s in sub.kept]


def _restrict_tree(sigs, chains):
    def step(s, nxt):
        if nxt is None:
            return kernel.Node(sigs.unit, (s, 0))  # duplicated slots disagree
        return kernel.Node(sigs.unit, (nxt, nxt))
    sub = transport.restrict_coalgebra(sigs.dup, _chain_machine(sigs.h, chains, step))
    return list(sub.kept), [sub.coalg.chi[s] for s in sub.kept]


def _lifted_chain_check(chains, label):
    """Kept states and their lifted unfoldings: each kept state points at the
    next one, and the last of its chain unfolds to bottom."""
    spans, start = [], 0
    for length, lifts in chains:
        spans.append((range(start, start + length), lifts))
        start += length
    kept = answers.chain_kept(spans)
    ends = {states[-1] for states, _ in spans}

    def check(output):
        got_kept, got_chi = output
        if got_kept != kept:
            return f"kept {len(got_kept)} states, expected {len(kept)}"
        for s, v in zip(got_kept, got_chi):
            want = kernel.BOTTOM if s in ends else kernel.Node(label, (s + 1,))
            if v != want:
                return f"state {s} lifts to {v!r}, expected {want!r}"
        return None
    return check


def _pushforward_counter(sigs, n):
    pushed = transport.pushforward_coalgebra(sigs.lift, carriers.counter_coalgebra(sigs.f, n))
    return [pushed.chi[i] for i in range(n + 1)]


def _pushout(n_labels, n_elems, interpret, ratio):
    m = kernel.finite_monoid("M", range(n_labels), max, 0)
    m2 = kernel.finite_monoid("M2", range(-(-n_labels // ratio)), max, 0)
    h = kernel.hom(m, m2, {x: x // ratio for x in range(n_labels)})
    a = carriers.finite_algebra(kernel.const_sig(m), range(n_elems), interpret.__getitem__, "A")
    return {frozenset(cls) for cls in transport.pushout_algebra(h, a).classes}


def _expand(n_labels, arity, depth):
    """Target carrier size, and (numeral nodes, perfect-tree nodes) pairs."""
    lab = kernel.finite_monoid("L", range(n_labels), max, 0)
    target = kernel.shape_sig(lab, arity)
    mu = kernel.nat_transform(kernel.shape_sig(kernel.TRIV, 1), target,
                              kernel.unit_hom(lab), (0,) * arity)
    numerals = carriers.term_algebra_bounded(mu.source, depth)
    expanded = transport.expand_algebra(mu, numerals)
    return (len(expanded.algebra.elements),
            sorted((_nodes(t), _nodes(expanded.embed(t))) for t in numerals.elements))


def _nodes(t) -> int:
    count, todo = 0, [t]
    while todo:
        cur = todo.pop()
        if isinstance(cur, kernel.Node):
            count += 1
            todo.extend(cur.slots)
    return count


def _law_holds(expected_checked):
    def check(report):
        if report.violations:
            return f"law fails: {report.violations[:2]!r}"
        if report.checked != expected_checked:
            return f"checked {report.checked} instances, expected {expected_checked}"
        return None
    return check


def _push_law(sigs, n):
    lists = carriers.term_algebra_bounded(sigs.g, n)
    zipm = measuring.canonical_term_measuring(carriers.term_unfold_coalgebra(sigs.g, n),
                                              lists, lists)
    return measuring.check_law(measuring.push_measuring(sigs.dup, zipm), 3, None, BUDGET)


def _pull_law(sigs, n):
    lists = carriers.term_algebra_bounded(sigs.g, n)
    zipm = measuring.canonical_term_measuring(carriers.term_unfold_coalgebra(sigs.g, n),
                                              lists, lists)
    return measuring.check_law(measuring.pull_measuring(sigs.lift, zipm), 3, None, BUDGET)


def _embed_law(sigs, n):
    nums = carriers.term_algebra_bounded(sigs.f, n)
    phi = measuring.canonical_term_measuring(carriers.nat_counter(n), nums, nums)
    out = measuring.embed_measuring(sigs.forget, sigs.lift, phi)
    return measuring.check_law(out, 3, None, BUDGET)


def _composition(sigs, kind, n):
    if kind == "embed":
        nums = carriers.term_algebra_bounded(sigs.f, n)
        fuels = (carriers.unit_coalgebra(sigs.f), carriers.nat_counter(n))
        instances = [(sigs.forget, sigs.lift,
                      measuring.canonical_term_measuring(d, nums, nums),
                      measuring.canonical_term_measuring(c, nums, nums))
                     for d in fuels for c in fuels]
    else:
        lists = carriers.term_algebra_bounded(sigs.g, n)
        zipm = measuring.canonical_term_measuring(
            carriers.term_unfold_coalgebra(sigs.g, n), lists, lists)
        mu = sigs.dup if kind == "push" else sigs.lift
        instances = [(mu, zipm, zipm)]
    return oracle.check_respects_composition(kind, instances).status


def _shriek(sigs, machines):
    instances = [(carriers.coalgebra(sigs.f, range(len(d)), d),
                  carriers.coalgebra(sigs.g, range(len(c)), c)) for d, c in machines]
    return oracle.check_adjunction(sigs.lift, "shriek", instances, CAP).status


def _bang(pairs):
    truth_and = kernel.TRUTH_AND
    flip = kernel.hom(truth_and, kernel.TRUTH_OR, {"T": "F", "F": "T"},
                      inverse={"T": "F", "F": "T"})
    mu = kernel.nat_transform(kernel.const_sig(truth_and), kernel.const_sig(kernel.TRUTH_OR), flip)
    instances = [(carriers.table_algebra(mu.source, range(na), ta, f"A{i}"),
                  carriers.table_algebra(mu.target, range(nb), tb, f"B{i}"))
                 for i, (na, ta, nb, tb) in enumerate(pairs)]
    return oracle.check_adjunction(mu, "bang", instances, CAP).status


def _random_unfolding(rng, labels, n_states):
    """A list-shaped unfolding: bottom, or a label and a next state."""
    if rng.random() < 0.25:
        return kernel.BOTTOM
    return kernel.Node(rng.choice(labels), (rng.randrange(n_states),))


def _transport(rng, workdir):
    op, unit = rng.choice(((max, 0), (min, 1)))
    sigs = _Sigs(op, unit)
    verdicts = []

    list_chains = ((LIST_CHAIN[0], False), (LIST_CHAIN[1], True))
    verdicts.append(Verdict("restrict-list-chain", lambda: _restrict_list(sigs, list_chains),
                            _lifted_chain_check(list_chains, "e")))
    tree_chains = ((TREE_CHAIN[0], False), (TREE_CHAIN[1], True))
    verdicts.append(Verdict("restrict-tree-chain", lambda: _restrict_tree(sigs, tree_chains),
                            _lifted_chain_check(tree_chains, unit)))
    small_chains = ((5, False), (3, True))
    verdicts.append(Verdict("restrict-list-small", lambda: _restrict_list(sigs, small_chains),
                            _lifted_chain_check(small_chains, "e"), True))

    n_labels, n_elems = PUSHOUT_SIZE
    interpret = {x: rng.randrange(n_elems) for x in range(n_labels)}
    ratio = rng.choice((2, 3, 4))
    want_classes = answers.pushout_classes(
        range(n_elems), range(n_labels), range(-(-n_labels // ratio)),
        interpret, {x: x // ratio for x in range(n_labels)})
    verdicts.append(Verdict("pushout", lambda: _pushout(n_labels, n_elems, interpret, ratio),
                            _status_check(want_classes), True))

    want = [kernel.BOTTOM] + [kernel.Node(unit, (i - 1,)) for i in range(1, 501)]
    verdicts.append(Verdict("pushforward-counter-500", lambda: _pushforward_counter(sigs, 500),
                            _status_check(want)))

    for n_lab, arity, depth in EXPANSIONS:
        want = (answers.bounded_terms(n_lab, arity, depth),
                [(k, answers.perfect_tree_nodes(arity, k)) for k in range(depth + 1)])
        verdicts.append(Verdict(f"expand-m{n_lab}-a{arity}-d{depth}",
                                lambda a=(n_lab, arity, depth): _expand(*a),
                                _status_check(want), arity == 1))

    # law instances: |fuel states| * |F(carrier)|, with |F(X)| = 1 + |labels| * |X|^arity
    lists2, trees2 = answers.bounded_terms(2, 1, 2), answers.bounded_terms(2, 2, 2)
    verdicts.append(Verdict("push-zip-law", lambda: _push_law(sigs, 2),
                            _law_holds(lists2 * (1 + 2 * trees2 ** 2))))
    # the restriction keeps the 6 all-unit lists of length <= 5
    verdicts.append(Verdict("pull-zip-law", lambda: _pull_law(sigs, 5),
                            _law_holds(6 * (1 + answers.bounded_terms(2, 1, 5)))))
    verdicts.append(Verdict("embed-min-law", lambda: _embed_law(sigs, 6),
                            _law_holds(7 * (1 + 2 * answers.bounded_terms(1, 1, 6)))))
    for kind, n in (("push", 2), ("pull", 2), ("embed", 3)):
        verdicts.append(Verdict(f"compose-{kind}", lambda kind=kind, n=n: _composition(sigs, kind, n),
                                _status_check("holds")))

    machines = []
    for _ in range(3):
        d = {s: _random_unfolding(rng, ("e",), 4) for s in range(4)}
        c = {s: _random_unfolding(rng, (0, 1), 6) for s in range(6)}
        machines.append((d, c))
    verdicts.append(Verdict("adjunction-shriek", lambda: _shriek(sigs, machines),
                            _status_check("holds")))
    pairs = [(na, {"T": rng.randrange(na), "F": rng.randrange(na)},
              nb, {"T": rng.randrange(nb), "F": rng.randrange(nb)})
             for na, nb in ((2, 2), (3, 2), (2, 3), (3, 3))]
    verdicts.append(Verdict("adjunction-bang", lambda: _bang(pairs),
                            _status_check("holds")))
    return verdicts
