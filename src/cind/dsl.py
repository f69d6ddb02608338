"""Script frontend: a small declaration language for monoids, signatures,
morphisms, carriers, measurings, and checks.

One-pass recursive descent over one token table; parse errors carry
line:col and the expected-token set.  ``functor``, ``alg``, ``coalg`` and
``measure`` declarations share one call form, ``KEYWORD NAME = head(arg,
...)``, and one table, ``_CONSTRUCTORS``, which gives each (keyword, head)
its argument kinds and its builder.  Parsing also resolves references and
checks every call against its row (head, argument count, literal and
reference kinds), so a slip is a parse error naming the usage.  ``run``
then walks the declarations once, in script order, calling each row's
builder, solving the measures and executing the checks.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Any

from . import carriers, kernel, measuring, oracle, transport
from .kernel import BOTTOM, Node


class DslError(Exception):
    """Parse-stage failure: syntax, unresolved reference, or kind mismatch."""

    def __init__(self, message, line=0, col=0, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        extra = f" (expected: {', '.join(sorted(self.expected))})" if expected else ""
        where = f"{line}:{col}: " if line else ""  # lines count from 1
        super().__init__(f"{where}{message}{extra}")


# ---------------------------------------------------------------------------
# tokens

# one alternative per token kind, tried in order; blanks and comments are
# unnamed and skipped, and the catch-all BAD matches any other character
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|[ \t\r]+"
    r"|(?P<BOTTOM>#b(?!\w))|#[^\n]*"
    r"|(?P<SYM>->|[=:,{}()\[\]])"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*)"
    r"|(?P<BAD>.)")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME INT SYM BOTTOM EOF
    value: Any
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, start = 1, 0  # start: offset of the current line
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
        elif kind == "BAD":
            raise DslError(f"unexpected character {m.group()!r}", line, col)
        elif kind is not None:
            value = int(m.group()) if kind == "INT" else m.group()
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", None, line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Script:
    decls: tuple


@dataclass(frozen=True)
class Decl:
    pos: tuple = field(compare=False, default=(0, 0), kw_only=True)


@dataclass(frozen=True)
class MonoidDecl(Decl):
    name: str
    body: tuple  # ("builtin", which) | ("table", elems, opname, unit)


@dataclass(frozen=True)
class HomDecl(Decl):
    name: str
    src: str
    dst: str
    pairs: tuple


@dataclass(frozen=True)
class NatDecl(Decl):
    name: str
    src: str
    dst: str
    hom: str
    reindex: tuple = None  # 1-based surface indices


@dataclass(frozen=True)
class CallDecl(Decl):
    which: str  # functor | alg | coalg | measure
    name: str
    head: str
    args: tuple


@dataclass(frozen=True)
class CheckDecl(Decl):
    kind: str
    args: tuple


# call arguments: ("ref", name) | ("int", k) | ("set", atoms) | ("map", pairs),
# where a map pairs an atom with a term whose leaves may be atoms


# ---------------------------------------------------------------------------
# parser

# declaration keywords are reserved: they end a check's argument list
_DECL_KEYWORDS = frozenset(
    {"monoid", "hom", "functor", "nat", "alg", "coalg", "measure", "check"})


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message, expected=()):
        t = self.peek()
        raise DslError(message, t.line, t.col, expected)

    def expect(self, kind, value=None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            self.fail(f"got {t.value!r}", expected=(str(want),))
        return self.next()

    def at_sym(self, value, ahead=0) -> bool:
        t = self.tokens[min(self.i + ahead, len(self.tokens) - 1)]
        return t.kind == "SYM" and t.value == value

    def listed(self, item) -> list:
        """One or more items separated by commas."""
        items = [item()]
        while self.at_sym(","):
            self.next()
            items.append(item())
        return items

    # atoms are bare labels: names or integers
    def atom(self):
        t = self.peek()
        if t.kind in ("NAME", "INT"):
            return self.next().value
        self.fail(f"got {t.value!r}", expected=("label",))

    def term(self):
        """One term: bottom, a bare label or state name, a node or list sugar.
        Open nodes wait on an explicit stack of (label, slots), so nesting
        depth is not bounded by Python's recursion limit."""
        stack = []
        while True:
            t = self.peek()
            if self.at_sym("("):
                self.next()
                stack.append((self.atom(), []))
                continue
            if stack and self.at_sym(")"):
                self.next()
                label, slots = stack.pop()
                out = Node(label, tuple(slots))
            elif t.kind in ("NAME", "INT"):
                out = self.next().value
            elif t.kind == "BOTTOM":
                self.next()
                out = BOTTOM
            elif self.at_sym("["):
                self.next()
                items = self.listed(self.atom)
                self.expect("SYM", "]")
                out = BOTTOM
                for x in reversed(items):
                    out = Node(x, (out,))
            else:
                self.fail(f"got {t.value!r}", expected=("#b", "(", "[", "label"))
            if not stack:
                return out
            stack[-1][1].append(out)

    def script(self) -> Script:
        decls = []
        while self.peek().kind != "EOF":
            decls.append(self.decl())
        return Script(tuple(decls))

    def decl(self):
        t = self.peek()
        if t.kind != "NAME":
            self.fail(f"got {t.value!r}", expected=("declaration keyword",))
        pos = (t.line, t.col)
        kw = t.value
        if kw == "monoid":
            return self.monoid_decl(pos)
        if kw == "hom":
            return self.hom_decl(pos)
        if kw == "nat":
            return self.nat_decl(pos)
        if kw in ("functor", "alg", "coalg", "measure"):
            return self.call_decl(pos)
        if kw == "check":
            return self.check_decl(pos)
        self.fail(f"got {kw!r}", expected=_DECL_KEYWORDS)

    def monoid_decl(self, pos):
        self.next()
        name = self.expect("NAME").value
        self.expect("SYM", "=")
        t = self.peek()
        if t.kind == "NAME" and t.value == "builtin":
            self.next()
            which = self.expect("NAME").value
            return MonoidDecl(name, ("builtin", which), pos=pos)
        self.expect("NAME", "table")
        self.expect("SYM", "{")
        elems = self.listed(self.atom)
        self.expect("SYM", "}")
        opname = self.expect("NAME").value
        unit = self.atom()
        return MonoidDecl(name, ("table", tuple(elems), opname, unit), pos=pos)

    def hom_decl(self, pos):
        self.next()
        name = self.expect("NAME").value
        self.expect("SYM", ":")
        src = self.expect("NAME").value
        self.expect("SYM", "->")
        dst = self.expect("NAME").value
        self.expect("SYM", "=")
        self.expect("SYM", "[")
        pairs = self.listed(self.arrow_pair)
        self.expect("SYM", "]")
        return HomDecl(name, src, dst, tuple(pairs), pos=pos)

    def arrow_pair(self, value=None):
        a = self.atom()
        self.expect("SYM", "->")
        return (a, (value or self.atom)())

    def nat_decl(self, pos):
        self.next()
        name = self.expect("NAME").value
        self.expect("SYM", ":")
        src = self.expect("NAME").value
        self.expect("SYM", "->")
        dst = self.expect("NAME").value
        self.expect("SYM", "=")
        self.expect("SYM", "(")
        self.expect("NAME", "hom")
        h = self.expect("NAME").value
        reindex = None
        if self.at_sym(","):
            self.next()
            self.expect("NAME", "reindex")
            self.expect("SYM", "[")
            reindex = tuple(self.listed(lambda: self.expect("INT").value))
            self.expect("SYM", "]")
        self.expect("SYM", ")")
        return NatDecl(name, src, dst, h, reindex, pos=pos)

    def call_decl(self, pos):
        which = self.next().value
        name = self.expect("NAME").value
        self.expect("SYM", "=")
        head = self.expect("NAME").value
        self.expect("SYM", "(")
        args = [] if self.at_sym(")") else self.listed(self.call_arg)
        self.expect("SYM", ")")
        return CallDecl(which, name, head, tuple(args), pos=pos)

    def call_arg(self):
        t = self.peek()
        if t.kind == "INT":
            return ("int", self.next().value)
        if t.kind == "NAME":
            return ("ref", self.next().value)
        if self.at_sym("{"):
            self.next()
            if self.at_sym("->", ahead=1):
                arg = ("map", tuple(self.listed(lambda: self.arrow_pair(self.term))))
            else:
                arg = ("set", tuple(self.listed(self.atom)))
            self.expect("SYM", "}")
            return arg
        self.fail(f"got {t.value!r}", expected=("argument",))

    def check_decl(self, pos):
        self.next()
        kind = self.expect("NAME").value
        args = []
        while self.peek().kind in ("NAME", "INT"):
            t = self.peek()
            if t.kind == "NAME" and t.value in _DECL_KEYWORDS:
                break
            self.next()
            args.append(("ref", t.value) if t.kind == "NAME" else ("int", t.value))
        return CheckDecl(kind, tuple(args), pos=pos)


def parse(text: str) -> Script:
    """Parse and resolve a script; raises DslError on syntax problems,
    unresolved references, or kind mismatches."""
    script = _Parser(tokenize(text)).script()
    _resolve(script)
    return script


# ---------------------------------------------------------------------------
# constructors: one row per (keyword, head)


def _constalg(name, sig, elements, pairs):
    if sig.kind != kernel.CONST:
        raise ValueError("constalg expects a const functor")
    alpha = dict(pairs)
    missing = [x for x in (sig.monoid.elements or ()) if x not in alpha]
    if missing:
        raise ValueError(f"constalg interpretation missing labels {missing!r}")
    for m, x in alpha.items():
        if m not in sig.monoid:
            raise ValueError(f"constalg interprets {m!r}, which is not in {sig.monoid.name}")
        if x not in elements:
            raise ValueError(f"constalg structure map leaves the carrier: {m} -> {x}")
    return carriers.finite_algebra(sig, elements, alpha.__getitem__, name)


def _dual(_, alg):
    if not alg.term_based or alg.bound is None:
        raise ValueError("dual expects a bounded term algebra")
    return carriers.term_unfold_coalgebra(alg.sig, alg.bound)


def _machine(name, sig, pairs):
    return carriers.coalgebra(sig, [state for state, _ in pairs], dict(pairs), name)


def _solve(name, c, a, b, budget):
    """A measure's solve report and its first lawful table as a measuring;
    None for the measuring if the solve ran out before keeping a table."""
    result = oracle.solve_measurings(c, a, b, budget, keep=1)
    report = kernel.Report.of(
        "solve", name, (f"{result.count} lawful tables",),
        failed=not result.solutions, ran_out=not result.exhaustive)
    if not result.solutions and not result.exhaustive:
        return report, None
    table = result.solutions[0] if result.solutions else {}
    return report, measuring.table_measuring(c, a, b, table, name)


# (keyword, head) -> (argument kinds, builder(name, *arguments)).  A kind is
# a declaration keyword, for a reference to such a declaration, or a literal:
# int, set ({a, b}) or map ({a -> v, ...}).  Measure rows are solved by run.
_CONSTRUCTORS = {
    ("functor", "const"): (("monoid",), lambda _, m: kernel.const_sig(m)),
    ("functor", "shape"): (("monoid", "int"), lambda _, m, k: kernel.shape_sig(m, k)),
    ("alg", "bounded"): (("functor", "int"),
                         lambda _, f, n: carriers.term_algebra_bounded(f, n)),
    ("alg", "initial"): (("functor",), lambda _, f: carriers.initial_term_algebra(f)),
    ("alg", "pullback"): (("nat", "alg"), lambda _, mu, a: transport.pullback_algebra(mu, a)),
    ("alg", "expand"): (("nat", "alg"),
                        lambda _, mu, a: transport.expand_algebra(mu, a).algebra),
    ("alg", "pushout"): (("nat", "alg"),
                         lambda _, mu, a: transport.pushout_algebra(mu.hom, a).algebra),
    ("alg", "constalg"): (("functor", "set", "map"), _constalg),
    ("coalg", "counter"): (("functor", "int"),
                           lambda _, f, n: carriers.counter_coalgebra(f, n)),
    ("coalg", "shapes"): (("functor", "int"), lambda _, f, n: carriers.shape_coalgebra(f, n)),
    ("coalg", "dual"): (("alg",), _dual),
    ("coalg", "unit"): (("functor",), lambda _, f: carriers.unit_coalgebra(f)),
    ("coalg", "tensor"): (("coalg", "coalg"), lambda _, c, d: carriers.tensor_coalgebra(c, d)),
    ("coalg", "pushforward"): (("nat", "coalg"),
                               lambda _, mu, c: transport.pushforward_coalgebra(mu, c)),
    ("coalg", "restrict"): (("nat", "coalg"),
                            lambda _, mu, c: transport.restrict_coalgebra(mu, c).coalg),
    ("coalg", "machine"): (("functor", "map"), _machine),
    ("measure", "solve"): (("coalg", "alg", "alg"), _solve),
}


# ---------------------------------------------------------------------------
# resolution (names + kinds, no construction)

# check kind -> its usage, the kinds of its references, the most numbers it takes
_CHECK_KINDS = {
    "law": ("check law MEASURE", ("measure",), 0),
    "unique": ("check unique COALG ALG ALG", ("coalg", "alg", "alg"), 0),
    "count": ("check count COALG ALG ALG N", ("coalg", "alg", "alg"), 1),
    "c-initial": ("check c-initial COALG ALG", ("coalg", "alg"), 2),
}


def _resolve(script: Script):
    kinds = {}

    def need(name, want, pos):
        if name not in kinds:
            raise DslError(f"unresolved reference {name!r}", *pos)
        if kinds[name][0] != want:
            raise DslError(f"{name!r} is a {kinds[name][0]}, need a {want}", *pos)
        return kinds[name]

    def declare(name, info, pos):
        if name in kinds:
            raise DslError(f"duplicate name {name!r}", *pos)
        kinds[name] = info

    def distinct(items, what, pos):
        # a repeated set element or map key would be miscounted or dropped
        seen = set()
        for x in items:
            if x in seen:
                raise DslError(f"duplicate {what} {x!r}", *pos)
            seen.add(x)

    for d in script.decls:
        pos = d.pos
        if isinstance(d, MonoidDecl):
            if d.body[0] == "table":
                distinct(d.body[1], "element", pos)
            declare(d.name, ("monoid",), pos)
        elif isinstance(d, HomDecl):
            distinct([a for a, _ in d.pairs], "key", pos)
            need(d.src, "monoid", pos)
            need(d.dst, "monoid", pos)
            declare(d.name, ("hom",), pos)
        elif isinstance(d, NatDecl):
            s = need(d.src, "functor", pos)
            t = need(d.dst, "functor", pos)
            need(d.hom, "hom", pos)
            if s[1] != t[1]:
                raise DslError(
                    f"kind mismatch: no morphisms {s[1]} -> {t[1]}", *pos)
            if s[1] == "shape":
                if d.reindex is None:
                    raise DslError("shape morphisms need a reindex clause", *pos)
                if len(d.reindex) != t[2]:
                    raise DslError(
                        f"reindex length {len(d.reindex)} != target arity {t[2]}", *pos)
                if any(not (1 <= i <= s[2]) for i in d.reindex):
                    raise DslError("reindex entry outside source slots (1-based)", *pos)
            declare(d.name, ("nat",), pos)
        elif isinstance(d, CallDecl):
            if (d.which, d.head) not in _CONSTRUCTORS:
                raise DslError(f"unknown {d.which} constructor {d.head!r}", *pos,
                               expected=[h for w, h in _CONSTRUCTORS if w == d.which])
            want = _CONSTRUCTORS[d.which, d.head][0]
            usage = f"{d.head}({', '.join(want)})"
            if len(d.args) != len(want):
                raise DslError(f"{d.head} takes {len(want)} "
                               f"argument{'s' * (len(want) != 1)}; usage: {usage}", *pos)
            for i, ((kind, val), w) in enumerate(zip(d.args, want), 1):
                if kind == "set":
                    distinct(val, "element", pos)
                elif kind == "map":
                    distinct([a for a, _ in val], "key", pos)
                if kind == "ref" and val not in kinds:
                    raise DslError(f"unresolved reference {val!r}", *pos)
                got = kinds[val][0] if kind == "ref" else kind
                if got != w:
                    shown = f"{got} {val!r}" if kind == "ref" else got
                    raise DslError(f"{d.head} argument {i}: want {w}, got {shown}; "
                                   f"usage: {usage}", *pos)
            # a functor's info carries its head and arity, which nat checks read
            declare(d.name, (d.which, d.head) + tuple(v for k, v in d.args if k == "int"), pos)
        elif isinstance(d, CheckDecl):
            if d.kind not in _CHECK_KINDS:
                raise DslError(f"unknown check kind {d.kind!r}", *pos,
                               expected=sorted(_CHECK_KINDS))
            usage, want, most = _CHECK_KINDS[d.kind]
            refs = [v for k, v in d.args if k == "ref"]
            ints = [v for k, v in d.args if k == "int"]
            if len(refs) != len(want):
                raise DslError(f"check {d.kind} needs {len(want)} "
                               f"reference{'s' * (len(want) > 1)}; usage: {usage}", *pos)
            for name, w in zip(refs, want):
                need(name, w, pos)
            if d.kind == "count" and not ints:
                raise DslError("check count needs the expected number of measurings", *pos)
            extra = " ".join(map(str, ints[most:]))
            if extra:
                raise DslError(f"check {d.kind}: extra number {extra}; usage: {usage}", *pos)


# ---------------------------------------------------------------------------
# printing


def _print_arg(arg) -> str:
    kind, val = arg
    if kind == "set":
        return "{" + ", ".join(map(str, val)) + "}"
    if kind == "map":
        return "{" + ", ".join(f"{a} -> {carriers.render_value(v)}" for a, v in val) + "}"
    return str(val)


def print_script(script: Script) -> str:
    lines = []
    for d in script.decls:
        if isinstance(d, MonoidDecl):
            if d.body[0] == "builtin":
                lines.append(f"monoid {d.name} = builtin {d.body[1]}")
            else:
                _, elems, opname, unit = d.body
                lines.append(f"monoid {d.name} = table "
                             f"{{{', '.join(map(str, elems))}}} {opname} {unit}")
        elif isinstance(d, HomDecl):
            pairs = ", ".join(f"{a} -> {b}" for a, b in d.pairs)
            lines.append(f"hom {d.name} : {d.src} -> {d.dst} = [{pairs}]")
        elif isinstance(d, NatDecl):
            clause = f"hom {d.hom}"
            if d.reindex is not None:
                clause += f", reindex [{', '.join(map(str, d.reindex))}]"
            lines.append(f"nat {d.name} : {d.src} -> {d.dst} = ({clause})")
        elif isinstance(d, CallDecl):
            args = ", ".join(_print_arg(a) for a in d.args)
            lines.append(f"{d.which} {d.name} = {d.head}({args})")
        elif isinstance(d, CheckDecl):
            args = " ".join(str(v) for _, v in d.args)
            lines.append(f"check {d.kind}{' ' + args if args else ''}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution

# table op name -> the operation, given the declared unit; under or/and the
# unit is neutral and the other element wins, so on {0, 1} ``or 0`` is
# disjunction and ``and 1`` conjunction, as on {T, F} ``or F`` and ``and T``
_OPS = {"max": lambda _: max, "min": lambda _: min, "add": lambda _: operator.add,
        "mul": lambda _: operator.mul, "or": lambda unit: lambda a, b: b if a == unit else a}
_OPS["and"] = _OPS["or"]

_BUILTIN_MONOIDS = {
    "nat": kernel.NAT_PLUS,
    "trivial": kernel.TRIV,
}


class ScriptRunError(Exception):
    def __init__(self, message, pos):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


def _monoid(d: MonoidDecl) -> kernel.Monoid:
    if d.body[0] == "builtin":
        if d.body[1] not in _BUILTIN_MONOIDS:
            raise ValueError(f"unknown builtin monoid {d.body[1]!r}")
        # the builtin's carrier, op and unit under the declared name
        return replace(_BUILTIN_MONOIDS[d.body[1]], name=d.name)
    _, elems, opname, unit = d.body
    if opname not in _OPS:
        raise ValueError(f"unknown table op {opname!r}")
    m = kernel.finite_monoid(d.name, elems, _OPS[opname](unit), unit)
    report = kernel.monoid_check(m)
    if not report.ok:
        raise ValueError(f"{d.name} is not a monoid: {report.witnesses[0]}")
    return m


def run(script: Script, budget: int = oracle.DEFAULT_BUDGET):
    """Build each declaration, solve each measure and run each check, in
    script order.

    Returns (reports, kernel.exit_code(reports)).  A ValueError or KeyError
    raised at a declaration becomes a ScriptRunError at its position.
    Parsing has checked every reference's kind, so env holds the objects.
    """
    env, reports = {}, []
    for d in script.decls:
        try:
            if isinstance(d, MonoidDecl):
                env[d.name] = _monoid(d)
            elif isinstance(d, HomDecl):
                h = env[d.name] = kernel.hom(env[d.src], env[d.dst], dict(d.pairs), name=d.name)
                # a hom out of builtin nat is checked over the labels it lists
                if not (report := kernel.hom_check(h)).ok:
                    raise ValueError(f"hom {d.name} is not a homomorphism: {report.witnesses[0]}")
            elif isinstance(d, NatDecl):
                reindex = None if d.reindex is None else tuple(i - 1 for i in d.reindex)
                env[d.name] = kernel.nat_transform(
                    env[d.src], env[d.dst], env[d.hom], reindex, name=d.name)
            elif isinstance(d, CallDecl):
                build = _CONSTRUCTORS[d.which, d.head][1]
                args = [env[v] if k == "ref" else v for k, v in d.args]
                if d.which == "measure":
                    report, env[d.name] = build(d.name, *args, budget)
                    reports.append(report)
                else:
                    env[d.name] = build(d.name, *args)
            else:
                reports.append(_run_check(d, env, budget))
        except (ValueError, KeyError) as exc:
            raise ScriptRunError(str(exc), d.pos) from exc
    return reports, kernel.exit_code(reports)


def _run_check(d: CheckDecl, env, budget) -> kernel.Report:
    refs = [v for k, v in d.args if k == "ref"]
    ints = [v for k, v in d.args if k == "int"]
    if d.kind == "law":
        if env[refs[0]] is None:  # its solve ran out before keeping a table
            return kernel.Report.of("law", refs[0], ran_out=True)
        try:
            return measuring.check_law(env[refs[0]], max_witnesses=5)
        except ValueError as exc:
            return kernel.Report.of("law", refs[0], (str(exc),))
    if d.kind == "c-initial":
        return oracle.decide_c_initial(env[refs[0]], env[refs[1]], budget)
    if d.kind in ("count", "unique"):
        c, a, b = env[refs[0]], env[refs[1]], env[refs[2]]
        expected = ints[0] if d.kind == "count" else 1
        result = oracle.solve_measurings(c, a, b, budget, keep=2)
        witnesses = ()
        if result.exhaustive and result.count != expected:
            tables = tuple(str(sorted((*map(carriers.render_value, k), carriers.render_value(v))
                                      for k, v in table.items())) for table in result.solutions)
            witnesses = (f"{result.count} lawful tables, expected {expected}",) + tables
        return kernel.Report.of(d.kind, " ".join(refs), witnesses,
                                ran_out=not result.exhaustive)
    raise ValueError(f"unknown check kind {d.kind!r}")


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2)


# ---------------------------------------------------------------------------
# standalone term parsing and the pruning demo


def parse_term(text: str):
    p = _Parser(tokenize(text))
    t = p.term()
    if p.peek().kind != "EOF":
        p.fail("trailing input after term")
    return t


def demo_prune(shape_text: str, tree_text: str) -> str:
    """Overlay a fuel shape onto a subject tree and render the result.

    Both arguments are binary-tree terms with natural-number labels; the
    shape's subterms act as the fuel machine, so overlapping nodes add their
    labels and the result is cut wherever either side bottoms out.
    """
    shape_term = parse_term(shape_text)
    tree_term = parse_term(tree_text)

    def well_formed(t) -> bool:
        todo = [t]
        while todo:
            t = todo.pop()
            if kernel.is_bottom(t):
                continue
            if not (isinstance(t, Node) and isinstance(t.label, int) and len(t.slots) == 2):
                return False
            todo.extend(t.slots)
        return True

    for name, t in (("shape", shape_term), ("tree", tree_term)):
        if not well_formed(t):
            raise DslError(f"{name} must be a binary tree with natural-number labels")
    sig = kernel.shape_sig(kernel.NAT_PLUS, 2)
    trees = carriers.initial_term_algebra(sig)
    fuel = carriers.term_as_coalgebra(sig, shape_term)
    phi = measuring.canonical_term_measuring(fuel, trees, trees)
    return carriers.render_term(phi.eval(shape_term, tree_term))
