"""Script frontend: a small declaration language for monoids, signatures,
morphisms, carriers, measurings, and checks.

One-pass recursive descent over one token table; parse errors carry
line:col and the expected-token set.  Every declaration and check parses to
one record, ``Decl(keyword, name, head, args)``, and has one row in one
table, ``_ROWS``, keyed by (keyword, head): ``monoid builtin``, ``monoid
table``, ``hom``, ``nat``, each constructor of the call form ``KEYWORD NAME
= head(arg, ...)`` shared by ``functor``, ``alg``, ``coalg`` and
``measure``, and each check kind.  A row gives the argument kinds and the
builder.  Parsing also resolves every reference before anything is built,
checking each declaration against its row (head, argument count, literal
and reference kinds), so a slip is a parse error naming the usage.  ``run``
then walks the declarations once, in script order, calling each row's
builder: it builds the declared objects, solves the measures and returns
each check's report.
"""

from __future__ import annotations

import json
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
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
    """A declaration or a check: its keyword, the name it declares (None for a
    check), the head that picks its row of ``_ROWS`` ("" for a hom or a nat),
    and its arguments, in the order of the row's kinds (a check's as written).
    """
    keyword: str
    name: Any
    head: str
    args: tuple
    pos: tuple = field(compare=False, default=(0, 0))


# arguments: ("ref", name) | ("int", k) | ("set", atoms) | ("map", pairs) |
# ("list", ints) | ("word", name) | ("label", atom), where a map pairs an atom
# with a term whose leaves may be atoms


# ---------------------------------------------------------------------------
# parser

# declaration keywords are reserved: they end a check's argument list
_CALLS = frozenset({"functor", "alg", "coalg", "measure"})  # KEYWORD NAME = head(arg, ...)
_DECL_KEYWORDS = _CALLS | {"monoid", "hom", "nat", "check"}


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

    def ref(self):
        return ("ref", self.expect("NAME").value)

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

    def decl(self) -> Decl:
        t = self.peek()
        if t.kind != "NAME":
            self.fail(f"got {t.value!r}", expected=("declaration keyword",))
        if t.value not in _DECL_KEYWORDS:
            self.fail(f"got {t.value!r}", expected=_DECL_KEYWORDS)
        kw, pos, args = self.next().value, (t.line, t.col), ()
        if kw == "check":  # check KIND, then names and numbers up to the next keyword
            head = self.expect("NAME").value
            while (t := self.peek()).kind in ("NAME", "INT") and t.value not in _DECL_KEYWORDS:
                args += (("ref" if self.next().kind == "NAME" else "int", t.value),)
            return Decl(kw, None, head, args, pos)
        name = self.expect("NAME").value
        if kw in ("hom", "nat"):  # NAME : NAME -> NAME =
            self.expect("SYM", ":")
            args += (self.ref(),)
            self.expect("SYM", "->")
            args += (self.ref(),)
        self.expect("SYM", "=")
        if kw == "monoid" and (self.peek().kind, self.peek().value) == ("NAME", "builtin"):
            self.next()
            return Decl(kw, name, "builtin", (("word", self.expect("NAME").value),), pos)
        if kw == "monoid":  # table {atom, ...} NAME atom
            self.expect("NAME", "table")
            self.expect("SYM", "{")
            elems = ("set", tuple(self.listed(self.atom)))
            self.expect("SYM", "}")
            return Decl(kw, name, "table", (elems, ("word", self.expect("NAME").value),
                                            ("label", self.atom())), pos)
        if kw == "hom":  # [atom -> atom, ...]
            self.expect("SYM", "[")
            pairs = ("map", tuple(self.listed(self.arrow_pair)))
            self.expect("SYM", "]")
            return Decl(kw, name, "", (pairs,) + args, pos)
        if kw == "nat":  # (hom NAME[, reindex [INT, ...]])
            self.expect("SYM", "(")
            self.expect("NAME", "hom")
            args += (self.ref(),)
            if self.at_sym(","):
                self.next()
                self.expect("NAME", "reindex")
                self.expect("SYM", "[")
                reindex = () if self.at_sym("]") else self.listed(lambda: self.expect("INT").value)
                args += (("list", tuple(reindex)),)
                self.expect("SYM", "]")
            self.expect("SYM", ")")
            return Decl(kw, name, "", args, pos)
        head = self.expect("NAME").value
        self.expect("SYM", "(")
        args = () if self.at_sym(")") else tuple(self.listed(self.call_arg))
        self.expect("SYM", ")")
        return Decl(kw, name, head, args, pos)

    def arrow_pair(self, value=None):
        a = self.atom()
        self.expect("SYM", "->")
        return (a, (value or self.atom)())

    def call_arg(self):
        t = self.peek()
        if t.kind == "INT":
            return ("int", self.next().value)
        if t.kind == "NAME":
            return self.ref()
        if self.at_sym("{"):
            self.next()
            if self.at_sym("->", ahead=1):
                arg = ("map", tuple(self.listed(lambda: self.arrow_pair(self.term))))
            else:
                arg = ("set", tuple(self.listed(self.atom)))
            self.expect("SYM", "}")
            return arg
        self.fail(f"got {t.value!r}", expected=("argument",))


def parse(text: str) -> Script:
    """Parse and resolve a script; raises DslError on syntax problems,
    unresolved references, or kind mismatches."""
    script = _Parser(tokenize(text)).script()
    _resolve(script)
    return script


# ---------------------------------------------------------------------------
# rows: one per (keyword, head)

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

# what a builder is given besides its arguments: the declared name (for a
# check, its references joined by spaces) and the script's budget
_At = namedtuple("_At", "name budget")


def _builtin(at, which):
    if which not in _BUILTIN_MONOIDS:
        raise ValueError(f"unknown builtin monoid {which!r}")
    # the builtin's carrier, op and unit under the declared name
    return replace(_BUILTIN_MONOIDS[which], name=at.name)


def _table(at, elems, opname, unit):
    if opname not in _OPS:
        raise ValueError(f"unknown table op {opname!r}")
    m = kernel.finite_monoid(at.name, elems, _OPS[opname](unit), unit)
    report = kernel.monoid_check(m)
    if not report.ok:
        raise ValueError(f"{at.name} is not a monoid: {report.witnesses[0]}")
    return m


def _hom(at, src, dst, pairs):
    h = kernel.hom(src, dst, dict(pairs), name=at.name)
    # a hom out of builtin nat is checked over the labels it lists
    if not (report := kernel.hom_check(h)).ok:
        raise ValueError(f"hom {at.name} is not a homomorphism: {report.witnesses[0]}")
    return h


def _nat(at, src, dst, h, reindex=None):
    # the surface indices count from 1
    if reindex is not None:
        reindex = tuple(i - 1 for i in reindex)
    return kernel.nat_transform(src, dst, h, reindex, name=at.name)


def _constalg(at, sig, elements, pairs):
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
    return carriers.finite_algebra(sig, elements, alpha.__getitem__, at.name)


def _dual(_, alg):
    if not alg.term_based or alg.bound is None:
        raise ValueError("dual expects a bounded term algebra")
    return carriers.term_unfold_coalgebra(alg.sig, alg.bound)


def _machine(at, sig, pairs):
    return carriers.coalgebra(sig, [state for state, _ in pairs], dict(pairs), at.name)


def _solve(at, c, a, b):
    """A measure's solve report and its first lawful table as a measuring;
    None for the measuring if the solve ran out before keeping a table."""
    result = oracle.solve_measurings(c, a, b, at.budget, keep=1)
    report = kernel.Report.of(
        "solve", at.name, (f"{result.count} lawful tables",),
        failed=not result.solutions, ran_out=not result.exhaustive)
    if not result.solutions and not result.exhaustive:
        return report, None
    table = result.solutions[0] if result.solutions else {}
    return report, measuring.table_measuring(c, a, b, table, at.name)


def _law(at, phi):
    if phi is None:  # its solve ran out before keeping a table
        return kernel.Report.of("law", at.name, ran_out=True)
    try:
        return measuring.check_law(phi, max_witnesses=5)
    except ValueError as exc:
        return kernel.Report.of("law", at.name, (str(exc),))


def _count(kind, at, c, a, b, expected=1):
    """A unique or count check: it fails, showing up to two lawful tables,
    unless exactly ``expected`` tables are lawful."""
    result = oracle.solve_measurings(c, a, b, at.budget, keep=2)
    witnesses = ()
    if result.exhaustive and result.count != expected:
        tables = tuple(str(sorted((*map(carriers.render_value, k), carriers.render_value(v))
                                  for k, v in table.items())) for table in result.solutions)
        witnesses = (f"{result.count} lawful tables, expected {expected}",) + tables
    return kernel.Report.of(kind, at.name, witnesses, ran_out=not result.exhaustive)


# (keyword, head) -> (argument kinds, builder(at, *arguments)).  A kind is a
# declaration keyword, for a reference to such a declaration, or a literal:
# int, set ({a, b}), map ({a -> v, ...}), list ([i, ...]), word or label;
# ignored is a number a check parses and drops.  A builder is given the
# references first, then the literals, each in the order written, and
# returns the declared object; a measure's returns its solve report and its
# measuring, a check's its report.
_ROWS = {
    ("monoid", "builtin"): (("word",), _builtin),
    ("monoid", "table"): (("set", "word", "label"), _table),
    ("hom", ""): (("map", "monoid", "monoid"), _hom),
    ("nat", ""): (("functor", "functor", "hom", "list"), _nat),
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
    ("check", "law"): (("measure",), _law),
    ("check", "unique"): (("coalg", "alg", "alg"), partial(_count, "unique")),
    ("check", "count"): (("coalg", "alg", "alg", "int"), partial(_count, "count")),
    ("check", "c-initial"): (("coalg", "alg", "ignored", "ignored"),
                             lambda at, c, a, *_: oracle.decide_c_initial(c, a, at.budget)),
}


# ---------------------------------------------------------------------------
# resolution (names + kinds, no construction)


def _usage(keyword, head) -> str:
    """The usage a slip's parse error names: head(kind, ...) for a call, the
    line's words for a check."""
    kinds = _ROWS[keyword, head][0]
    if keyword == "check":
        return " ".join(["check", head] + ["N" if k == "int" else k.upper()
                                           for k in kinds if k != "ignored"])
    return f"{head}({', '.join(kinds)})"


def _resolve(script: Script):
    kinds = {}  # name -> (keyword, head, its numbers): a functor's give its arity

    def distinct(items, what, pos):
        # a repeated set element or map key would be miscounted or dropped
        seen = set()
        for x in items:
            if x in seen:
                raise DslError(f"duplicate {what} {x!r}", *pos)
            seen.add(x)

    for d in script.decls:
        pos, call = d.pos, d.keyword in _CALLS
        if (d.keyword, d.head) not in _ROWS:
            what = "check kind" if d.keyword == "check" else f"{d.keyword} constructor"
            raise DslError(f"unknown {what} {d.head!r}", *pos,
                           expected=[h for k, h in _ROWS if k == d.keyword])
        want, args, usage = _ROWS[d.keyword, d.head][0], d.args, _usage(d.keyword, d.head)
        if d.keyword == "check":  # its references, wherever its numbers sit
            args = [a for a in d.args if a[0] == "ref"]
            refs = [k for k in want if k in _DECL_KEYWORDS]
            if len(args) != len(refs):
                raise DslError(f"check {d.head} needs {len(refs)} "
                               f"reference{'s' * (len(refs) > 1)}; usage: {usage}", *pos)
        elif call and len(args) != len(want):
            raise DslError(f"{d.head} takes {len(want)} "
                           f"argument{'s' * (len(want) != 1)}; usage: {usage}", *pos)
        for i, ((kind, val), w) in enumerate(zip(args, want), 1):
            if kind == "set":
                distinct(val, "element", pos)
            elif kind == "map":
                distinct([a for a, _ in val], "key", pos)
            if kind == "ref" and val not in kinds:
                raise DslError(f"unresolved reference {val!r}", *pos)
            got = kinds[val][0] if kind == "ref" else kind
            if got != w and call:
                shown = f"{got} {val!r}" if kind == "ref" else got
                raise DslError(f"{d.head} argument {i}: want {w}, got {shown}; "
                               f"usage: {usage}", *pos)
            if got != w:
                raise DslError(f"{val!r} is a {got}, need a {w}", *pos)
        if d.keyword == "check":
            ints = [v for k, v in d.args if k == "int"]
            if len(ints) < want.count("int"):
                raise DslError(f"check {d.head} needs the expected number of measurings", *pos)
            extra = " ".join(map(str, ints[len(want) - len(refs):]))
            if extra:
                raise DslError(f"check {d.head}: extra number {extra}; usage: {usage}", *pos)
        if d.keyword == "nat":  # the functors' kinds agree, and a shape's reindex fits
            s, t = kinds[d.args[0][1]], kinds[d.args[1][1]]
            reindex = d.args[3][1] if len(d.args) > 3 else None
            if s[1] != t[1]:
                raise DslError(f"kind mismatch: no morphisms {s[1]} -> {t[1]}", *pos)
            if s[1] == "const" and reindex is not None:
                raise DslError("const morphisms take no reindex clause", *pos)
            if s[1] == "shape" and reindex is None:
                raise DslError("shape morphisms need a reindex clause", *pos)
            if s[1] == "shape" and len(reindex) != t[2]:
                raise DslError(f"reindex length {len(reindex)} != target arity {t[2]}", *pos)
            if s[1] == "shape" and any(not (1 <= i <= s[2]) for i in reindex):
                raise DslError("reindex entry outside source slots (1-based)", *pos)
        if d.name is not None:
            if d.name in kinds:
                raise DslError(f"duplicate name {d.name!r}", *pos)
            kinds[d.name] = (d.keyword, d.head) + tuple(v for k, v in d.args if k == "int")


# ---------------------------------------------------------------------------
# printing


def _print_arg(arg) -> str:
    kind, val = arg
    if kind == "set":
        return "{" + ", ".join(map(str, val)) + "}"
    if kind == "map":
        return "{" + ", ".join(f"{a} -> {carriers.render_value(v)}" for a, v in val) + "}"
    if kind == "list":
        return "[" + ", ".join(map(str, val)) + "]"
    return str(val)


def print_script(script: Script) -> str:
    """One line per declaration, in the surface form its keyword takes."""
    lines = []
    for d in script.decls:
        a = [_print_arg(x) for x in d.args]
        if d.keyword == "check":
            lines.append(" ".join(["check", d.head, *a]))
        elif d.keyword == "monoid":
            lines.append(" ".join(["monoid", d.name, "=", d.head, *a]))
        elif d.keyword == "hom":  # the map's pairs, in brackets
            lines.append(f"hom {d.name} : {a[1]} -> {a[2]} = [{a[0][1:-1]}]")
        elif d.keyword == "nat":
            reindex = "".join(f", reindex {x}" for x in a[3:])
            lines.append(f"nat {d.name} : {a[0]} -> {a[1]} = (hom {a[2]}{reindex})")
        else:
            lines.append(f"{d.keyword} {d.name} = {d.head}({', '.join(a)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution


class ScriptRunError(Exception):
    def __init__(self, message, pos):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


def run(script: Script, budget: int = oracle.DEFAULT_BUDGET):
    """Build each declaration, solve each measure and run each check, in
    script order, each by its row's builder.

    Returns (reports, kernel.exit_code(reports)).  A ValueError or KeyError
    raised at a declaration becomes a ScriptRunError at its position.
    Parsing has checked every reference's kind, so env holds the objects.
    """
    env, reports = {}, []
    for d in script.decls:
        refs = [v for k, v in d.args if k == "ref"]
        try:
            out = _ROWS[d.keyword, d.head][1](
                _At(d.name or " ".join(refs), budget),
                *[env[v] for v in refs], *[v for k, v in d.args if k != "ref"])
        except (ValueError, KeyError) as exc:
            raise ScriptRunError(str(exc), d.pos) from exc
        if d.keyword == "measure":  # its solve report, and the measuring
            reports.append(out[0])
            out = out[1]
        if d.keyword == "check":
            reports.append(out)
        else:
            env[d.name] = out
    return reports, kernel.exit_code(reports)


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
