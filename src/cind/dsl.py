"""Script frontend: a small declaration language for monoids, signatures,
morphisms, carriers, measurings, and checks.

One-pass recursive descent over a fixed token set; parse errors carry
line:col and the expected-token set.  Parsing also resolves references and
rejects kind mismatches; elaboration then builds the semantic objects and
``run`` executes the declared checks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from . import carriers, kernel, measuring, oracle, transport
from .kernel import BOTTOM, Node

CHECK_SEED = 2024


class DslError(Exception):
    """Parse-stage failure: syntax, unresolved reference, or kind mismatch."""

    def __init__(self, message, line=0, col=0, expected=()):
        self.line, self.col, self.expected = line, col, tuple(expected)
        extra = f" (expected: {', '.join(sorted(self.expected))})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{extra}")


# ---------------------------------------------------------------------------
# tokens

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z][A-Za-z0-9_]*)*")
_INT = re.compile(r"\d+")
_SYMS = ("->", "=", ":", ",", "{", "}", "(", ")", "[", "]")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME INT SYM BOTTOM EOF
    value: Any
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            nxt = text[i + 1:i + 2]
            after = text[i + 2:i + 3]
            if nxt == "b" and not (after.isalnum() or after == "_"):
                tokens.append(Token("BOTTOM", "#b", line, col))
                i += 2
                col += 2
                continue
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two == "->":
            tokens.append(Token("SYM", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "=:,{}()[]":
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        m = _INT.match(text, i)
        if m:
            tokens.append(Token("INT", int(m.group()), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(Token("NAME", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
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
class FunctorDecl(Decl):
    name: str
    kind: str  # const | shape
    monoid: str
    arity: int = 0


@dataclass(frozen=True)
class NatDecl(Decl):
    name: str
    src: str
    dst: str
    hom: str
    reindex: tuple = None  # 1-based surface indices


@dataclass(frozen=True)
class CarrierDecl(Decl):
    which: str  # alg | coalg
    name: str
    head: str
    args: tuple


@dataclass(frozen=True)
class MeasureDecl(Decl):
    name: str
    coalg: str
    source: str
    target: str


@dataclass(frozen=True)
class CheckDecl(Decl):
    kind: str
    args: tuple


# argument payloads inside carrier constructor calls
# ("ref", name) | ("int", k) | ("term", t) | ("set", atoms) | ("map", pairs)


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

    def at_sym(self, value) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.value == value

    # atoms are bare labels: names or integers
    def atom(self):
        t = self.peek()
        if t.kind in ("NAME", "INT"):
            return self.next().value
        self.fail(f"got {t.value!r}", expected=("label",))

    def term(self):
        t = self.peek()
        if t.kind == "BOTTOM":
            self.next()
            return BOTTOM
        if self.at_sym("("):
            self.next()
            label = self.atom()
            slots = []
            while not self.at_sym(")"):
                slots.append(self.term())
            self.next()
            return Node(label, tuple(slots))
        if self.at_sym("["):
            self.next()
            items = [self.atom()]
            while self.at_sym(","):
                self.next()
                items.append(self.atom())
            self.expect("SYM", "]")
            out = BOTTOM
            for x in reversed(items):
                out = Node(x, (out,))
            return out
        self.fail(f"got {t.value!r}", expected=("#b", "(", "["))

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
        if kw == "functor":
            return self.functor_decl(pos)
        if kw == "nat":
            return self.nat_decl(pos)
        if kw in ("alg", "coalg"):
            return self.carrier_decl(pos)
        if kw == "measure":
            return self.measure_decl(pos)
        if kw == "check":
            return self.check_decl(pos)
        self.fail(f"got {kw!r}",
                  expected=("monoid", "hom", "functor", "nat", "alg", "coalg",
                            "measure", "check"))

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
        elems = [self.atom()]
        while self.at_sym(","):
            self.next()
            elems.append(self.atom())
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
        pairs = [self.arrow_pair()]
        while self.at_sym(","):
            self.next()
            pairs.append(self.arrow_pair())
        self.expect("SYM", "]")
        return HomDecl(name, src, dst, tuple(pairs), pos=pos)

    def arrow_pair(self):
        a = self.atom()
        self.expect("SYM", "->")
        return (a, self.atom())

    def functor_decl(self, pos):
        self.next()
        name = self.expect("NAME").value
        self.expect("SYM", "=")
        kind = self.expect("NAME").value
        if kind not in ("const", "shape"):
            self.fail(f"got {kind!r}", expected=("const", "shape"))
        self.expect("SYM", "(")
        monoid = self.expect("NAME").value
        arity = 0
        if kind == "shape":
            self.expect("SYM", ",")
            arity = self.expect("INT").value
        self.expect("SYM", ")")
        return FunctorDecl(name, kind, monoid, arity, pos=pos)

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
            idx = [self.expect("INT").value]
            while self.at_sym(","):
                self.next()
                idx.append(self.expect("INT").value)
            self.expect("SYM", "]")
            reindex = tuple(idx)
        self.expect("SYM", ")")
        return NatDecl(name, src, dst, h, reindex, pos=pos)

    def carrier_decl(self, pos):
        which = self.next().value
        name = self.expect("NAME").value
        self.expect("SYM", "=")
        head = self.expect("NAME").value
        self.expect("SYM", "(")
        args = []
        if not self.at_sym(")"):
            args.append(self.call_arg())
            while self.at_sym(","):
                self.next()
                args.append(self.call_arg())
        self.expect("SYM", ")")
        return CarrierDecl(which, name, head, tuple(args), pos=pos)

    def call_arg(self):
        t = self.peek()
        if t.kind == "INT":
            return ("int", self.next().value)
        if t.kind == "NAME":
            return ("ref", self.next().value)
        if t.kind == "BOTTOM" or self.at_sym("(") or self.at_sym("["):
            return ("term", self.term())
        if self.at_sym("{"):
            self.next()
            first = self.atom()
            if self.at_sym("->"):
                self.next()
                pairs = [(first, self.brace_value())]
                while self.at_sym(","):
                    self.next()
                    pairs.append(self.arrow_pair_value())
                self.expect("SYM", "}")
                return ("map", tuple(pairs))
            items = [first]
            while self.at_sym(","):
                self.next()
                items.append(self.atom())
            self.expect("SYM", "}")
            return ("set", tuple(items))
        self.fail(f"got {t.value!r}", expected=("argument",))

    def brace_value(self):
        # one level of unfolding: bottom, a bare label, or a node whose slots
        # are state names
        t = self.peek()
        if t.kind == "BOTTOM":
            self.next()
            return ("term", BOTTOM)
        if self.at_sym("("):
            self.next()
            label = self.atom()
            slots = []
            while not self.at_sym(")"):
                slots.append(self.atom())
            self.next()
            return ("term", Node(label, tuple(slots)))
        return ("atom", self.atom())

    def arrow_pair_value(self):
        a = self.atom()
        self.expect("SYM", "->")
        return (a, self.brace_value())

    def measure_decl(self, pos):
        self.next()
        name = self.expect("NAME").value
        self.expect("SYM", "=")
        self.expect("NAME", "solve")
        self.expect("SYM", "(")
        c = self.expect("NAME").value
        self.expect("SYM", ",")
        a = self.expect("NAME").value
        self.expect("SYM", ",")
        b = self.expect("NAME").value
        self.expect("SYM", ")")
        return MeasureDecl(name, c, a, b, pos=pos)

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
# resolution (names + kinds, no construction)

_ALG_HEADS = {"bounded", "initial", "pullback", "expand", "pushout", "constalg"}
_COALG_HEADS = {"counter", "shapes", "dual", "unit", "tensor", "pushforward",
                "restrict", "machine"}
# check kind -> its usage, the kinds of its references, the most numbers it takes
_CHECK_KINDS = {
    "law": ("check law MEASURE", ("measure",), 0),
    "unique": ("check unique COALG ALG ALG", ("coalg", "alg", "alg"), 0),
    "count": ("check count COALG ALG ALG N", ("coalg", "alg", "alg"), 1),
    "c-initial": ("check c-initial COALG ALG [MAX_SIZE [PER_SIZE]]", ("coalg", "alg"), 2),
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

    for d in script.decls:
        pos = d.pos
        if isinstance(d, MonoidDecl):
            declare(d.name, ("monoid",), pos)
        elif isinstance(d, HomDecl):
            need(d.src, "monoid", pos)
            need(d.dst, "monoid", pos)
            declare(d.name, ("hom",), pos)
        elif isinstance(d, FunctorDecl):
            need(d.monoid, "monoid", pos)
            declare(d.name, ("functor", d.kind, d.arity), pos)
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
        elif isinstance(d, CarrierDecl):
            heads = _ALG_HEADS if d.which == "alg" else _COALG_HEADS
            if d.head not in heads:
                raise DslError(f"unknown {d.which} constructor {d.head!r}", *pos)
            for kind, val in d.args:
                if kind == "ref":
                    if val not in kinds:
                        raise DslError(f"unresolved reference {val!r}", *pos)
            declare(d.name, (d.which,), pos)
        elif isinstance(d, MeasureDecl):
            need(d.coalg, "coalg", pos)
            need(d.source, "alg", pos)
            need(d.target, "alg", pos)
            declare(d.name, ("measure",), pos)
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
            if d.kind == "c-initial" and any(k < 1 for k in ints):
                raise DslError("check c-initial needs a size bound and per-size count >= 1", *pos)
            extra = " ".join(map(str, ints[most:]))
            if extra:
                raise DslError(f"check {d.kind}: extra number {extra}; usage: {usage}", *pos)


# ---------------------------------------------------------------------------
# printing


def _print_arg(arg) -> str:
    kind, val = arg
    if kind == "ref":
        return str(val)
    if kind == "int":
        return str(val)
    if kind == "term":
        return carriers.render_term(val)
    if kind == "set":
        return "{" + ", ".join(map(str, val)) + "}"
    if kind == "map":
        parts = []
        for a, b in val:
            rhs = carriers.render_term(b[1]) if b[0] == "term" else str(b[1])
            parts.append(f"{a} -> {rhs}")
        return "{" + ", ".join(parts) + "}"
    raise ValueError(f"unknown argument kind {kind!r}")


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
        elif isinstance(d, FunctorDecl):
            if d.kind == "const":
                lines.append(f"functor {d.name} = const({d.monoid})")
            else:
                lines.append(f"functor {d.name} = shape({d.monoid}, {d.arity})")
        elif isinstance(d, NatDecl):
            clause = f"hom {d.hom}"
            if d.reindex is not None:
                clause += f", reindex [{', '.join(map(str, d.reindex))}]"
            lines.append(f"nat {d.name} : {d.src} -> {d.dst} = ({clause})")
        elif isinstance(d, CarrierDecl):
            args = ", ".join(_print_arg(a) for a in d.args)
            lines.append(f"{d.which} {d.name} = {d.head}({args})")
        elif isinstance(d, MeasureDecl):
            lines.append(f"measure {d.name} = solve({d.coalg}, {d.source}, {d.target})")
        elif isinstance(d, CheckDecl):
            args = " ".join(str(v) for _, v in d.args)
            lines.append(f"check {d.kind}{' ' + args if args else ''}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# elaboration and execution

_OPS = {
    "max": max,
    "min": min,
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "or": lambda a, b: a or b,
    "and": lambda a, b: a and b,
}

_BUILTIN_MONOIDS = {
    "nat": kernel.NAT_PLUS,
    "trivial": kernel.TRIV,
}


class ScriptRunError(Exception):
    def __init__(self, message, pos):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


def _err(pos, message):
    return ScriptRunError(message, pos)


def elaborate(script: Script) -> dict:
    """Construct the semantic object for every declaration."""
    env = {}

    def ref(name):
        return env[name][1]

    for d in script.decls:
        try:
            if isinstance(d, MonoidDecl):
                if d.body[0] == "builtin":
                    which = d.body[1]
                    if which not in _BUILTIN_MONOIDS:
                        raise _err(d.pos, f"unknown builtin monoid {which!r}")
                    env[d.name] = ("monoid", _BUILTIN_MONOIDS[which])
                else:
                    _, elems, opname, unit = d.body
                    if opname not in _OPS:
                        raise _err(d.pos, f"unknown table op {opname!r}")
                    env[d.name] = ("monoid", kernel.finite_monoid(
                        d.name, elems, _OPS[opname], unit))
            elif isinstance(d, HomDecl):
                env[d.name] = ("hom", kernel.hom(ref(d.src), ref(d.dst), dict(d.pairs)))
            elif isinstance(d, FunctorDecl):
                m = ref(d.monoid)
                sig = kernel.const_sig(m) if d.kind == "const" else kernel.shape_sig(m, d.arity)
                env[d.name] = ("functor", sig)
            elif isinstance(d, NatDecl):
                reindex = None if d.reindex is None else tuple(i - 1 for i in d.reindex)
                env[d.name] = ("nat", kernel.nat_transform(
                    ref(d.src), ref(d.dst), ref(d.hom), reindex, name=d.name))
            elif isinstance(d, CarrierDecl):
                env[d.name] = (d.which, _build_carrier(d, ref))
            elif isinstance(d, (MeasureDecl, CheckDecl)):
                pass  # executed by run
        except (ValueError, KeyError) as exc:
            raise _err(d.pos, str(exc)) from exc
    return env


def _build_carrier(d: CarrierDecl, ref):
    def arg(i, want):
        kind, val = d.args[i]
        if kind != want:
            raise _err(d.pos, f"{d.head}: argument {i + 1} must be a {want}")
        return val

    head = d.head
    if head == "bounded":
        return carriers.term_algebra_bounded(ref(arg(0, "ref")), arg(1, "int"))
    if head == "initial":
        return carriers.initial_term_algebra(ref(arg(0, "ref")))
    if head == "pullback":
        return transport.pullback_algebra(ref(arg(0, "ref")), ref(arg(1, "ref")))
    if head == "expand":
        return transport.expand_algebra(ref(arg(0, "ref")), ref(arg(1, "ref"))).algebra
    if head == "pushout":
        nat = ref(arg(0, "ref"))
        return transport.pushout_algebra(nat.hom, ref(arg(1, "ref"))).algebra
    if head == "constalg":
        sig = ref(arg(0, "ref"))
        elements = arg(1, "set")
        alpha = {a: b[1] for a, b in arg(2, "map")}
        missing = [x for x in (sig.monoid.elements or ()) if x not in alpha]
        if missing:
            raise _err(d.pos, f"constalg interpretation missing labels {missing!r}")
        return carriers.finite_algebra(sig, elements, alpha.__getitem__, d.name)
    if head == "counter":
        return carriers.counter_coalgebra(ref(arg(0, "ref")), arg(1, "int"))
    if head == "shapes":
        return carriers.shape_coalgebra(ref(arg(0, "ref")), arg(1, "int"))
    if head == "dual":
        alg = ref(arg(0, "ref"))
        if not alg.term_based or alg.bound is None:
            raise _err(d.pos, "dual expects a bounded term algebra")
        return carriers.term_unfold_coalgebra(alg.sig, alg.bound)
    if head == "unit":
        return carriers.unit_coalgebra(ref(arg(0, "ref")))
    if head == "tensor":
        return carriers.tensor_coalgebra(ref(arg(0, "ref")), ref(arg(1, "ref")))
    if head == "pushforward":
        return transport.pushforward_coalgebra(ref(arg(0, "ref")), ref(arg(1, "ref")))
    if head == "restrict":
        return transport.restrict_coalgebra(ref(arg(0, "ref")), ref(arg(1, "ref"))).coalg
    if head == "machine":
        sig = ref(arg(0, "ref"))
        entries = arg(1, "map")
        chi = {state: val[1] for state, val in entries}
        states = tuple(s for s, _ in entries)
        return carriers.coalgebra(sig, states, chi, d.name)
    raise _err(d.pos, f"unknown constructor {head!r}")


def run(script: Script, budget: int = oracle.DEFAULT_BUDGET):
    """Execute the script's measure and check declarations.

    Returns (reports, kernel.exit_code(reports)).  A ValueError raised while
    running a declaration becomes a ScriptRunError at that declaration's
    position.
    """
    env = elaborate(script)
    reports = []
    for d in script.decls:
        try:
            if isinstance(d, MeasureDecl):
                c, a, b = env[d.coalg][1], env[d.source][1], env[d.target][1]
                result = oracle.solve_measurings(c, a, b, budget)
                reports.append(kernel.Report.of(
                    "solve", d.name, (f"{len(result.solutions)} lawful tables",),
                    failed=not result.solutions, ran_out=not result.exhaustive))
                table = result.solutions[0] if result.solutions else {}
                env[d.name] = ("measure", measuring.table_measuring(c, a, b, table, d.name))
            elif isinstance(d, CheckDecl):
                reports.append(_run_check(d, env, budget))
        except ValueError as exc:
            raise _err(d.pos, str(exc)) from exc
    return reports, kernel.exit_code(reports)


def _run_check(d: CheckDecl, env, budget) -> kernel.Report:
    refs = [v for k, v in d.args if k == "ref"]
    ints = [v for k, v in d.args if k == "int"]
    if d.kind == "law":
        try:
            return measuring.check_law(env[refs[0]][1], max_witnesses=5)
        except ValueError as exc:
            return kernel.Report.of("law", refs[0], (str(exc),))
    if d.kind == "c-initial":
        c, a = env[refs[0]][1], env[refs[1]][1]
        max_size = ints[0] if ints else 2
        per_size = ints[1] if len(ints) > 1 else 5
        targets = oracle.random_algebras(a.sig, range(1, max_size + 1),
                                         per_size, seed=CHECK_SEED)
        return oracle.check_c_initial(c, a, targets, budget)
    if d.kind in ("count", "unique"):
        c, a, b = env[refs[0]][1], env[refs[1]][1], env[refs[2]][1]
        expected = ints[0] if d.kind == "count" else 1
        result = oracle.solve_measurings(c, a, b, budget)
        witnesses = ()
        if result.exhaustive and len(result.solutions) != expected:
            tables = tuple(
                str(sorted((carriers.render_value(k[0]), carriers.render_value(k[1]),
                            carriers.render_value(v)) for k, v in table.items()))
                for table in result.solutions[:2])
            witnesses = (f"{len(result.solutions)} lawful tables, expected {expected}",) + tables
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
        if kernel.is_bottom(t):
            return True
        return (isinstance(t, Node) and isinstance(t.label, int)
                and len(t.slots) == 2 and all(well_formed(s) for s in t.slots))

    for name, t in (("shape", shape_term), ("tree", tree_term)):
        if not well_formed(t):
            raise DslError(f"{name} must be a binary tree with natural-number labels")
    sig = kernel.shape_sig(kernel.NAT_PLUS, 2)
    trees = carriers.initial_term_algebra(sig)
    fuel = carriers.term_as_coalgebra(sig, shape_term)
    phi = measuring.canonical_term_measuring(fuel, trees, trees)
    return carriers.render_term(phi.eval(shape_term, tree_term))
