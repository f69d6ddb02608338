"""Command line interface.

cind check FILE [--json] [--budget N]   run a script's checks
cind demo prune --shape S --tree T      overlay a fuel shape onto a tree
cind gallery NAME [--json]              run a named example setup

Exit codes: 0 all checks hold, 1 a check failed, 2 usage, parse or script
error, 3 a budget was exceeded, memory ran out, ``demo prune``'s terms are
too deep to evaluate (about 496 levels for the two together), or stdout was
closed before the output was all written; the last three print one
``cind: ...`` line, no traceback.  CIND_BUDGET overrides the default budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dsl, gallery, kernel, oracle


def _budget(args) -> int:
    if args.budget is not None:
        budget, source = args.budget, "--budget"
    else:
        env = os.environ.get("CIND_BUDGET")
        if env is None:
            return oracle.DEFAULT_BUDGET
        try:
            budget, source = int(env), "CIND_BUDGET"
        except ValueError:
            print(f"cind: CIND_BUDGET must be an integer, got {env!r}", file=sys.stderr)
            raise SystemExit(2) from None
    if budget < 0:
        print(f"cind: {source} must not be negative, got {budget}", file=sys.stderr)
        raise SystemExit(2)
    return budget


def _out_of_memory(what: str) -> int:
    print(f"cind: out of memory running {what}", file=sys.stderr)
    return 3


def cmd_check(args, out) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cind: {exc}", file=sys.stderr)
        return 2
    try:
        script = dsl.parse(text)
    except dsl.DslError as exc:
        print(f"cind: parse error: {exc}", file=sys.stderr)
        return 2
    try:
        reports, code = dsl.run(script, budget=_budget(args))
    except dsl.ScriptRunError as exc:
        print(f"cind: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        return _out_of_memory(args.file)
    if args.json:
        print(dsl.reports_to_json(reports), file=out)
    else:
        for r in reports:
            print(r.line(), file=out)
    return code


def cmd_demo_prune(args, out) -> int:
    try:
        print(dsl.demo_prune(args.shape, args.tree), file=out)
    except dsl.DslError as exc:
        print(f"cind: parse error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the measuring's evaluation recurses per level
        print("cind: the shape and the tree are too deep to prune "
              "(about 496 levels together)", file=sys.stderr)
        return 3
    return 0


def cmd_gallery(args, out) -> int:
    try:
        fixture = gallery.build_fixture(args.name, budget=_budget(args))
    except ValueError as exc:
        print(f"cind: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        return _out_of_memory(f"gallery {args.name}")
    if args.json:
        payload = {"name": fixture.name, "title": fixture.title,
                   "goldens": fixture.goldens,
                   "reports": [r.to_json() for r in fixture.reports]}
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(f"# {fixture.name}: {fixture.title}", file=out)
        for line in fixture.goldens + [r.line() for r in fixture.reports]:
            print(line, file=out)
    return kernel.exit_code(fixture.reports)


@functools.cache
def _parser():
    """The argument parser and its ``demo`` subparser, built once per process."""
    parser = argparse.ArgumentParser(prog="cind")
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run a script's checks")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--budget", type=int)

    p_demo = sub.add_parser("demo", help="small demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command")
    p_prune = demo_sub.add_parser("prune", help="overlay a fuel shape onto a tree")
    p_prune.add_argument("--shape", required=True)
    p_prune.add_argument("--tree", required=True)

    p_gal = sub.add_parser("gallery", help="run a named example setup")
    p_gal.add_argument("name")
    p_gal.add_argument("--json", action="store_true")
    p_gal.add_argument("--budget", type=int)
    return parser, p_demo


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser, p_demo = _parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.command == "check":
                code = cmd_check(args, out)
            elif args.command == "gallery":
                code = cmd_gallery(args, out)
            elif args.command == "demo" and args.demo_command == "prune":
                code = cmd_demo_prune(args, out)
            else:
                (p_demo if args.command == "demo" else parser).print_help(out)
                code = 2
        except SystemExit as exc:  # argparse usage errors and a bad CIND_BUDGET
            code = 2 if exc.code not in (0, None) else 0
        out.flush()
    except BrokenPipeError:  # the reader left early, as ``| head`` does
        if out is sys.stdout:  # the interpreter's last flush needs somewhere to go
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        print("cind: the output was closed before it was all written", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
