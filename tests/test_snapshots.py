"""The users' own output, pinned: `cind gallery NAME --json` for every setup
and `cind check FIXTURE --json` for every fixture script, byte for byte, and
the coverage each report states."""

import functools
import io
import json
from pathlib import Path

import pytest

from cind import cli
from cind.gallery import GALLERY

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "cind" / "fixtures"


@functools.lru_cache(maxsize=None)
def _cli(*argv):
    out = io.StringIO()
    return cli.main(list(argv), out=out), out.getvalue()


def _gallery(name, *flags):
    return _cli("gallery", name, *flags)


def _check(name, *flags):
    return _cli("check", str(FIXTURE_DIR / f"{name}.cind"), *flags)


@pytest.mark.parametrize("command", ["gallery", "check"])
@pytest.mark.parametrize("name", sorted(GALLERY))
def test_json_output_matches_snapshot(command, name):
    run = _gallery if command == "gallery" else _check
    code, text = run(name, "--json")
    assert code == 0
    assert text == (SNAPSHOTS / f"{command}_{name}.json").read_text(encoding="utf-8")


def _coverage_by_report(text_out, json_reports):
    """{(claim, instance): coverage} from the JSON, checked against the text."""
    lines = set(text_out.splitlines())
    out = {}
    for r in json_reports:
        assert f"[{r['status']}] {r['claim']} {r['instance']}  ({r['coverage']})" in lines
        out[r["claim"], r["instance"]] = r["coverage"]
    return out


def test_sampled_reports_say_so_in_text_and_json():
    _, text = _gallery("tree_pruning")
    _, blob = _gallery("tree_pruning", "--json")
    coverage = _coverage_by_report(text, json.loads(blob)["reports"])
    sampled = {key for key, cov in coverage.items() if cov.startswith("sampled: ")}
    assert {("law", "prune"), ("law", "loopprune"), ("law", "push[listzip]")} <= sampled
    assert all(coverage[key] == "exhaustive" for key in coverage if key[0] == "c-initial")


def test_exhaustive_reports_say_so_in_text_and_json():
    _, text = _check("pulling_back_lists")
    _, blob = _check("pulling_back_lists", "--json")
    coverage = _coverage_by_report(text, json.loads(blob))
    assert coverage["solve", "zip2"] == "exhaustive"
    assert coverage["law", "zip2"] == "exhaustive"
    assert coverage["unique", "L2d L2 L2"] == "exhaustive"
    assert coverage["c-initial", "counter2 (x) T2[shape(Triv,1)]"] == "exhaustive"
