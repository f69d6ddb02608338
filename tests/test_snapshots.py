"""The users' own output, pinned: `cind gallery NAME --json` for every setup
and `cind check FIXTURE --json` for every fixture script, byte for byte, in
this process and in fresh ones under other hash seeds, and the coverage each
report states."""

import functools
import io
import json
import os
import subprocess
import sys
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


def test_json_output_repeats_across_processes_and_hash_seeds():
    # terms hash by identity and strings by PYTHONHASHSEED, so both change
    # from process to process; no output may depend on either
    argvs = [[command, name if command == "gallery" else str(FIXTURE_DIR / f"{name}.cind"),
              "--json"] for command in ("gallery", "check") for name in sorted(GALLERY)]
    script = ("import sys\nfrom cind import cli\n"
              f"sys.exit(any([cli.main(argv) for argv in {argvs!r}]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
            for seed in ("0", "1")]
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    assert outputs[0] == "".join((SNAPSHOTS / f"{command}_{name}.json").read_text(encoding="utf-8")
                                 for command in ("gallery", "check") for name in sorted(GALLERY))


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
