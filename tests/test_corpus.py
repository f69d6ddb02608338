"""Seeded ``cind check`` scripts run through ``cli.main``: the exit codes,
the budget and the printer round trip hold on each."""

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr

from cind import cli, dsl
from helpers import random_script


def _check(path, *flags):
    """(exit code, stdout, stderr) of ``cind check PATH --json`` in process;
    an exception from ``cli.main`` fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = cli.main(["check", str(path), "--json", *flags], out=out)
    return code, out.getvalue(), err.getvalue()


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError


def test_seeded_scripts_keep_exit_codes_budgets_and_the_round_trip(tmp_path):
    # each exit code is in 0..3 and an exit 2 names line:col; a lower budget
    # turns a report only into budget and the exit code only into 3; the
    # printed script gives the same output; and a reader that has left makes
    # any output exit 3, with no traceback
    rng = random.Random(25)
    codes = Counter()
    for i in range(100):
        text = random_script(rng)
        path = tmp_path / f"s{i}.cind"
        path.write_text(text)
        code, out, err = _check(path)
        codes[code] += 1
        assert code in (0, 1, 2, 3), (text, err)
        err_closed = io.StringIO()
        with redirect_stderr(err_closed):
            closed = cli.main(["check", str(path), "--json"], out=_ClosedPipe())
        assert closed == (3 if out else code) and "Traceback" not in err_closed.getvalue()
        budget = rng.choice((0, 1, 3, 10, 100))
        low_code, low_out, low_err = _check(path, "--budget", str(budget))
        if code == 2:
            assert re.search(r"\b\d+:\d+: ", err), (text, err)
            assert (low_code, low_err) == (code, err), text
        else:
            reports, low = json.loads(out), json.loads(low_out)
            assert low_code in (code, 3), (text, budget)
            assert len(low) == len(reports), text
            assert all(r == s or r["status"] == "budget" for r, s in zip(low, reports)), text
        try:
            printed = dsl.print_script(dsl.parse(text))
        except dsl.DslError:
            assert code == 2
            continue
        path.write_text(printed)
        assert _check(path) == (code, out, err), text
    assert min(codes[k] for k in (0, 1, 2)) >= 10, codes
