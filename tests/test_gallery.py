import io

import pytest

from cind import cli
from cind.gallery import GALLERY, build_fixture
from cind.measuring import check_law


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_fixture_checks_all_hold(gallery_fixture, name):
    fixture = gallery_fixture(name)
    for report in fixture.reports:
        assert report.ok, f"{name}: {report.claim} {report.instance}: {report.witnesses[:2]}"


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_fixture_measurings_are_lawful(gallery_fixture, name):
    fixture = gallery_fixture(name)
    assert fixture.measurings
    for phi, kwargs in fixture.measurings:
        assert check_law(phi, **kwargs).ok


def test_tree_pruning_goldens(gallery_fixture):
    fixture = gallery_fixture("tree_pruning")
    assert "prune #b (5 (1 #b #b) #b) -> #b" in fixture.goldens
    assert "prune (0 #b #b) (5 (1 #b #b) #b) -> (5 #b #b)" in fixture.goldens
    assert ("push [0,1,2] (5 (1 #b #b) (7 #b #b)) -> (5 (2 #b #b) (8 #b #b))"
            in fixture.goldens)


def test_intro_examples_perfect_golden(gallery_fixture):
    fixture = gallery_fixture("intro_examples")
    assert "perfect 2 -> (0 (0 #b #b) (0 #b #b))" in fixture.goldens


def test_unknown_fixture():
    with pytest.raises(ValueError):
        build_fixture("mystery")


def test_gallery_cli_tree_pruning_reproduces_goldens():
    out = io.StringIO()
    code = cli.main(["gallery", "tree_pruning"], out=out)
    text = out.getvalue()
    assert code == 0
    assert "prune #b (5 (1 #b #b) #b) -> #b" in text
    assert "prune (0 #b #b) (5 (1 #b #b) #b) -> (5 #b #b)" in text
    assert "loop-prune (5 (1 #b #b) (7 #b #b)) -> (5 (1 #b #b) (7 #b #b))" in text


def test_gallery_budget_bounds_the_adjunction_solves():
    out = io.StringIO()
    code = cli.main(["gallery", "truth_monoid", "--budget", "1"], out=out)
    assert code == 3
    assert "[budget] adjunction[bang] 4 instances" in out.getvalue()
