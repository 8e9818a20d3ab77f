from collections import Counter

import pytest

from faadibruno import smooth as S
from faadibruno.config import RunConfig
from faadibruno.laws import check_cd_axioms, check_dr_axioms, run_cd_suite, run_dr_suite
from faadibruno.report import overall_status
from faadibruno.smooth import CLASSICAL, TRIVIAL, D, parse_smooth_map

CFG = RunConfig(samples=80)


def pm(text):
    return parse_smooth_map(text)


TOTAL_PAIRS = [
    (pm("fn(x) -> (sin(x))"), pm("fn(y) -> (y^2)")),
    (pm("fn(x,y) -> (x*y, x + y)"), pm("fn(u,v) -> (u - v^2)")),
    (pm("fn(x) -> (x, x^2)"), pm("fn(u,v) -> (u*v)")),
]

GUARDED_PAIRS = [
    (pm("fn(x) -> (1/x)"), pm("fn(y) -> (y^2 + y)")),
    (pm("fn(x) -> (x^2 + 1)"), pm("fn(y) -> (log(y))")),
    (pm("fn(x) -> (sqrt(x))"), pm("fn(y) -> (cos(y))")),
    (pm("fn(x) -> (exp(x))"), pm("fn(y) -> (1/y)")),
]


def gating_failures(rows):
    return [r for r in rows if r.gating and r.status != "pass"]


def test_cd_suite_passes_classical_total():
    rows = run_cd_suite(TOTAL_PAIRS, CLASSICAL, CFG)
    assert gating_failures(rows) == []
    assert overall_status(rows) == "pass"


def test_cd2_printed_form_reported_without_gating():
    rows = check_cd_axioms(*TOTAL_PAIRS[0], CLASSICAL, CFG)
    printed = [r for r in rows if r.axiom == "CD.2.printed-form"]
    assert len(printed) == 1
    assert printed[0].gating is False
    # the printed variant genuinely disagrees with additivity on nonlinear maps
    assert printed[0].status == "fail"


def test_dr_suite_passes_on_guarded_corpus():
    rows = run_dr_suite(GUARDED_PAIRS, CLASSICAL, CFG)
    assert gating_failures(rows) == []


def test_trivial_assignment_passes_degenerately():
    rows = run_cd_suite(TOTAL_PAIRS, TRIVIAL, CFG)
    rows += run_dr_suite(GUARDED_PAIRS, TRIVIAL, CFG)
    assert gating_failures(rows) == []


def test_dr9_structural_row():
    rows = check_dr_axioms(*GUARDED_PAIRS[0], CLASSICAL, CFG)
    structural = [r for r in rows if r.axiom == "DR.9.structural"]
    assert structural and structural[0].status == "pass"


def test_broken_derivative_detected():
    # a wrong chain-rule composite: forgets to move the point through f
    f, g = GUARDED_PAIRS[1]
    rows = check_cd_axioms(f, g, CLASSICAL, CFG)
    assert gating_failures(rows) == []
    from faadibruno import smooth as S

    bad = S.then(S.tuple_map([D(f), S.select([1, 1], [1])]), D(g))
    good = D(S.then(f, g))
    out = S.maps_equal(bad, good, CFG, "broken")
    assert out.status == "fail"
    assert out.witness is not None


@pytest.mark.parametrize("check", [check_cd_axioms, check_dr_axioms])
def test_each_map_is_differentiated_at_most_once_per_pair(check, monkeypatch):
    differentiated = []
    tower = S.derivative_tower

    def counting(f, n, L=CLASSICAL):
        differentiated.append(f)
        return tower(f, n, L)

    monkeypatch.setattr(S, "derivative_tower", counting)
    for f, g in TOTAL_PAIRS + GUARDED_PAIRS:
        differentiated.clear()
        check(f, g, CLASSICAL, RunConfig(samples=5))
        assert differentiated and max(Counter(differentiated).values()) == 1
