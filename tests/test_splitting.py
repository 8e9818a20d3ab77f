import pytest

from faadibruno.cli import run_suite
from faadibruno.config import RunConfig
from faadibruno.corpus import SPLIT_TEXT, corpus_split_entries, parse_corpus
from faadibruno.expr import Guard, GuardAtom, var
from faadibruno.laws import Rows
from faadibruno.report import overall_status
from faadibruno.smooth import TRIVIAL, apply_map, maps_equal, parse_smooth_map
from faadibruno.splitting import (
    SplitError,
    SplitMap,
    _d_guard_rows,
    hom_condition,
    split_D,
    split_identity,
    split_L,
    split_map,
    split_object,
    split_then,
    total_in_split,
)

CFG = RunConfig(samples=60)
SPLIT_CORPUS = corpus_split_entries(parse_corpus(SPLIT_TEXT))


def pm(text):
    return parse_smooth_map(text)


X_POS = Guard((GuardAtom(">0", var("x1")),))
X_NONZERO = Guard((GuardAtom("!=0", var("x1")),))


def test_split_identity_is_the_idempotent():
    obj = split_object(1, X_POS)
    m = split_identity(obj)
    assert m.f.coords == (var("x1"),)
    assert m.f.guard == X_POS


def test_inclusion_then_reciprocal():
    pos = split_object(1, X_POS)
    full = split_object(1)
    incl = split_map(pm("fn(x) -> (x) where x > 0"), pos, full, CFG)
    recip = split_map(pm("fn(x) -> (1/x)"), full, full, CFG)
    comp = split_then(incl, recip, CFG)
    assert comp.f.guard == Guard((GuardAtom(">0", var("x1")), GuardAtom("!=0", var("x1"))))
    assert apply_map(comp.f, (2.0,)) == (0.5,)


def test_r1_holds_in_split_category():
    pos = split_object(1, X_POS)
    full = split_object(1)
    m = split_map(pm("fn(x) -> (log(x))"), pos, full, CFG)
    from faadibruno.splitting import split_restriction
    r = split_restriction(m)
    comp = split_then(r, m)
    assert maps_equal(comp.f, m.f, CFG, "split-r1").ok


def test_hom_condition_violation_rejected():
    pos = split_object(1, X_POS)
    full = split_object(1)
    # defined on all of R, not fixed by the source idempotent
    with pytest.raises(SplitError):
        split_map(pm("fn(x) -> (x^2)"), pos, full, CFG)


def test_split_L_discards_idempotent():
    obj = split_object(1, X_NONZERO)
    vec = split_L(obj)
    assert vec.guard.is_true()
    assert split_L(vec) == vec


def test_split_D_of_identity_on_half_line():
    pos = split_object(1, X_POS)
    m = split_identity(pos)
    dm = split_D(m)
    assert apply_map(dm.f, (3.0, 2.0)) == (3.0,)  # D(id)(v, x) = v
    assert dm.src.guard == Guard((GuardAtom(">0", var("x2")),))


def test_split_D_of_square_on_half_line():
    pos = split_object(1, X_POS)
    full = split_object(1)
    m = split_map(pm("fn(x) -> (x^2) where x > 0"), pos, full, CFG)
    dm = split_D(m)
    assert apply_map(dm.f, (1.0, 3.0)) == (6.0,)
    assert hom_condition(dm, CFG, "dhom").ok


def test_trivial_assignment_on_split_derivative():
    pos = split_object(1, X_POS)
    full = split_object(1)
    m = split_map(pm("fn(x) -> (log(x))"), pos, full, CFG)
    dm = split_D(m, TRIVIAL)
    assert dm.f.cod.dim == 0
    assert hom_condition(dm, CFG, "trivial-dhom").ok


def test_split_cdc_suite_passes():
    rows = run_suite("split", SPLIT_CORPUS, CFG)
    failures = [r for r in rows if r.gating and r.status != "pass"]
    assert failures == []
    assert overall_status(rows) == "pass"
    axioms = {r.axiom for r in rows}
    assert "split.D-guard-structural" in axioms
    assert "split.trivial-L-degenerate" in axioms


def test_total_in_split_detects_mismatch():
    full = split_object(1)
    m = split_map(pm("fn(x) -> (1/x)"), full, full, CFG)
    assert not total_in_split(m, CFG, "tot").ok
    pos = split_object(1, X_NONZERO)
    m2 = split_map(pm("fn(x) -> (1/x)"), pos, full, CFG)
    assert total_in_split(m2, CFG, "tot2").ok


def test_d_guard_row_starves_when_points_run_out():
    # the doubled domain is 2-dimensional: eight probes and five random
    # points, short of 50 samples
    cfg = RunConfig(samples=50, retry_cap=5)
    rows = run_suite("split", SPLIT_CORPUS[:1], cfg)
    row, = [r for r in rows if r.axiom == "split.D-guard-is-source-guard"]
    assert row.status == "starved"
    assert row.note == "sampling starvation"


def test_d_guard_row_reports_its_witness():
    # D(1/x) is defined wherever x != 0, the source only where x > 0: the
    # first point where exactly one of the two holds is the probe (0, -1)
    m = SplitMap(pm("fn(x) -> (1/x)"), split_object(1, X_POS), split_object(1))
    r = Rows("split", 0, CFG)
    _d_guard_rows(r, m, split_D(m))
    row, = [row for row in r.rows if row.axiom == "split.D-guard-is-source-guard"]
    assert row.status == "fail"
    assert row.witness_point == (0.0, -1.0)
    assert row.note == "guard mismatch"
