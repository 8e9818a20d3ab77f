from faadibruno import jetlaws
from faadibruno.config import RunConfig
from faadibruno.corpus import GUARDED_PAIRS_TEXT, corpus_pairs, parse_corpus
from faadibruno.jets import cofree_jet, compose_jets, jet_from_dict, jet_to_dict
from faadibruno.cli import run_suite
from faadibruno.jetlaws import check_multilinearity, linear_items
from faadibruno.report import overall_status
from faadibruno.smooth import CLASSICAL, apply_map, parse_smooth_map

CFG = RunConfig(samples=60, order=3)


def pm(text):
    return parse_smooth_map(text)


GUARDED_PAIRS = [
    (pm("fn(x) -> (1/x)"), pm("fn(y) -> (y^2 + y)")),
    (pm("fn(x) -> (x^2 + 1)"), pm("fn(y) -> (log(y))")),
    (pm("fn(x) -> (sqrt(x))"), pm("fn(y) -> (cos(y))")),
]


def gating_failures(rows):
    return [r for r in rows if r.gating and r.status != "pass"]


def test_faa_r_suite_passes_on_guarded_corpus():
    rows = run_suite("faa-r", GUARDED_PAIRS, CFG)
    assert gating_failures(rows) == []
    assert overall_status(rows) == "pass"


def test_multilinearity_check_accepts_towers():
    F = cofree_jet(pm("fn(x,y) -> (x*y^2)"), CLASSICAL, 3)
    out = check_multilinearity(F, CFG, "ml")
    assert out.ok


def test_operation_outputs_stay_well_formed():
    # composition, restriction and the jet derivative must all produce
    # multilinear symmetric components with point-only guards
    from faadibruno.jets import compose_jets, derivative_jet, restriction_jet
    from faadibruno.jetlaws import check_guard_side_condition

    F = cofree_jet(pm("fn(x) -> (1/x)"), CLASSICAL, 4)
    G = cofree_jet(pm("fn(y) -> (y^2 + y)"), CLASSICAL, 4)
    produced = {
        "compose": compose_jets(F, G),
        "restriction": restriction_jet(F),
        "derivative": derivative_jet(F),
    }
    for name, jet in produced.items():
        assert check_multilinearity(jet, CFG, f"wf:{name}").ok, name
        for out in check_guard_side_condition(jet, CFG, f"wf:{name}:side"):
            assert out.ok, name


def test_multilinearity_check_rejects_corrupted_component():
    F = cofree_jet(pm("fn(x) -> (x^3)"), CLASSICAL, 3)
    data = jet_to_dict(F)
    data["derivs"][1] = "fn(v1,v2,x) -> (6*x*v1*v2 + v1)"  # breaks additivity in v1
    bad = jet_from_dict(data)
    out = check_multilinearity(bad, CFG, "ml-bad")
    assert not out.ok


def test_failing_multilinearity_row_has_the_full_layout_as_witness():
    F = cofree_jet(pm("fn(x) -> (x^3)"), CLASSICAL, 3)
    data = jet_to_dict(F)
    data["derivs"][1] = "fn(v1,v2,x) -> (6*x*v1*v2 + v1)"
    bad = jet_from_dict(data)
    (row,) = [r for r in run_suite("faa-r", [bad], CFG) if r.axiom == "jet.multilinear"]
    assert row.status == "fail"
    # the layout v1, v2, w, x of the second component
    assert len(row.witness_point) == 4
    v1, v2, w, x = row.witness_point
    q = float(jetlaws.LINEARITY_SCALAR)
    f2 = lambda a, b: apply_map(bad.derivs[1], (a, b, x))[0]
    lhs = (f2(v1 + q * w, v2), f2(v2, v1))
    rhs = (f2(v1, v2) + q * f2(w, v2), f2(v1, v2))
    assert max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in zip(lhs, rhs)) > CFG.tol_rel


def _jet_on_a_plane(derivs):
    """A jet from R^2 (2-d carrier) to R with the given components."""
    return jet_from_dict({"src": {"carrier_dim": 2, "point_dim": 2},
                          "dst": {"carrier_dim": 1, "point_dim": 1},
                          "order": len(derivs), "star": "fn(x1,x2) -> (x1)",
                          "derivs": derivs})


def test_multilinearity_check_rejects_a_bilinear_component_that_is_not_symmetric():
    jet = _jet_on_a_plane(["fn(a1,a2,x1,x2) -> (a1)",
                           "fn(a1,a2,b1,b2,x1,x2) -> (a1*b2)"])
    out = check_multilinearity(jet, CFG, "ml-asym")
    assert out.status == "fail"
    assert len(out.witness) == 3 * 2 + 2


def test_multilinearity_check_rejects_a_component_symmetric_only_under_the_swap():
    # (a.b) c1 is trilinear and symmetric in a, b, but not under the cycle
    jet = _jet_on_a_plane(["fn(a1,a2,x1,x2) -> (a1)",
                           "fn(a1,a2,b1,b2,x1,x2) -> (a1*b1 + a2*b2)",
                           "fn(a1,a2,b1,b2,c1,c2,x1,x2) -> ((a1*b1 + a2*b2)*c1)"])
    out = check_multilinearity(jet, CFG, "ml-cycle")
    assert out.status == "fail"
    assert len(out.witness) == 4 * 2 + 2


def test_validate_jet_flags_wrong_guard():
    F = cofree_jet(pm("fn(x) -> (1/x)"), CLASSICAL, 2)
    data = jet_to_dict(F)
    # narrow the second component's guard: side condition violated
    data["derivs"][1] = "fn(v1,v2,x) -> (2/x^3*(v1*v2)) where x > 0"
    bad = jet_from_dict(data)
    rows = run_suite("faa-r", [bad], CFG)
    assert any(r.status == "fail" for r in rows)


def test_comonad_suite_on_polynomials():
    rows = run_suite("comonad", [pm("fn(x) -> (x^3)"), pm("fn(x) -> (x^2 + x)")],
                     RunConfig(samples=60, order=3))
    assert gating_failures(rows) == []
    counits = [r for r in rows if r.axiom == "comonad.counit-faa-eps"]
    assert counits
    # exact on polynomials: within 1e-12
    for r in counits:
        assert r.worst_residual <= 1e-12


def test_comonad_suite_on_sin_order_three():
    rows = run_suite("comonad", [pm("fn(x) -> (sin(x))")], RunConfig(samples=50, order=3))
    assert gating_failures(rows) == []


def test_comonad_suite_on_guarded_map():
    rows = run_suite("comonad", [pm("fn(x) -> (1/x)")], RunConfig(samples=40, order=3))
    assert gating_failures(rows) == []


def test_linear_suite():
    cfg = RunConfig(samples=50, order=3)
    rows = run_suite("linear", linear_items(cfg), cfg)
    assert gating_failures(rows) == []
    kinds = {r.axiom for r in rows}
    assert "linear.lambda-image-is-linear" in kinds
    assert "linear.tower-of-nonlinear-is-not" in kinds
    assert "linear.higher-components-vanish" in kinds


def test_product_lax_row_reads_like_the_other_boolean_rows(monkeypatch):
    cfg = RunConfig(samples=20, order=2)

    def row(rows, axiom):
        (r,) = [r for r in rows if r.axiom == axiom]
        return r

    lax = row(run_suite("faa-r", GUARDED_PAIRS[:1], cfg), "jet.product-lax")
    assert (lax.status, lax.worst_residual, lax.note) == ("pass", 0.0, "")
    monkeypatch.setattr(jetlaws, "leq", lambda *args: False)
    rows = run_suite("faa-r", GUARDED_PAIRS[:1], cfg)
    lax, char = row(rows, "jet.product-lax"), row(rows, "jet.leq-characterization")
    assert lax.status == char.status == "fail"
    assert lax.worst_residual == char.worst_residual == -1.0
    assert lax.note


def test_faa_r_builds_each_composite_once(monkeypatch):
    # h, R.2 (two), (rs f) h, R.4 (two), the lax product, the leq and
    # compatible definitions (two), and the well-formedness rows' R.1: ten composites
    # per pair
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return compose_jets(f, g)

    monkeypatch.setattr(jetlaws, "compose_jets", counting)
    pairs = corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT))
    rows = run_suite("faa-r", pairs, RunConfig(samples=20, order=2))
    assert overall_status(rows) == "pass"
    assert len(calls) <= 10 * len(pairs)
    # R.1 is reported once per pair
    assert sum(r.axiom == "jet.R.1" for r in rows) == len(pairs)
