"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines on success)."""

import time

from faadibruno import jets as jets_module
from faadibruno import smooth as smooth_module
from faadibruno.cli import run_suite
from faadibruno.config import RunConfig
from faadibruno.corpus import (
    COMONAD_TEXT,
    DEFAULT_PAIRS_TEXT,
    GUARDED_PAIRS_TEXT,
    SPLIT_TEXT,
    corpus_maps,
    corpus_pairs,
    corpus_split_entries,
    parse_corpus,
)
from faadibruno.jets import (
    cofree_jet,
    compose_jets,
    enumerate_partitions,
    jet_equal,
)
from faadibruno.jetlaws import linear_items
from faadibruno.smooth import (
    CLASSICAL,
    TRIVIAL,
    d_n,
    d_n_insertion,
    maps_equal,
    neg_map,
    parse_smooth_map,
    then,
)

CFG = RunConfig()  # seed 42, 200 samples, tol_rel 1e-9, tol_abs 1e-8, order 4
PAIR_CFG = CFG.with_(samples=100)

PAIRS = corpus_pairs(parse_corpus(DEFAULT_PAIRS_TEXT))
GUARDED = corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT))


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def gating_ok(rows) -> bool:
    return all(r.status == "pass" for r in rows if r.gating)


def test_acceptance_1_faa_di_bruno_functoriality():
    start = time.monotonic()
    ok = True
    for f, g in PAIRS:
        lhs = compose_jets(cofree_jet(f, CLASSICAL, 4), cofree_jet(g, CLASSICAL, 4))
        rhs = cofree_jet(then(f, g), CLASSICAL, 4)
        out = jet_equal(lhs, rhs, PAIR_CFG, f"acc1:{f}")
        ok = ok and out.ok
    elapsed = time.monotonic() - start
    report(1, f"tower composition equals tower of composite on 12 pairs, "
              f"order 4, 100 points, 1e-9 ({elapsed:.1f}s)", ok and elapsed < 30)


def test_acceptance_2_axiom_suites():
    cd_rows = run_suite("cd", PAIRS, CFG, CLASSICAL)
    dr_rows = run_suite("dr", GUARDED, CFG, CLASSICAL)
    # degenerate runs: every suite that typechecks with collapsed vectors
    # (linearity needs linear objects, which the trivial assignment has none of)
    small = CFG.with_(samples=60, order=3)
    trivial_rows = (run_suite("cd", PAIRS, CFG, TRIVIAL)
                    + run_suite("dr", GUARDED, CFG, TRIVIAL)
                    + run_suite("faa-r", GUARDED[:3], small, L=TRIVIAL)
                    + run_suite("comonad", [f for f, _ in GUARDED[:2]], small, L=TRIVIAL))
    lemma_rows = [r for r in cd_rows if r.axiom.startswith("Lemma")]
    ok = (gating_ok(cd_rows) and gating_ok(dr_rows) and gating_ok(trivial_rows)
          and lemma_rows != [])
    report(2, "CD.1-7 (standard CD.2) with the additivity lemma, DR.1-9 on the "
              "guarded corpus, and the trivial assignment degenerately", ok)


def test_acceptance_3_restriction_jets():
    rows = run_suite("faa-r", GUARDED, CFG)
    wanted = {"jet.R.1", "jet.R.2", "jet.R.3", "jet.R.4", "jet.res-composite",
              "jet.product-restriction", "jet.product-lax",
              "jet.total-characterization", "jet.leq-characterization",
              "jet.compatible-characterization", "jet.side-condition"}
    ok = gating_ok(rows) and wanted <= {r.axiom for r in rows}
    report(3, "restriction axioms, the restricted-composite lemma, restriction "
              "products and total/leq/compatible characterizations on guarded jets", ok)


def test_acceptance_4_comonad_laws():
    maps = corpus_maps(parse_corpus(COMONAD_TEXT))
    rows = run_suite("comonad", maps, CFG)
    counit_rows = [r for r in rows if r.axiom.startswith("comonad.counit")]
    poly_exact = all(
        r.worst_residual <= 1e-12
        for r in counit_rows[:4])  # the two polynomial corpus entries
    square_rows = [r for r in rows if r.axiom == "comonad.coalgebra-square"]
    ok = (gating_ok(rows) and poly_exact
          and {r.component for r in square_rows} == {1, 2})
    report(4, "counit laws exact on polynomials; coassociativity and the "
              "coalgebra square (n <= 2, order 4) at 1e-9; restriction variants", ok)


def test_acceptance_5_linearity_characterization():
    rows = run_suite("linear", linear_items(CFG), CFG)
    lam = [r for r in rows if r.axiom == "linear.lambda-image-is-linear"]
    non = [r for r in rows if r.axiom == "linear.tower-of-nonlinear-is-not"]
    shape = [r for r in rows if r.axiom in
             ("linear.first-component", "linear.higher-components-vanish")]
    ok = (gating_ok(rows) and len(lam) == 10 and len(non) == 10 and shape != [])
    report(5, "is_linear agrees with embedded-map membership on 20 jets; "
              "embeddings have projected first component and vanishing tail", ok)


def test_acceptance_6_idempotent_splitting():
    rows = run_suite("split", corpus_split_entries(parse_corpus(SPLIT_TEXT)), CFG)
    structural = [r for r in rows if r.axiom == "split.D-guard-structural"]
    sampled = [r for r in rows if r.axiom == "split.D-guard-is-source-guard"]
    ok = gating_ok(rows) and len(structural) == 4 and len(sampled) == 4
    report(6, "full CD suite in the split category for {1/x, log, sqrt, "
              "1/(x-1)}; derivative guards are vector-free (structural and "
              "200-point)", ok)


def test_acceptance_7_combinatorics():
    bell_ok = [len(enumerate_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    texts = ["fn(x) -> (x^4 - x)", "fn(x) -> (sin(x))", "fn(x) -> (exp(x))",
             "fn(x) -> (1/x)", "fn(x,y) -> (x*y^2)"]
    dn_ok = True
    for text in texts:
        f = parse_smooth_map(text)
        for n in (1, 2, 3):
            out = maps_equal(d_n(f, n, CLASSICAL), d_n_insertion(f, n, CLASSICAL),
                             CFG, f"acc7:{text}:{n}")
            dn_ok = dn_ok and out.ok
    report(7, "partition counts are the Bell numbers 1,2,5,15,52; nested "
              "directional derivatives equal literal zero-insertion (n <= 3, "
              "5 maps, 1e-9)", bell_ok and dn_ok)


# --- criterion 8: curated mutations, each must be caught with a witness ---------

MUT_CFG = RunConfig(samples=80, order=3)


def _functoriality_fails_with_witness() -> bool:
    f, g = parse_smooth_map("fn(x) -> (x^2)"), parse_smooth_map("fn(y) -> (sin(y))")
    lhs = compose_jets(cofree_jet(f, CLASSICAL, 3), cofree_jet(g, CLASSICAL, 3))
    rhs = cofree_jet(then(f, g), CLASSICAL, 3)
    out = jet_equal(lhs, rhs, MUT_CFG, "mut:functor")
    return out.status == "fail" and out.witness is not None


def test_acceptance_8a_dropped_partition_term_detected(monkeypatch):
    original = enumerate_partitions

    def dropping(n):
        parts = original(n)
        return parts[:-1] if n >= 2 else parts

    monkeypatch.setattr(jets_module, "enumerate_partitions", dropping)
    caught = _functoriality_fails_with_witness()
    monkeypatch.undo()
    report(8, "mutation: dropped partition term in jet composition is detected "
              "with a witness", caught)


def test_acceptance_8b_sign_flip_in_derivative_detected(monkeypatch):
    original = jets_module._derivative_tail_term

    def flipped(cat, f, n, blocks):
        term = original(cat, f, n, blocks)
        # the curated flip lives in the base-level formula
        return neg_map(term) if isinstance(term, smooth_module.SmoothMap) else term

    monkeypatch.setattr(jets_module, "_derivative_tail_term", flipped)
    rows = run_suite("comonad", [parse_smooth_map("fn(x) -> (x^3)")], MUT_CFG)
    monkeypatch.undo()
    failures = [r for r in rows if r.gating and r.status == "fail"]
    caught = failures != [] and any(r.witness_point is not None for r in failures)
    report(8, "mutation: sign flip in the jet-derivative formula is detected "
              "with a witness", caught)


def test_acceptance_8c_dropped_guard_conjunct_detected(monkeypatch):
    def dropping(g1, g2):
        return g1

    monkeypatch.setattr(smooth_module, "guard_and", dropping)
    dr_rows = run_suite("dr", GUARDED, MUT_CFG, CLASSICAL)
    faa_rows = run_suite("faa-r", GUARDED[:3], MUT_CFG)
    monkeypatch.undo()
    failures = [r for r in dr_rows + faa_rows if r.gating and r.status == "fail"]
    caught = failures != [] and any(r.witness_point is not None for r in failures)
    report(8, "mutation: dropped guard conjunct in composition is detected "
              "with a witness", caught)
