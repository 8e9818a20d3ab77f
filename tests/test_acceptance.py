"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the lines on success)."""

import json
import time
import weakref

from faadibruno import jetlaws as jetlaws_module
from faadibruno import jets as jets_module
from faadibruno import smooth as smooth_module
from faadibruno.laws import object_sides
from faadibruno.cli import main as cli_main, run_suite
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
from faadibruno.expr import neg
from faadibruno.jets import (
    compose_jets,
    d_n_jet,
    delta,
    enumerate_partitions,
    jet_equal,
    truncate_jet,
)
from faadibruno.jetlaws import cofree_jet, linear_items
from faadibruno.smooth import (
    CLASSICAL,
    TRIVIAL,
    d_n,
    d_n_insertion,
    maps_equal,
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
          and {r.component for r in square_rows} == set(range(1, CFG.order + 1)))
    report(4, "counit laws exact on polynomials; coassociativity and the "
              "coalgebra square (n <= order, order 4) at 1e-9; restriction variants", ok)


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
    original = jets_module._injection_terms

    def flipped(cat, f, n, k, subset, blocks):
        terms = original(cat, f, n, k, subset, blocks)
        # the curated flip is the tail term (no direction inserted) of the
        # base-level formula
        if subset or not isinstance(terms[0], smooth_module.SmoothMap):
            return terms
        return [smooth_module.SmoothMap(t.dom, t.cod, tuple(map(neg, t.coords)), t.guard)
                for t in terms]

    monkeypatch.setattr(jets_module, "_injection_terms", flipped)
    rows = run_suite("comonad", [parse_smooth_map("fn(x) -> (x^3)")], MUT_CFG)
    monkeypatch.undo()
    failures = [r for r in rows if r.gating and r.status == "fail"]
    caught = failures != [] and any(r.witness_point is not None for r in failures)
    report(8, "mutation: sign flip in the jet-derivative formula is detected "
              "with a witness", caught)


def test_acceptance_8k_dropped_injection_term_detected(monkeypatch, capsys, tmp_path):
    original = jets_module._injection_terms

    def dropping(cat, f, n, k, subset, blocks):
        terms = original(cat, f, n, k, subset, blocks)
        return terms[:-1] if n >= 3 and subset else terms

    monkeypatch.setattr(jets_module, "_injection_terms", dropping)
    path = tmp_path / "comonad.json"
    code = cli_main(["axioms", "--suite", "comonad", "--order", "4", "--json", str(path)])
    monkeypatch.undo()
    capsys.readouterr()
    failures = [r for r in json.loads(path.read_text())["results"]
                if r.get("gating", True) and r["status"] == "fail"]
    caught = code == 1 and any(r["axiom"] == "comonad.coalgebra-square"
                               and r["witness_point"] is not None for r in failures)
    report(8, "mutation: a dropped injection term of D_n f (n >= 3) is detected "
              "by the coalgebra square with a witness", caught)


def test_acceptance_8c_dropped_guard_conjunct_detected(monkeypatch):
    def dropping(g1, g2):
        return g1

    # sides cached before the mutation would hide it from dr, and sides built
    # under it would outlive it, so clear the cache on the way in and out
    object_sides.cache_clear()
    monkeypatch.setattr(smooth_module, "guard_and", dropping)
    dr_rows = run_suite("dr", GUARDED, MUT_CFG, CLASSICAL)
    faa_rows = run_suite("faa-r", GUARDED[:3], MUT_CFG)
    monkeypatch.undo()
    object_sides.cache_clear()
    failures = [r for r in dr_rows + faa_rows if r.gating and r.status == "fail"]
    caught = failures != [] and any(r.witness_point is not None for r in failures)
    report(8, "mutation: dropped guard conjunct in composition is detected "
              "with a witness", caught)


def test_acceptance_8j_proof_that_every_term_vanishes_detected(monkeypatch, capsys,
                                                               tmp_path):
    def everything_vanishes(self, f_star, f_derivs, g_star, g_derivs):
        return [True] * len(f_derivs), [-1] * len(g_derivs)

    monkeypatch.setattr(smooth_module.SmoothCategory, "vanishing_terms", everything_vanishes)
    monkeypatch.setattr(jets_module, "_COMPOSITES", weakref.WeakValueDictionary())
    path = tmp_path / "faa-r.json"
    code = cli_main(["axioms", "--suite", "faa-r", "--order", "3", "--json", str(path)])
    monkeypatch.undo()
    capsys.readouterr()
    failures = [r for r in json.loads(path.read_text())["results"]
                if r.get("gating", True) and r["status"] == "fail"]
    caught = code == 1 and any(r["witness_point"] is not None for r in failures)
    report(8, "mutation: a proof that every partition term vanishes is detected "
              "with a witness", caught)


def test_acceptance_8l_non_symmetric_fifth_component_detected(capsys, tmp_path):
    """A jet whose f_5 = p1*q2*p3*p4*p5 is linear in each direction block
    (p_i, q_i) but not symmetric under the swap of v_1 and v_2 fails
    jet.multilinear through the CLI at order 5, with a witness of the
    layout v_1 .. v_5, w, x."""
    def params(n):
        return ", ".join(f"p{i}, q{i}" for i in range(1, n + 1)) + ", x"

    bodies = ["p1", "0", "0", "0", "p1*q2*p3*p4*p5"]
    (tmp_path / "f5.json").write_text(json.dumps({
        "src": {"carrier_dim": 2, "point_dim": 1}, "dst": {"carrier_dim": 1, "point_dim": 1},
        "order": 5, "star": "fn(x) -> (x)",
        "derivs": [f"fn({params(n)}) -> ({body})" for n, body in enumerate(bodies, start=1)]}))
    (tmp_path / "none.txt").write_text("# the jet alone\n")
    path = tmp_path / "faa-r.json"
    code = cli_main(["axioms", "--suite", "faa-r", "--order", "5", "--corpus",
                     str(tmp_path / "none.txt"), "--jets", str(tmp_path / "f5.json"),
                     "--json", str(path)])
    capsys.readouterr()
    failures = [r for r in json.loads(path.read_text())["results"] if r["status"] == "fail"]
    caught = (code == 1 and [r["axiom"] for r in failures] == ["jet.multilinear"]
              and len(failures[0]["witness_point"]) == 6 * 2 + 1)
    report(8, "a fifth component that is multilinear but not symmetric fails "
              "jet.multilinear with a witness", caught)


class _Altered:
    """A base that answers as cat does, except where a subclass says."""

    def __init__(self, cat):
        self.cat = cat

    def __getattr__(self, name):
        return getattr(self.cat, name)


class _DirectionForPoint(_Altered):
    """A base whose select of the last of several blocks, a component's point
    block, selects direction block 0 instead."""

    def select(self, blocks, picks, order=None):
        if len(blocks) > 1 and list(picks) == [len(blocks) - 1]:
            picks = [0]
        return self.cat.select(blocks, picks, order)


def test_acceptance_8m_restriction_along_a_direction_block_detected(monkeypatch, capsys,
                                                                     tmp_path):
    original = jets_module._restriction_jet

    def along_direction(cat, src, idem, order):
        out = original(_DirectionForPoint(cat), src, idem, order)
        return jets_module.JetMorphism(cat, out.src, out.dst, out.star, out.derivs)

    monkeypatch.setattr(jets_module, "_restriction_jet", along_direction)
    path = tmp_path / "faa-r.json"
    code = cli_main(["axioms", "--suite", "faa-r", "--order", "3", "--json", str(path)])
    monkeypatch.undo()
    capsys.readouterr()
    failures = [r for r in json.loads(path.read_text())["results"]
                if r.get("gating", True) and r["status"] == "fail"]
    caught = code == 1 and any(r["axiom"] == "jet.R.1" and r["witness_point"] is not None
                               for r in failures)
    report(8, "mutation: a restriction jet's components restricted along a "
              "direction block are detected with a witness", caught)


def test_acceptance_8n_dropped_term_of_a_jet_sum_seen_by_deeper_coassociativity(
        monkeypatch, capsys, tmp_path):
    """A sum of three or more jets that drops its last term first reaches
    the delta of a jet of jets at its fourth component, so coassociativity
    sees it on 4 components (order 4, 5 or 6), and not on 2 or 3."""
    original = jets_module.FaaCategory.add

    def dropping(self, jets):
        return original(self, jets[:-1] if len(jets) >= 3 else jets)

    codes, failing = [], []
    for depth in (2, 4):
        monkeypatch.setattr(jets_module.FaaCategory, "add", dropping)
        monkeypatch.setattr(jets_module, "_COMPOSITES", weakref.WeakValueDictionary())
        monkeypatch.setattr(jetlaws_module, "COASSOCIATIVITY_DEPTH", depth)
        path = tmp_path / f"comonad-{depth}.json"
        codes.append(cli_main(["axioms", "--suite", "comonad", "--order", "4",
                               "--json", str(path)]))
        monkeypatch.undo()
        failing.append([r for r in json.loads(path.read_text())["results"]
                        if r["status"] != "pass"])
    capsys.readouterr()
    caught = (codes == [0, 1] and failing[0] == [] and failing[1]
              and all(r["axiom"] == "comonad.coassociativity"
                      and r["witness_point"] is not None for r in failing[1]))
    report(8, "mutation: a dropped term of a sum of jets of jets is detected by "
              "coassociativity on 4 components, and not on 2", caught)


class _OneOrderLow(_Altered):
    """A base whose order_of reads one order less than the map has."""

    def order_of(self, f):
        return self.cat.order_of(f) - 1


def _usable_orders_of_d_n(T) -> bool:
    """For each n, d_n_jet(T, n) has order T.order - n and a star of order
    T.derivs[n-1].order; its component k has the order of the shortest term
    of its sum, the one that reads f_{n+k}: T.derivs[n+k-1].order."""
    for n in range(1, T.order + 1):
        dn = d_n_jet(T, n)
        if (dn.order, dn.star.order) != (T.order - n, T.derivs[n - 1].order):
            return False
        if [c.order for c in dn.derivs] != [T.derivs[n + k - 1].order
                                            for k in range(1, dn.order + 1)]:
            return False
    return True


def test_acceptance_8o_delta_over_jets_keeps_its_usable_orders(monkeypatch):
    """The terms of d_n_jet selecting one order too low over a jet base pass
    every comonad row (jet_equal compares only up to the common order), so
    the orders are pinned on the jets of jets of the comonad corpus at
    order 4, whole and truncated to 2."""
    towers = [cofree_jet(f, CLASSICAL, 4) for f in corpus_maps(parse_corpus(COMONAD_TEXT))]

    def pinned():
        return all(_usable_orders_of_d_n(T) for F in towers
                   for T in (delta(F), truncate_jet(delta(F), 2)))

    original = jets_module._injection_terms

    def one_order_low(cat, f, n, k, subset, blocks):
        over_jets = isinstance(cat, jets_module.FaaCategory)
        return original(_OneOrderLow(cat) if over_jets else cat, f, n, k, subset, blocks)

    holds = pinned()
    monkeypatch.setattr(jets_module, "_injection_terms", one_order_low)
    monkeypatch.setattr(jets_module, "_COMPOSITES", weakref.WeakValueDictionary())
    mutated = pinned()
    monkeypatch.undo()
    report(8, "the usable orders of delta over jets are pinned, and terms that "
              "select one order too low are detected", holds and not mutated)
