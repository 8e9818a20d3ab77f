import functools
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faadibruno import expr, jets, laws, smooth
from faadibruno.cli import SUITES, main
from faadibruno.config import derive_seed
from faadibruno.corpus import (
    COMONAD_TEXT,
    CorpusError,
    DEFAULT_PAIRS_TEXT,
    GUARDED_PAIRS_TEXT,
    SPLIT_TEXT,
    corpus_maps,
    corpus_pairs,
    corpus_split_entries,
    parse_corpus,
)
from faadibruno.jetlaws import cofree_jet
from faadibruno.smooth import CLASSICAL, STRUCTURE_CACHE_SIZE, parse_smooth_map

from jet_payloads import jet_to_dict


def test_corpus_default_pairs_parse():
    entries = parse_corpus(DEFAULT_PAIRS_TEXT)
    pairs = corpus_pairs(entries)
    assert len(pairs) == 12
    dims = {(f.dom.dim, f.cod.dim) for f, _ in pairs}
    assert {(1, 1), (2, 2), (2, 1), (1, 3), (3, 1), (2, 3)} <= dims


def test_corpus_comments_and_errors():
    entries = parse_corpus("# comment\nfn(x) -> (x)\n\nfn(y) -> (y^2)\n")
    assert len(corpus_pairs(entries)) == 1
    with pytest.raises(CorpusError):
        corpus_pairs(parse_corpus("fn(x) -> (x, x)\nfn(y) -> (y)\n"))
    with pytest.raises(CorpusError):
        parse_corpus("fn(x) -> (\n")


def test_corpus_split_annotations():
    entries = parse_corpus(SPLIT_TEXT)
    split = corpus_split_entries(entries)
    assert len(split) == 4
    assert all(not m.src.guard.is_true() for m, _ in split)


def test_cli_jet_tower(capsys):
    assert main(["jet", "fn(x) -> (x^3)", "--order", "3", "--point", "1"]) == 0
    out = capsys.readouterr().out
    assert "tower at [1.0]: [1.0, 3.0, 6.0, 6.0]" in out


def test_cli_jet_constant_tower(capsys):
    assert main(["jet", "fn(x) -> (5)", "--order", "3", "--point", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "[5.0, 0.0, 0.0, 0.0]" in out


def test_cli_jet_out_of_domain(capsys):
    code = main(["jet", "fn(x) -> (1/x) where x != 0", "--order", "2",
                 "--point", "0"])
    assert code == 2
    assert "outside guard" in capsys.readouterr().err


def test_cli_jet_pow_overflow_is_a_domain_fault(capsys):
    assert main(["jet", "fn(x) -> (x^2000)", "--order", "1", "--point", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow in pow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("coords, point, directions, entry", [
    ("x*x*x*x", "1e100", [], "star"),  # an infinity
    ("x*x*x*x - x*x*x*x*x", "1e100", [], "star"),  # inf - inf, a nan
    # the star is 1e20, its derivative along 1e300 is 2e310
    ("x*x", "1e10", ["--directions", "1e300"], "D_1"),
])
def test_cli_jet_float_overflow_in_a_product_is_reported_like_exp(coords, point, directions,
                                                                   entry, capsys):
    """Float overflow in * gives a non-finite value where ^ and exp raise: the
    lines already printed stay, and one error line names the entry and the
    point."""
    assert main(["jet", f"fn(x) -> ({coords})", "--order", "1", "--point", point,
                 *directions]) == 2
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["star", "D_1"]
    assert captured.err == f"error: overflow in {entry} at [{float(point)!r}]\n"


def test_cli_jet_sin_of_infinity_is_a_domain_fault(capsys):
    assert main(["jet", "fn(x) -> (sin(x^200*x^200))", "--order", "1",
                 "--point", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sin of an infinite argument" in err
    assert "Traceback" not in err


def test_cli_jet_ignores_point_coordinates_past_the_arity(capsys):
    assert main(["jet", "fn(x) -> (x + 1)", "--order", "1", "--point", "3,5"]) == 0
    assert "tower at [3.0, 5.0]: [4.0, 1.0]" in capsys.readouterr().out


def test_cli_jet_short_point_is_an_error(capsys):
    assert main(["jet", "fn(x, y) -> (x + y)", "--order", "1", "--point", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("directions, length", [("1", 1), ("1,1;1", 1), ("1,1,1", 3)])
def test_cli_jet_direction_of_the_wrong_length_is_an_error(directions, length, capsys):
    # a longer direction would be read into the next block, so it is refused too
    assert main(["jet", "fn(x, y) -> (x*y)", "--order", "2", "--point", "1,2",
                 "--directions", directions]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --directions vector")
    assert f"has length {length}, the map needs 2" in captured.err
    assert "Traceback" not in captured.err


def test_cli_jet_short_point_names_the_flag(capsys):
    assert main(["jet", "fn(x, y, z) -> (x*y*z)", "--order", "1", "--point", "1,2"]) == 2
    assert capsys.readouterr().err == \
        "error: --point has length 2, the map needs 3 (x1..x3)\n"


def test_cli_direction_length_error_names_the_one_input(capsys):
    assert main(["jet", "fn(x) -> (x^2)", "--point", "1", "--directions", "1,2"]) == 2
    assert capsys.readouterr().err == \
        "error: --directions vector 1 has length 2, the map needs 1 (x1)\n"


def test_cli_linear_suite_at_order_zero_names_the_flag(capsys):
    assert main(["axioms", "--suite", "linear", "--order", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the linear suite needs --order 1 or more\n"


@pytest.mark.parametrize("samples", ["1", "2", "3", "5"])
def test_cli_linear_suite_with_fewer_samples_than_probes_passes(samples, tmp_path, capsys):
    # the towers of x*y and x*y^2 are not linear, yet agree with a linear
    # map at every probe off the diagonal, so a check that never left the
    # probes called them linear
    out = tmp_path / "linear.json"
    assert main(["axioms", "--suite", "linear", "--order", "1", "--samples", samples,
                 "--json", str(out)]) == 0


def test_cli_corpus_for_a_suite_that_reads_none_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "one.txt"
    corpus.write_text("fn(x) -> (x)\n")
    assert main(["axioms", "--suite", "linear", "--order", "1", "--samples", "5",
                 "--corpus", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --corpus: the linear suite reads no corpus\n"


def test_cli_jets_for_a_suite_other_than_faa_r_is_a_usage_error(tmp_path, capsys):
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps(jet_to_dict(
        cofree_jet(parse_smooth_map("fn(x) -> (x^2)"), CLASSICAL, 1))))
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (x^2)\nfn(y) -> (sin(y))\n")
    assert main(["axioms", "--suite", "cd", "--order", "1", "--samples", "5",
                 "--corpus", str(corpus), "--jets", str(jets_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --jets: the cd suite reads no jets\n"


def _report_rows(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([*argv, "--order", "2", "--samples", "20", "--seed", "5", "--json", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text())["results"]


def _assert_row_seeds(suite, rows):
    for r in rows:
        assert r["seed"] == derive_seed(5, f"{suite}:{r['map_index']}:{r['axiom']}")


@pytest.mark.parametrize("suite, items", [
    ("cd", len(corpus_pairs(parse_corpus(DEFAULT_PAIRS_TEXT)))),
    ("dr", len(corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT)))),
    ("faa-r", len(corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT)))),
    ("comonad", len(corpus_maps(parse_corpus(COMONAD_TEXT)))),
    ("linear", 20),
    ("split", len(corpus_split_entries(parse_corpus(SPLIT_TEXT)))),
])
def test_cli_rows_carry_the_seed_and_index_of_their_item(suite, items, tmp_path, capsys):
    """Each row's seed mixes "suite:map_index:axiom" into --seed, and the
    items of a suite are numbered 0, 1, ... in corpus order."""
    code, rows = _report_rows(["axioms", "--suite", suite], tmp_path, capsys)
    assert code == 0
    assert {r["map_index"] for r in rows} == set(range(items))
    _assert_row_seeds(suite, rows)


def test_cli_jets_are_numbered_after_the_corpus_pairs(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (1/x)\nfn(y) -> (y^2)\nfn(x) -> (sqrt(x))\nfn(y) -> (cos(y))\n")
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps([
        jet_to_dict(cofree_jet(parse_smooth_map(text), CLASSICAL, 2))
        for text in ("fn(x) -> (x^3)", "fn(x) -> (log(x))")]))
    code, rows = _report_rows(["axioms", "--suite", "faa-r", "--corpus", str(corpus),
                               "--jets", str(jets_file)], tmp_path, capsys)
    assert code == 0
    assert {r["map_index"] for r in rows} == {0, 1, 2, 3}
    jet_axioms = {"jet.multilinear", "jet.side-condition", "jet.R.1"}
    assert {r["axiom"] for r in rows if r["map_index"] >= 2} == jet_axioms
    _assert_row_seeds("faa-r", rows)


def test_cli_parse_error_exit_code(capsys):
    assert main(["jet", "fn(x) -> (x +* 2)"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, where", [
    ("fn(x) -> (x + 0*y)", "map body"),
    ("fn(x) -> (x) where 0*y + 1 > 0", "guard"),
], ids=["body", "guard"])
def test_cli_unbound_name_is_an_error_even_where_it_folds_away(text, where, capsys):
    assert main(["diff", text, "--order", "0"]) == 2
    assert capsys.readouterr().err == f"error: unbound variable 'y' in {where}\n"


def test_cli_diff_prints_the_normal_form_of_nested_negations(capsys):
    assert main(["diff", "fn(x) -> (-(-(-1*x)))", "--order", "0"]) == 0
    assert capsys.readouterr().out == "fn(x1) -> (-x1)\n"


@pytest.mark.parametrize("text, message", [
    ("fn(y) -> (y)\nobj (1) where x1 >> 0\nfn(x) -> (x)\n",
     "line 2: guard atoms compare against literal 0 (line 1, column 19)"),
    ("fn(y) -> (y)\nfn(x) -> (y)\n", "line 2: unbound variable 'y' in map body"),
    ("fn(y) -> (y)\nobj (1) where x2 > 0\nfn(x) -> (x)\n",
     "line 2: unbound variable 'x2' in guard"),
    ("fn(y) -> (y)\nobj (1) where x1 > 0\n",
     "line 2: object annotation is not followed by a map"),
    ("fn(y) -> (y)\nobj (1) where x1 > 0\nobj (1) where x1 != 0\nfn(x) -> (x)\n",
     "line 2: object annotation is not followed by a map"),
    ("fn(y) -> (y)\nobj (0) where 1 > 0\nfn(x) -> (x)\n",
     "line 2: object annotation needs dimension 1 or more"),
    ("fn(y) -> (y)\nobj (0)\nfn(x) -> (x)\n",
     "line 2: object annotation needs dimension 1 or more"),
], ids=["obj-guard-parse-error", "unbound-map-variable", "obj-guard-out-of-range",
        "trailing-obj", "obj-after-obj", "obj-dim-0-with-guard", "obj-dim-0"])
def test_cli_corpus_error_names_its_line(text, message, tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text(text)
    assert main(["axioms", "--suite", "split", "--order", "1", "--samples", "5",
                 "--corpus", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_axioms_cd_small(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (x^2)\nfn(y) -> (sin(y))\n")
    code = main(["axioms", "--suite", "cd", "--corpus", str(corpus),
                 "--samples", "60"])
    assert code == 0
    assert "suite cd: pass" in capsys.readouterr().out


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (1/x)\nfn(y) -> (y^2)\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["axioms", "--suite", "dr", "--corpus", str(corpus),
                     "--samples", "50", "--json", str(out)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == 1
    assert doc["status"] == "pass"
    assert all(r["seed"] is not None for r in doc["results"])


def test_cli_detects_wrong_jet_with_witness(tmp_path, capsys):
    F = cofree_jet(parse_smooth_map("fn(x) -> (x^3)"), CLASSICAL, 3)
    data = jet_to_dict(F)
    data["derivs"][1] = "fn(v1,v2,x) -> (6*x*v1*v2 + v1)"  # not additive
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps([data]))
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (1/x)\nfn(y) -> (y^2)\n")
    code = main(["axioms", "--suite", "faa-r", "--corpus", str(corpus),
                 "--samples", "50", "--order", "3", "--jets", str(jets_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_starvation_exit_code(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("fn(x) -> (x) where x > 0 && 0 - x > 0\nfn(y) -> (y^2)\n")
    code = main(["axioms", "--suite", "dr", "--corpus", str(corpus),
                 "--samples", "40"])
    capsys.readouterr()
    assert code == 3


def test_cli_split_check_alias(capsys):
    assert main(["split-check", "--samples", "50"]) == 0
    assert "suite split: pass" in capsys.readouterr().out


@pytest.mark.parametrize("alias, suite", [
    ("comonad-check", "comonad"), ("linear-check", "linear"), ("split-check", "split")])
def test_cli_alias_writes_the_report_of_its_suite(alias, suite, tmp_path, capsys):
    flags = ["--order", "2", "--samples", "20", "--json"]
    assert main([alias, *flags, str(tmp_path / "alias.json")]) == 0
    alias_out = capsys.readouterr().out
    assert main(["axioms", "--suite", suite, *flags, str(tmp_path / "suite.json")]) == 0
    assert capsys.readouterr().out == alias_out
    assert (tmp_path / "alias.json").read_bytes() == (tmp_path / "suite.json").read_bytes()


def test_cli_compose_prints_components(capsys):
    assert main(["compose", "fn(x) -> (x^2)", "fn(y) -> (sin(y))",
                 "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "(fg)_3" in out


GOLDEN = Path(__file__).parent / "golden"
COMPOSE_GOLDEN = GOLDEN / "compose_inverse_with_square_plus_identity_order5.txt"


def test_cli_compose_output_matches_golden_file(capsys):
    """The symbolic layer (diff, normal forms, printing) gives the recorded text
    byte for byte."""
    assert main(["compose", "fn(x) -> (1/x)", "fn(y) -> (y^2 + y)",
                 "--order", "5"]) == 0
    assert capsys.readouterr().out.encode() == COMPOSE_GOLDEN.read_bytes()


REPORT_GOLDENS = [
    pytest.param(suite, 3, id=suite)
    for suite in ("cd", "comonad", "dr", "faa-r", "linear", "split")
] + [
    pytest.param(suite, 4, id=f"{suite}-order4")
    for suite in ("cd", "comonad", "dr", "faa-r", "split")
] + [pytest.param("comonad", 5, id="comonad-order5"),
      pytest.param("comonad", 6, id="comonad-order6")]


def test_cli_golden_cases_cover_every_golden_report():
    """So each recorded report comes out byte for byte through cmd_axioms."""
    names = {f"{p.values[0]}_order{p.values[1]}_samples50_seed0.json" for p in REPORT_GOLDENS}
    assert names == {path.name for path in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("suite, order", REPORT_GOLDENS)
def test_cli_report_matches_golden_file(suite, order, tmp_path, capsys):
    """The recorded report of each suite, byte for byte: comonad covers the
    jets-over-jets construction (delta, products, selections), faa-r and dr
    the sampled equality over large and over restricted maps, cd the
    differential axioms, linear the embedded additive maps, and split the
    totality checks of the split category.  At order 4, the first order
    where partitions share blocks across several terms, comonad and faa-r
    pin the partition sum; cd, dr and split read no jet order, and their
    order-4 files pin that too.  At order 5 comonad pins delta's shared
    derivative chain and its reuse across the rows of one sample.  At order 6
    it pins the restriction jets and zero-insertions that build only the
    singleton-partition term of sums over up to B(6) = 203 partitions."""
    out = tmp_path / f"{suite}.json"
    assert main(["axioms", "--suite", suite, "--order", str(order), "--samples", "50",
                 "--seed", "0", "--json", str(out)]) == 0
    capsys.readouterr()
    golden = GOLDEN / f"{suite}_order{order}_samples50_seed0.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("argv", [
    ["axioms", "--suite", "cd", "--order", "-1"],
    ["axioms", "--suite", "cd", "--samples", "0"],
    ["axioms", "--suite", "cd", "--tol-rel", "0"],
    ["axioms", "--suite", "cd", "--tol-abs", "nan"],
    ["diff", "fn(x) -> (x^2)", "--order", "-1"],
    ["jet", "fn(x) -> (x^2)", "--point", "a"],
    ["jet", "fn(x) -> (x^2)", "--point", "nan"],
    ["jet", "fn(x) -> (x^2)", "--point", "1e400"],
    ["jet", "fn(x) -> (x^2)", "--point", "1", "--directions", "1;b"],
    ["jet", "fn(x) -> (x^2)", "--order", "-2"],
])
def test_cli_rejects_invalid_numeric_flags(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerances", [["--tol-rel", "1e-320"],
                                        ["--tol-abs", "1e308", "--tol-rel", "1e-9"]])
def test_cli_rejects_tolerances_whose_absolute_floor_overflows(tolerances, tmp_path, capsys):
    """Each flag is a positive finite number, but tol_abs / tol_rel is not
    finite, and that floor would pass every value check: a jet whose second
    component is wrong fails by default."""
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps({
        "src": {"carrier_dim": 1, "point_dim": 1}, "dst": {"carrier_dim": 1, "point_dim": 1},
        "order": 2, "star": "fn(x) -> (x^2)",
        "derivs": ["fn(a, x) -> (2*x*a)", "fn(a, b, x) -> (3*a*b + a)"]}))
    argv = ["axioms", "--suite", "faa-r", "--order", "2", "--jets", str(jets_file)]
    assert main(argv) == 1
    assert "suite faa-r: fail" in capsys.readouterr().out
    assert main(argv + tolerances) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: tol_abs / tol_rel must be finite")
    assert "Traceback" not in err


UNREAD_FLAGS = [("--seed", "3"), ("--samples", "5"), ("--tol-rel", "0.5"), ("--tol-abs", "0.5")]


@pytest.mark.parametrize("argv", [
    pytest.param([*command, flag, value], id=f"{command[0]}{flag}")
    for command, flags in ((["jet", "fn(x) -> (x)"], UNREAD_FLAGS),
                           (["diff", "fn(x) -> (x)", "--order", "1"], UNREAD_FLAGS),
                           (["compose", "fn(x) -> (x)", "fn(y) -> (y)"], UNREAD_FLAGS[1:]))
    for flag, value in flags
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    """jet, diff and compose sample nothing; compose keeps --seed, unread."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_cli_compose_accepts_and_ignores_seed(capsys):
    pair = ["compose", "fn(x) -> (1/x)", "fn(y) -> (y^2 + y)", "--order", "2"]
    assert main(pair) == 0
    plain = capsys.readouterr().out
    assert main(pair + ["--seed", "3"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv, message", [
    pytest.param(["jet", "fn(x) -> (" + "(" * 3000 + "x" + ")" * 3000 + ")"],
                 "expression nested too deeply", id="nested-parentheses"),
    pytest.param(["jet", "fn(x) -> (" + "+".join(["x"] * 3000) + ")"],
                 "expression nested too deeply", id="long-sum"),
    # str.isdigit takes a superscript two, which no number may hold
    pytest.param(["diff", "fn(x) -> (2²)", "--order", "0"],
                 "unexpected character '²' (line 1, column 12)", id="superscript-digit"),
    pytest.param(["diff", "fn(x) -> (x^²)", "--order", "0"],
                 "unexpected character '²' (line 1, column 13)", id="superscript-exponent"),
    pytest.param(["diff", f"fn(x) -> ({'7' * 5000})", "--order", "0"],
                 "number of 5000 characters is too long (line 1, column 11)",
                 id="5000-digit-literal"),
    pytest.param(["diff", "fn(x) -> (2^100000)", "--order", "0"],
                 "constant of more than 4096 bits", id="huge-power"),
    pytest.param(["jet", "fn(x) -> (x)", "--directions", "1"],
                 "--directions: the tower is evaluated only at a --point",
                 id="directions-without-point"),
    pytest.param(["jet", "fn(x) -> (x)", "--order", "2", "--point", "1",
                  "--directions", "1;2;3"],
                 "--directions has 3 vectors, --order 2 reads at most 2",
                 id="directions-past-order"),
    pytest.param(["jet", "fn(x) -> (x)", "--order", "0", "--point", "1",
                  "--directions", "1"],
                 "--directions has 1 vector, --order 0 reads at most 0",
                 id="directions-at-order-0"),
])
def test_cli_reports_bad_input_as_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("payload", [
    {},
    [1],
    {"src": {"carrier_dim": -1, "point_dim": 1},
     "dst": {"carrier_dim": 1, "point_dim": 1},
     "order": 0, "star": "fn(x) -> (x)", "derivs": []},
    {"src": {"carrier_dim": 1, "point_dim": 1},
     "dst": {"carrier_dim": 1, "point_dim": 1},
     "order": True, "star": "fn(x) -> (x)", "derivs": ["fn(v, x) -> (v)"]},
])
def test_cli_rejects_malformed_jets_payload(payload, tmp_path, capsys):
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps(payload))
    assert main(["axioms", "--suite", "faa-r", "--order", "1", "--samples", "5",
                 "--jets", str(jets_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["faa-r", "comonad"])
def test_reports_are_byte_identical_without_the_composite_table(suite, tmp_path,
                                                                monkeypatch, capsys):
    class NeverStores(dict):
        def __setitem__(self, key, value):
            pass

    paths = [tmp_path / "table.json", tmp_path / "no-table.json"]
    for path in paths:
        assert main(["axioms", "--suite", suite, "--order", "3", "--json", str(path)]) == 0
        monkeypatch.setattr(jets, "_COMPOSITES", NeverStores())
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_repeated_runs_in_one_process_hold_no_more_nodes_or_cache_entries(capsys):
    """A long-lived process that runs the same suites again keeps no more
    expression nodes alive after each round, and its caches keep the same
    entries, each structural one within its bound."""
    caches = {f"{mod.__name__}.{name}": obj for mod in (jets, laws, smooth)
              for name, obj in vars(mod).items() if isinstance(obj, functools._lru_cache_wrapper)}
    # keyed by a jet order and by a base category, so they stay small
    unbounded = {"faadibruno.jets.enumerate_partitions", "faadibruno.jets.faa_over"}
    assert all(c.cache_parameters()["maxsize"] == STRUCTURE_CACHE_SIZE
               for name, c in caches.items() if name not in unbounded)
    rounds = []
    for _ in range(3):
        for suite in ("cd", "dr", "faa-r", "comonad"):
            assert main(["axioms", "--suite", suite, "--order", "3", "--samples", "20"]) == 0
        capsys.readouterr()
        gc.collect()
        rounds.append((len(expr._NODES), len(jets._COMPOSITES),
                       {name: c.cache_info().currsize for name, c in caches.items()}))
    assert rounds[1] == rounds[0] and rounds[2] == rounds[0]


# Loads the package in a fresh interpreter, runs the CLI on the argument lists
# of argv[1], and writes the exit codes and the modules loaded since before
# the import to argv[2].  The snapshot comes first: site's .pth hooks may load
# third-party modules at start-up.
FRESH_RUN = """
import json, sys
before = set(sys.modules)
import faadibruno
from faadibruno.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
json.dump({"codes": codes, "loaded": sorted(set(sys.modules) - before)}, open(sys.argv[2], "w"))
"""


def test_the_cli_runs_on_the_standard_library_alone(tmp_path):
    """Every suite, jet --point, compose and diff load no module but the
    package's and the standard library's, though others are installed."""
    runs = [["axioms", "--suite", suite, "--order", "2", "--samples", "20",
             "--json", str(tmp_path / f"{suite}.json")] for suite in SUITES]
    runs += [["jet", "fn(x, y) -> (x/y, log(x))", "--order", "2", "--point", "1,2"],
             ["compose", "fn(x) -> (1/x)", "fn(y) -> (y^2 + y)", "--order", "3"],
             ["diff", "fn(x) -> (sin(x))", "--order", "2"]]
    out = tmp_path / "loaded.json"
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(runs), str(out)],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                   stdout=subprocess.DEVNULL)
    result = json.loads(out.read_text())
    assert result["codes"] == [0] * len(runs)
    assert any(name.startswith("faadibruno.") for name in result["loaded"])
    assert [name for name in result["loaded"] if name.partition(".")[0] != "faadibruno"
            and name.partition(".")[0] not in sys.stdlib_module_names] == []
