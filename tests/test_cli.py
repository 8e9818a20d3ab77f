import json
from pathlib import Path

import pytest

from faadibruno.cli import main
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
from faadibruno.jets import cofree_jet, jet_to_dict
from faadibruno.smooth import CLASSICAL, parse_smooth_map


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
    """The symbolic layer (diff, simplify, printing) gives the recorded text
    byte for byte."""
    assert main(["compose", "fn(x) -> (1/x)", "fn(y) -> (y^2 + y)",
                 "--order", "5"]) == 0
    assert capsys.readouterr().out.encode() == COMPOSE_GOLDEN.read_bytes()


@pytest.mark.parametrize("suite, order", [
    pytest.param(suite, 3, id=suite)
    for suite in ("cd", "comonad", "dr", "faa-r", "linear", "split")
] + [
    pytest.param(suite, 4, id=f"{suite}-order4")
    for suite in ("cd", "comonad", "dr", "faa-r", "split")
] + [pytest.param("comonad", 5, id="comonad-order5"),
      pytest.param("comonad", 6, id="comonad-order6")])
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


@pytest.mark.parametrize("body", [
    pytest.param("(" * 3000 + "x" + ")" * 3000, id="nested-parentheses"),
    pytest.param("+".join(["x"] * 3000), id="long-sum"),
])
def test_cli_reports_too_deep_input_as_a_usage_error(body, capsys):
    assert main(["jet", f"fn(x) -> ({body})"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested too deeply")
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [
    {},
    [1],
    {"src": {"carrier_dim": -1, "point_dim": 1},
     "dst": {"carrier_dim": 1, "point_dim": 1},
     "order": 0, "star": "fn(x) -> (x)", "derivs": []},
])
def test_cli_rejects_malformed_jets_payload(payload, tmp_path, capsys):
    jets_file = tmp_path / "jets.json"
    jets_file.write_text(json.dumps(payload))
    assert main(["axioms", "--suite", "faa-r", "--order", "1", "--samples", "5",
                 "--jets", str(jets_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
