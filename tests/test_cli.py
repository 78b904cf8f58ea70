"""CLI tests: canonical serialization, the input schema, condition dispatch,
exit codes, and byte-level determinism of machine reports."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normex import (
    InputError,
    canonical_json,
    descriptor_from_json,
    descriptor_to_json,
    free_abelian,
    matrix_from_json,
    matrix_to_json,
    numerical,
    parse_spec,
    product,
    run_command,
)
from normex import cli

J2_DOC = {
    "descriptor": {"kind": "free_abelian", "k": 1},
    "representation": {
        "dimension": 2,
        "generators": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],
        "relations": [],
    },
    "run": {},
}


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("NORMEX_SEED", raising=False)


@pytest.fixture
def neil_path(tmp_path, capsys):
    path = tmp_path / "neil.json"
    assert run_command(["gallery", "neil_scalar", "--format", "machine",
                        "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def jordan_path(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(J2_DOC))
    return str(path)


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == "0"
        assert "-0," not in canonical_json({"m": [-0.0, 1.0]})

    def test_seventeen_digit_floats(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            canonical_json(float("nan"))
        with pytest.raises(InputError):
            canonical_json({"x": float("inf")})

    def test_nested_structures(self):
        doc = {"z": [1, {"b": None, "a": True}], "y": (2.5,)}
        assert canonical_json(doc) == '{"y":[2.5],"z":[1,{"a":true,"b":null}]}'

    def test_unserializable_rejected(self):
        with pytest.raises(InputError):
            canonical_json(object())


class TestMatrixJson:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(89)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(a), "m")
        assert np.array_equal(np.array(back), a)

    def test_entry_errors_are_located(self):
        with pytest.raises(InputError) as exc:
            matrix_from_json([[[0, 0]], [0.5]], "gen")
        assert "gen[1]" in str(exc.value)
        with pytest.raises(InputError) as exc:
            matrix_from_json([[[0, 0], "x"]], "gen")
        assert "gen[0][1]" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            matrix_from_json([], "m")


@pytest.mark.parametrize("d, text", [
    (free_abelian(3), '{"k":3,"kind":"free_abelian"}'),
    (numerical((1, 2, 4)), '{"gaps":[1,2,4],"kind":"numerical"}'),
    (product(free_abelian(2), numerical({1})),
     '{"factors":[{"k":2,"kind":"free_abelian"},'
     '{"gaps":[1],"kind":"numerical"}],"kind":"product"}'),
    (product(product(free_abelian(1), numerical({1})), free_abelian(2)),
     '{"factors":[{"factors":[{"k":1,"kind":"free_abelian"},'
     '{"gaps":[1],"kind":"numerical"}],"kind":"product"},'
     '{"k":2,"kind":"free_abelian"}],"kind":"product"}'),
], ids=["free_abelian", "numerical", "product", "nested-product"])
def test_descriptor_json_roundtrip(d, text):
    obj = descriptor_to_json(d)
    assert canonical_json(obj) == text
    assert obj == json.loads(text)
    for source in (obj, json.loads(text)):
        back = descriptor_from_json(source, "descriptor")
        assert back == d
        assert canonical_json(descriptor_to_json(back)) == text


class TestParseSpec:
    def test_gallery_document_parses(self, neil_path):
        d, rep, cfg = parse_spec(neil_path)
        assert d.kind == "numerical"
        assert rep.dimension == 1
        assert len(rep.relations) == 1
        assert cfg.echo["warnings"] == []
        assert cfg.seed == 0

    def test_roundtrip_preserves_matrices(self, neil_path):
        doc = json.loads(Path(neil_path).read_text())
        _, rep, _ = parse_spec(neil_path)
        again = [matrix_to_json(m) for m in rep.generator_images]
        assert again == doc["representation"]["generators"]

    def test_missing_relations_warns_on_gap_semigroup(self, tmp_path, neil_path):
        doc = json.loads(Path(neil_path).read_text())
        del doc["representation"]["relations"]
        p = tmp_path / "norel.json"
        p.write_text(json.dumps(doc))
        _, _, cfg = parse_spec(str(p))
        assert any("sampled only" in w for w in cfg.echo["warnings"])

    @pytest.mark.parametrize("case, warns", [("free", False),
                                             ("product", True)])
    def test_missing_relations_warn_when_the_generators_have_some(
            self, tmp_path, case, warns):
        # N = numerical(()) has free generators; the product's gap factor
        # <2, 3> has T(2)^3 = T(3)^2 (the gap kind alone is tested above)
        doc = (_product_document() if case == "product" else {
            "descriptor": {"kind": "numerical", "gaps": []},
            "representation": {"generators": [[[[0.5, 0.0]]]]}})
        doc["representation"].pop("relations", None)
        p = tmp_path / "norel.json"
        p.write_text(json.dumps(doc))
        _, _, cfg = parse_spec(str(p))
        assert cfg.echo["warnings"] == ([
            "no relations declared: homomorphism property is sampled only"]
            if warns else [])

    def test_json_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"descriptor": }')
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert ":1:16:" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            parse_spec(str(tmp_path / "nope.json"))

    def test_missing_sections(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert "descriptor" in str(exc.value)

    def test_non_square_matrix_rejected(self, tmp_path):
        doc = json.loads(json.dumps(J2_DOC))
        doc["representation"]["generators"] = [[[[0, 0], [0, 0]]]]
        p = tmp_path / "rect.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            parse_spec(str(p))

    def test_declared_dimension_cross_checked(self, tmp_path):
        doc = json.loads(json.dumps(J2_DOC))
        doc["representation"]["dimension"] = 3
        p = tmp_path / "dim.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert "dimension" in str(exc.value)

    def test_unknown_relation_label(self, tmp_path):
        doc = json.loads(json.dumps(J2_DOC))
        doc["representation"]["relations"] = [[{"7": 1}, {"1": 1}]]
        p = tmp_path / "lbl.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert "unknown generator label" in str(exc.value)

    def test_semantic_validation_failure(self, tmp_path):
        doc = {
            "descriptor": {"kind": "free_abelian", "k": 2},
            "representation": {
                "generators": [
                    [[[0.707, 0], [0.707, 0]], [[0.707, 0], [-0.707, 0]]],
                    [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                ],
            },
        }
        p = tmp_path / "noncomm.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert "failed validation" in str(exc.value)

    def test_unknown_descriptor_kind(self, tmp_path):
        p = tmp_path / "kind.json"
        p.write_text('{"descriptor": {"kind": "moduli"}, "representation": {}}')
        with pytest.raises(InputError) as exc:
            parse_spec(str(p))
        assert "unknown kind" in str(exc.value)


def _run(capsys, *args):
    code = run_command(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_check_passes_on_gap_rep(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "athavale", "--input", neil_path,
                            "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["exit_status"] == 0
        assert doc["reports"][0]["condition"] == "generator_sweep"
        assert doc["reports"][0]["verdict"] == "pass"

    def test_check_fails_on_nilpotent(self, jordan_path, capsys):
        code, out, _ = _run(capsys, "check", "athavale", "--input", jordan_path,
                            "--format", "machine")
        assert code == 1
        doc = json.loads(out)
        assert doc["reports"][0]["verdict"] == "fail"
        assert doc["reports"][0]["witness"] == {"n": [2]}

    def test_check_all_reports_every_condition(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "all", "--input", neil_path,
                            "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 5
        regular = next(r for r in doc["reports"]
                       if r["condition"] == "regularity")
        assert regular["verdict"] == "not-applicable"
        assert "lattice" in regular["witness"]["reason"]

    def test_check_all_propagates_failure(self, jordan_path, capsys):
        code, out, _ = _run(capsys, "check", "all", "--input", jordan_path,
                            "--format", "machine")
        assert code == 1
        assert json.loads(out)["exit_status"] == 1

    def test_validate_exits_zero(self, neil_path, capsys):
        code, out, _ = _run(capsys, "validate", "--input", neil_path,
                            "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"] == []
        assert doc["exit_status"] == 0
        assert "validation" in doc["environment"]["echo"]

    def test_human_format(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "athavale", "--input", neil_path)
        assert code == 0
        assert "condition" in out.splitlines()[0]
        assert out.rstrip().endswith("exit status 0")

    def test_out_file_always_machine(self, neil_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = _run(capsys, "check", "athavale", "--input", neil_path,
                          "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["reports"][0]["verdict"] == "pass"

    def test_byte_identical_reruns(self, neil_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, out1, _ = _run(capsys, "check", "all", "--input", neil_path,
                              "--format", "machine", "--out", str(a))
        code2, out2, _ = _run(capsys, "check", "all", "--input", neil_path,
                              "--format", "machine", "--out", str(b))
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert a.read_bytes() == b.read_bytes()

    def test_extension_margin_serializes_cleanly(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "extension", "--input", neil_path,
                            "--format", "machine")
        assert code == 0
        assert '"-0"' not in out and '"margin":-0,' not in out
        rep = json.loads(out)["reports"][0]
        assert rep["condition"] == "extension"
        assert rep["margin"] == 0

    def test_subset_flag_pairs(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "brehmer", "--input", neil_path,
                            "--subset", "1:1,1:2", "--format", "machine")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["parameters"]["subset_count"] == 4

    def test_max_degree_flag_limits_sweep(self, jordan_path, capsys):
        code, out, _ = _run(capsys, "check", "athavale", "--input", jordan_path,
                            "--max-degree", "1", "--format", "machine")
        assert code == 0  # the degree-2 witness is out of the swept range
        assert json.loads(out)["reports"][0]["verdict"] == "pass"

    def test_tol_flag_reaches_engine(self, jordan_path, capsys):
        code, _, _ = _run(capsys, "check", "athavale", "--input", jordan_path,
                          "--tol", "10.0", "--format", "machine")
        assert code == 0

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = _run(capsys, "check", "athavale", "--input",
                            str(tmp_path / "gone.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_condition_rejected(self, neil_path, capsys):
        assert _run(capsys, "check", "bogus", "--input", neil_path)[0] == 2

    def test_unknown_subcommand_rejected(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    def test_unknown_gallery_case(self, capsys):
        assert _run(capsys, "gallery", "moduli")[0] == 2

    @pytest.mark.parametrize("argv, code, err", [
        (("truncated_shift", "--weights", "a"), 2,
         "error: --weights[0]: expected a number, got 'a'\n"),
        (("truncated_shift", "--weights", "0.5,x"), 2,
         "error: --weights[1]: expected a number, got 'x'\n"),
        (("truncated_shift", "--weights", "0,-0.5"), 0, ""),
        (("unitary_rep", "--dim", "0"), 2,
         "error: unitary_rep needs --k and --dim >= 1\n"),
        (("unitary_rep", "--k", "-1"), 2,
         "error: unitary_rep needs --k and --dim >= 1\n"),
        (("truncated_shift", "--weights", "nan"), 2,
         "error: --weights[0]: must satisfy |x| <= 1, got nan\n"),
        (("truncated_shift", "--weights", "0.5,-inf"), 2,
         "error: --weights[1]: must satisfy |x| <= 1, got -inf\n"),
        (("truncated_shift", "--weights", "1.5"), 2,
         "error: --weights[0]: must satisfy |x| <= 1, got 1.5\n"),
        (("neil_scalar", "--lam", "nan"), 2,
         "error: --lam: must satisfy |x| <= 1, got nan\n"),
        (("neil_scalar", "--lam", "1.5"), 2,
         "error: --lam: must satisfy |x| <= 1, got 1.5\n"),
        (("normal_pair", "--seed", "-1"), 2,
         "error: --seed: must be >= 0, got '-1'\n"),
        (("unitary_rep", "--dim", "x"), 2,
         "error: --dim: expected an integer, got 'x'\n"),
        (("neil_scalar", "--lam", "x"), 2,
         "error: --lam: expected a number, got 'x'\n"),
        (("neil_scalar", "--dim", "x"), 2,
         "error: --dim: expected an integer, got 'x'\n"),
        (("jordan", "--lam", "2"), 2,
         "error: --lam: must satisfy |x| <= 1, got 2.0\n"),
    ], ids=["weight-text", "second-weight-text", "zero-and-negative-weights",
            "unitary-dim-zero", "unitary-k-negative", "weight-nan",
            "second-weight-infinite", "weight-above-one", "lam-nan",
            "lam-above-one", "seed-negative", "dim-text", "lam-text",
            "unused-dim-text", "unused-lam-outside-disc"])
    def test_gallery_values_are_checked(self, capsys, argv, code, err):
        assert _run(capsys, "gallery", *argv)[0::2] == (code, err)

    def test_gallery_help_exits_zero(self, capsys):
        assert _run(capsys, "--help")[0] == 0


def _product_of_rank_zero(doc):
    doc["descriptor"] = {"kind": "product",
                         "factors": [{"kind": "free_abelian", "k": 0}]}


def _set(section, key, value):
    return lambda doc: doc[section].update({key: value})


@pytest.mark.parametrize("where, edit, flags", [
    ("descriptor.k", _set("descriptor", "k", "x"), ()),
    ("descriptor.k", _set("descriptor", "k", True), ()),
    ("descriptor.k", _set("descriptor", "k", 2.7), ()),
    ("descriptor.gaps[0]",
     lambda doc: doc.update(descriptor={"kind": "numerical", "gaps": ["a"]}),
     ()),
    ("descriptor.factors[0]", _product_of_rank_zero, ()),
    ("representation.generators[0][0][0]",
     lambda doc: doc["representation"]["generators"][0][0].__setitem__(
         0, [True, 0]), ()),
    ("representation.relations[0]",
     _set("representation", "relations", [[{"1": "a"}, {"1": 1}]]), ()),
    ("run.max_degree", _set("run", "max_degree", "x"), ()),
    ("run.max_degree", _set("run", "max_degree", -1), ()),
    ("run.tol", _set("run", "tol", "nan"), ()),
    ("run.tol", _set("run", "tol", -1.0), ()),
    ("run.bound_constant", _set("run", "bound_constant", 0), ()),
    ("--subset[1]", lambda doc: None, ("--subset", "1,x")),
    ("--tol", lambda doc: None, ("--tol", "nan")),
    ("--tol", lambda doc: None, ("--tol", "abc")),
    ("--max-degree", lambda doc: None, ("--max-degree", "x")),
    ("--seed", lambda doc: None, ("--seed", "1.5")),
    ("representation.relations[0]",
     _set("representation", "relations", [[{"1": 1}]]), ()),
    ("representation.relations[0]",
     _set("representation", "relations", [[{"1": 1}, [1]]]), ()),
], ids=["k-text", "k-bool", "k-fraction", "gap-text", "nested-path",
        "bool-entry", "multiplicity-text", "max-degree-text",
        "max-degree-negative", "tol-nan", "tol-negative", "bound-zero",
        "subset-flag", "tol-flag", "tol-flag-text", "max-degree-flag-text",
        "seed-flag-fraction", "one-sided-relation", "relation-side-list"])
def test_malformed_values_exit_two_with_location(tmp_path, capsys, where,
                                                 edit, flags):
    doc = json.loads(json.dumps(J2_DOC))
    edit(doc)
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", "all", "--input", str(p), *flags)
    assert (code, out) == (2, "")
    # located once: nested errors must not repeat the path
    assert err.startswith(f"error: {where}: ") and err.count(where) == 1, err


def test_negative_subspace_dim_exits_two_on_every_command(tmp_path, capsys):
    # only the extension report uses it, but every command reads it
    doc = json.loads(json.dumps(J2_DOC))
    doc["run"]["subspace_dim"] = -1
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    for command in (("check", "athavale"), ("validate",)):
        for where, got, flags in (
                ("run.subspace_dim", "-1", ()),
                ("--subspace-dim", "'-1'", ("--subspace-dim", "-1"))):
            assert _run(capsys, *command, "--input", str(p), *flags) == (
                2, "", f"error: {where}: must be >= 0, got {got}\n"), command


def test_subspace_dim_above_the_dimension_exits_two_on_every_command(
        tmp_path, capsys):
    # the 2x2 shift: 2 is the largest subspace, and is read as given
    p = tmp_path / "doc.json"
    for value in (2, 3):
        doc = json.loads(json.dumps(J2_DOC))
        doc["run"]["subspace_dim"] = value
        p.write_text(json.dumps(doc))
        for command in (("check", "athavale"), ("check", "all"),
                        ("validate",)):
            for where, got, flags in (
                    ("run.subspace_dim", "3", ()),
                    ("--subspace-dim", "'99'", ("--subspace-dim", "99"))):
                code, out, err = _run(capsys, *command, "--input", str(p),
                                      "--format", "machine", *flags)
                if value == 2 and not flags:
                    assert code in (0, 1) and err == "", command
                else:
                    assert (code, out, err) == (
                        2, "", f"error: {where}: must be <= 2, got {got}\n")


@pytest.mark.parametrize("argv", [
    ("check", "all", "--input", "doc.json", "--bogus", "1"),
    ("gallery", "neil_scalar", "--lam", "-inf"),
    ("check", "all", "--subset", "-1", "--input", "doc.json"),
    ("check", "all", "--format", "xml", "--input", "doc.json"),
    ("check",),
    ("frobnicate",),
    (),
], ids=["unknown-flag", "option-like-value", "option-like-subset",
        "bad-choice", "missing-input", "unknown-subcommand",
        "missing-subcommand"])
def test_usage_errors_go_through_the_error_writer(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help"),
                                  ("gallery", "--help")])
def test_help_still_exits_zero(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: normex")


#: run.subset as any JSON value: valid letters and pairs, wrong shapes,
#: booleans, floats, strings and nested containers
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)
_SUBSET_VALUE = st.one_of(
    _JSON_VALUE,
    st.lists(st.integers(-1, 4), max_size=5),
    st.lists(st.lists(st.integers(-1, 3), min_size=1, max_size=3),
             max_size=5))


@settings(max_examples=60)
@given(doc=st.sampled_from(["shift", "neil_matrix", "product"]),
       command=st.sampled_from([("check", "brehmer"), ("validate",)]),
       subset=_SUBSET_VALUE,
       flag=st.none() | st.text(alphabet="0123456789,:- x.", max_size=12))
def test_subsets_keep_the_exit_contract(
        tmp_path_factory, fuzz_documents, doc, command, subset, flag):
    # --subset goes in as a separate argument, so text such as -1 reaches
    # argparse as an option
    doc = json.loads(json.dumps(fuzz_documents[doc]))
    doc["run"] = {"subset": subset, "max_degree": 2}
    p = tmp_path_factory.getbasetemp() / "subset.json"
    p.write_text(json.dumps(doc))
    _assert_exit_contract(
        [*command, "--input", str(p), "--format", "machine",
         *(() if flag is None else ("--subset", flag))], None)


def test_an_allocation_no_machine_can_make_exits_two(capsys):
    # a 10**9 x 10**9 Jordan block needs 6.9 EiB: numpy fails at once
    code, out, err = _run(capsys, "gallery", "jordan", "--dim", "1000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc, where, message", [
    ([], None, "top level must be an object"),
    ({"descriptor": J2_DOC["descriptor"]}, None,
     "missing 'representation' section"),
    ({**J2_DOC, "run": []}, "run", "must be an object"),
], ids=["top-level-array", "no-representation", "run-list"])
def test_malformed_sections_exit_two_on_validate(tmp_path, capsys, doc,
                                                 where, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", "--input", str(p))
    assert (code, out, err) == (2, "", f"error: {where or p}: {message}\n")


@pytest.mark.parametrize("descriptor", [
    {"kind": "free_abelian", "k": 10 ** 6},
    {"kind": "product", "factors": [{"kind": "free_abelian", "k": 10 ** 6}]},
], ids=["free-abelian", "product-factor"])
def test_a_large_rank_exits_two_before_its_generators_exist(
        tmp_path, capsys, descriptor):
    # the image count is checked against the rank; building the rank's
    # k generators of k coordinates first took hours at k = 10**6
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"descriptor": descriptor, "representation": {
        "generators": [[[[0.5, 0]]]]}}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--input", str(p))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: expected 1000000 generator images, got 1\n")


def test_a_long_gap_run_exits_two_in_linear_time(tmp_path, capsys):
    # gaps 1..4000 leave the 4001 generators 4001..8001; the closure check
    # and the generator scan took seconds when each paired every integer
    # below its target, and every gap lookup scanned the gap tuple
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({
        "descriptor": {"kind": "numerical", "gaps": list(range(1, 4001))},
        "representation": {"generators": [[[[0.5, 0]]]]}}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--input", str(p))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (
        2, "", "error: expected 4001 generator images, got 1\n")


def test_a_huge_gap_exits_two_in_constant_time(tmp_path, capsys):
    # a lone gap of 10**12 splits as 1 + (10**12 - 1); a bit mask of every
    # member below it was killed for memory
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({
        "descriptor": {"kind": "numerical", "gaps": [10 ** 12]},
        "representation": {"generators": [[[[0.5, 0]]]]}}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", "--input", str(p))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (
        2, "", "error: descriptor: gap set not additively closed: "
        "1 + 999999999999 = 1000000000000 is a gap\n")


def _nested(depth, array=False):
    """A document whose descriptor is a product nested ``depth`` deep
    around free_abelian(1), or whose generators are an array nested
    ``depth`` deep, as JSON text (the encoder would recurse too)."""
    descriptor, generators = (
        '{"kind": "free_abelian", "k": 1}', "[" * depth + "]" * depth
    ) if array else (
        '{"kind": "product", "factors": [' * depth
        + '{"kind": "free_abelian", "k": 1}' + "]}" * depth,
        "[[[[0.5, 0]]]]")
    return (f'{{"descriptor": {descriptor}, '
            f'"representation": {{"generators": {generators}}}}}')


@pytest.mark.parametrize("depth, array", [
    (50, False), (300, False), (1000, False), (100000, False),
    (100000, True)],
    ids=["product-50", "product-300", "product-1000", "product-100000",
         "array-100000"])
@pytest.mark.parametrize("command", [("validate",), ("check", "all")],
                         ids=["validate", "check-all"])
def test_deep_nesting_exits_two(tmp_path, capsys, depth, array, command):
    # the JSON reader and the descriptor readers recurse: a document
    # nested past their depth is an input error, not a traceback that
    # exits 1 as a failed certificate would
    p = tmp_path / "doc.json"
    p.write_text(_nested(depth, array))
    code, out, err = _run(capsys, *command, "--input", str(p))
    if depth == 50:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out, err) == (
            2, "", "error: input nested too deeply\n")


@pytest.mark.parametrize("descriptor, path", [
    ({"kind": "rationals"}, "descriptor"),
    ({"kind": "infinite_power", "base": {"kind": "free_abelian", "k": 1}},
     "descriptor"),
    ({"kind": "product", "factors": [{"kind": "free_abelian", "k": 1},
                                     {"kind": "rationals"}]},
     "descriptor.factors[1]"),
    ({"kind": "product", "factors": [{"kind": "free_abelian", "k": 1}, {
        "kind": "infinite_power", "base": {"kind": "free_abelian", "k": 1}}]},
     "descriptor.factors[1]"),
], ids=["rationals", "infinite_power", "rationals-factor",
        "infinite_power-factor"])
@pytest.mark.parametrize("command", [("validate",), ("check", "all")],
                         ids=["validate", "check-all"])
@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_a_kind_without_generators_is_unknown(tmp_path, capsys, descriptor,
                                              path, command, fmt):
    # a representation is given by its generator images, so no kind
    # without generators is read
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"descriptor": descriptor, "representation": {
        "generators": [[[[0.5, 0]]]]}}))
    code, out, err = _run(capsys, *command, "--input", str(p),
                          "--format", fmt)
    kind = (descriptor["factors"][1] if "factors" in descriptor
            else descriptor)["kind"]
    assert (code, out, err) == (
        2, "", f"error: {path}.kind: unknown kind {kind!r}\n")


def test_a_sweep_beyond_the_tuple_budget_exits_two(neil_path, capsys):
    code, out, err = _run(capsys, "check", "athavale", "--input", neil_path,
                          "--max-degree", "100000")
    assert (code, out) == (2, "")
    assert err == ("error: degree sweep over 5000150001 tuples exceeds cap "
                   "65536 tuples\n")


def test_overflowing_bound_constant_exits_two(tmp_path, capsys):
    # 1e200 ** 2 overflows; the sznagy check compares with C^2 K, and every
    # command rejects the document, not only those that run sznagy
    doc = json.loads(json.dumps(J2_DOC))
    doc["run"]["bound_constant"] = 1e200
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    for command in (("check", "all"), ("check", "athavale"), ("validate",)):
        code, out, err = _run(capsys, *command, "--input", str(p))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: run.bound_constant: "), (command, err)


@pytest.mark.parametrize("command", [("check", "all"), ("validate",)])
def test_huge_finite_entries_exit_two_with_one_line(tmp_path, capsys,
                                                    command):
    # products and Gram matrices of an entry near 1e308 overflow; the one
    # output is the error line, whose norm excess is finite (once "inf",
    # after seven numpy warnings; warnings are errors here), and whose
    # homomorphism residual, overflowed to NaN, fails (it once read 0)
    doc = json.loads(json.dumps(J2_DOC))
    doc["representation"]["generators"] = [[[[1e308, 0], [0, 0]],
                                            [[0, 0], [0.5, 0]]]]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    assert _run(capsys, *command, "--input", str(p)) == (
        2, "", "error: representation failed validation: contractive: "
               "max norm excess 1.000e+308 at generator 0; "
               "homomorphism_sampled: max residual nan over 100 sampled "
               "pairs\n")


def test_one_parser_serves_every_call(neil_path, capsys):
    # malformed argvs in one process: each exits with its code and an
    # error line, no traceback, and leaves the shared parser as it was
    assert cli._build_parser() is cli._build_parser()
    for argv, code in ((["frobnicate"], 2),
                       (["check", "all", "--input", neil_path,
                         "--format", "xml"], 2),
                       (["check", "all"], 2),
                       (["--help"], 0)):
        got, out, err = _run(capsys, *argv)
        assert got == code, argv
        assert "Traceback" not in out + err
        assert (err.startswith("error: ") and err.count("\n") == 1
                if code else out.startswith("usage: normex"))
    argv = ["check", "all", "--input", neil_path, "--format", "machine"]
    after = _run(capsys, *argv)
    cli._build_parser.cache_clear()  # the next call builds a new parser
    assert _run(capsys, *argv) == after and after[0] == 0


def test_sznagy_pass_margin_is_within_its_tolerance(tmp_path, capsys):
    # with C = 1e100 the (iii) margin dwarfs the (ii) margin; the report
    # must state the tolerance of the verdict whose margin it shows
    p = tmp_path / "pair.json"
    assert run_command(["gallery", "normal_pair", "--seed", "0", "--dim", "4",
                        "--format", "machine", "--out", str(p)]) == 0
    doc = json.loads(p.read_text())
    doc["run"]["bound_constant"] = 1e100
    p.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out, _ = _run(capsys, "check", "sznagy", "--input", str(p),
                        "--format", "machine")
    (rep,) = json.loads(out)["reports"]
    assert (code, rep["verdict"]) == (0, "pass")
    assert rep["margin"] >= -rep["tolerances"]["tolerance_used"], rep


def _product_document():
    """N x the gap semigroup <2, 3> with diagonal images and the relation
    T(2)^3 = T(3)^2 on the gap factor."""
    a = np.diag([0.9, -0.4j, 0.6 + 0.3j])
    return {
        "descriptor": {"kind": "product",
                       "factors": [{"kind": "free_abelian", "k": 1},
                                   {"kind": "numerical", "gaps": [1]}]},
        "representation": {
            "dimension": 3,
            "generators": [matrix_to_json(m) for m in
                           (np.diag([0.5, 0.7j, -0.2]), a @ a, a @ a @ a)],
            "relations": [[{"2": 3}, {"3": 2}]],
        },
        "run": {},
    }


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    """The shift, the neil_matrix gallery document and a product document,
    by name; the sampled routes run on all three."""
    path = tmp_path_factory.mktemp("fuzz") / "neil_matrix.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["gallery", "neil_matrix", "--dim", "3",
                            "--format", "machine", "--out", str(path)]) == 0
    return {"shift": J2_DOC, "neil_matrix": json.loads(path.read_text()),
            "product": _product_document()}


#: flag values as text: junk, the empty string, small and negative ints,
#: floats, NaN and infinities; no int above 6, so sizes and degrees stay small
_FLAG_TEXT = st.one_of(
    st.sampled_from(["", "x", " 2 ", "1e-7", "nan", "inf", "-inf"]),
    st.integers(-3, 6).map(str),
    st.floats(-2, 2).map(repr),
)


def _assert_exit_contract(argv, env_seed):
    """0 pass, 1 fail, 2 with stderr starting ``error: ``; no traceback.
    Flags go in as --flag=value, so a value such as -inf is no option."""
    err = io.StringIO()
    env = {} if env_seed is None else {"NORMEX_SEED": env_seed}
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: "), \
        (argv, env_seed, code, err.getvalue())


@settings(max_examples=80)
@given(doc=st.sampled_from(["shift", "neil_matrix", "product"]),
       command=st.sampled_from([("check", "all"), ("check", "sznagy"),
                                ("check", "regular"), ("validate",)]),
       tol=st.floats(1e-300, 1e300), bound=st.floats(1e-300, 1e300),
       max_degree=st.integers(0, 8), fmt=st.sampled_from(["human", "machine"]),
       flags=st.fixed_dictionaries({}, optional={
           flag: _FLAG_TEXT for flag in
           ("--max-degree", "--tol", "--seed", "--subspace-dim")}),
       env_seed=st.none() | _FLAG_TEXT)
def test_numeric_run_fields_keep_the_exit_contract(
        tmp_path_factory, fuzz_documents, doc, command, tol, bound,
        max_degree, fmt, flags, env_seed):
    doc = json.loads(json.dumps(fuzz_documents[doc]))
    doc["run"] = {"tol": tol, "bound_constant": bound,
                  "max_degree": max_degree}
    p = tmp_path_factory.getbasetemp() / "fuzz.json"
    p.write_text(json.dumps(doc))
    _assert_exit_contract(
        [*command, "--input", str(p), "--format", fmt,
         *(f"{k}={v}" for k, v in flags.items())], env_seed)


#: any JSON value, the kind names among its strings (two of them unknown),
#: whose numbers, and the integers its text can spell, stay small, so a
#: drawn gap is at most 99 and each example runs in milliseconds
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats(-30, 30)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=2)
    | st.sampled_from(["free_abelian", "numerical", "rationals", "product",
                       "infinite_power"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)


@settings(max_examples=60)
@given(doc=st.sampled_from(["shift", "neil_matrix", "product"]),
       command=st.sampled_from([("check", "all"), ("validate",)]),
       fields=st.dictionaries(st.sampled_from(["kind", "k", "gaps",
                                               "factors"]),
                              _SMALL_JSON, max_size=2),
       in_factor=st.booleans(),
       entry=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from([None, 0, 1]),
                                   _SMALL_JSON),
       fmt=st.sampled_from(["human", "machine"]))
def test_descriptor_and_matrix_values_keep_the_exit_contract(
        tmp_path_factory, fuzz_documents, doc, command, fields, in_factor,
        entry, fmt):
    # a descriptor field (of the product's second factor, when drawn) and
    # one matrix entry, or one part of it, become any JSON value, NaN and
    # Infinity literals included
    doc = json.loads(json.dumps(fuzz_documents[doc]))
    factors = doc["descriptor"].get("factors")
    (factors[1] if factors and in_factor else doc["descriptor"]).update(fields)
    if entry is not None:
        i, j, part, value = entry
        rows = doc["representation"]["generators"][0]
        row = rows[i % len(rows)]
        if part is None:
            row[j % len(row)] = value
        else:
            row[j % len(row)][part] = value
    p = tmp_path_factory.getbasetemp() / "values.json"
    p.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = run_command([*command, "--input", str(p), "--format", fmt])
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), err
    else:
        assert err == "", err


@settings(max_examples=80)
@given(name=st.sampled_from(["jordan", "truncated_shift", "neil_scalar",
                             "neil_matrix", "unitary_rep", "normal_pair"]),
       flags=st.fixed_dictionaries({}, optional={
           "--seed": _FLAG_TEXT, "--dim": _FLAG_TEXT, "--k": _FLAG_TEXT,
           "--lam": _FLAG_TEXT,
           "--weights": st.lists(_FLAG_TEXT, max_size=3).map(",".join)}),
       env_seed=st.none() | _FLAG_TEXT)
def test_gallery_flags_keep_the_exit_contract(name, flags, env_seed):
    _assert_exit_contract(
        ["gallery", name, "--format", "machine",
         *(f"{k}={v}" for k, v in flags.items())], env_seed)


class TestSeedHandling:
    def test_validation_runs_with_the_reported_seed(self, tmp_path, capsys,
                                                    monkeypatch):
        # without relations the numerical rep's homomorphism check is
        # sampled, so its echoed residual depends on the seed
        base = tmp_path / "neil.json"
        run_command(["gallery", "neil_matrix", "--dim", "3",
                     "--format", "machine", "--out", str(base)])
        capsys.readouterr()
        doc = json.loads(base.read_text())
        del doc["representation"]["relations"]

        def document(seed):
            p = tmp_path / f"seed{seed}.json"
            p.write_text(json.dumps({**doc, "run": {"seed": seed}}))
            return str(p)

        plain = _run(capsys, "validate", "--input", document(5),
                     "--format", "machine")
        flagged = _run(capsys, "validate", "--input", document(0),
                       "--seed", "5", "--format", "machine")
        monkeypatch.setenv("NORMEX_SEED", "5")
        env = _run(capsys, "validate", "--input", document(0),
                   "--format", "machine")
        assert plain[0] == 0
        assert json.loads(plain[1])["environment"]["seed"] == 5
        assert flagged == plain and env == plain

    def test_env_seed_matches_flag(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_command(["gallery", "normal_pair", "--seed", "7",
                            "--format", "machine", "--out", str(a)]) == 0
        monkeypatch.setenv("NORMEX_SEED", "7")
        assert run_command(["gallery", "normal_pair",
                            "--format", "machine", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seeds_change_the_document(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_command(["gallery", "normal_pair", "--seed", "1",
                     "--format", "machine", "--out", str(a)])
        run_command(["gallery", "normal_pair", "--seed", "2",
                     "--format", "machine", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("argv, value, err", [
        (("check", "athavale"), "pi", "expected an integer, got 'pi'"),
        (("gallery", "normal_pair"), "-1", "must be >= 0, got '-1'"),
    ], ids=["check-text", "gallery-negative"])
    def test_env_seed_is_read_at_its_location(self, neil_path, capsys,
                                              monkeypatch, argv, value, err):
        monkeypatch.setenv("NORMEX_SEED", value)
        if argv[0] == "check":
            argv = (*argv, "--input", neil_path)
        assert _run(capsys, *argv) == (2, "", f"error: NORMEX_SEED: {err}\n")

    def test_malformed_env_seed(self, neil_path, capsys, monkeypatch):
        monkeypatch.setenv("NORMEX_SEED", "pi")
        code, _, err = _run(capsys, "check", "athavale", "--input", neil_path)
        assert code == 2
        assert "NORMEX_SEED" in err


class TestSubprocessEntry:
    def test_module_invocation_matches_in_process(self, neil_path, capsys):
        code, out, _ = _run(capsys, "check", "athavale", "--input", neil_path,
                            "--format", "machine")
        proc = subprocess.run(
            [sys.executable, "-m", "normex", "check", "athavale",
             "--input", neil_path, "--format", "machine"],
            capture_output=True, text=True,
        )
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_exit_codes_through_module(self, jordan_path, tmp_path):
        fail = subprocess.run(
            [sys.executable, "-m", "normex", "check", "athavale",
             "--input", jordan_path], capture_output=True,
        )
        assert fail.returncode == 1
        err = subprocess.run(
            [sys.executable, "-m", "normex", "check", "athavale",
             "--input", str(tmp_path / "missing.json")], capture_output=True,
        )
        assert err.returncode == 2


CLOSED_FORM_NOTE = "margin read off the joint spectrum"


@pytest.mark.parametrize("case, routed, code", [
    ("normal_pair", True, 1), ("unitary_rep", False, 0), ("jordan", False, 1)])
def test_check_all_notes_the_closed_form_route_where_it_is_taken(
        tmp_path, capsys, jordan_path, case, routed, code):
    # the normal pair's sweep reads its margin off the joint spectrum and
    # names r and s in a second note, in both formats; its exit code stays
    # 1 from the extension check.  A unitary (norm 1) and the nilpotent
    # shift take the Delta path, with the one note they had
    path = jordan_path
    if case != "jordan":
        path = str(tmp_path / f"{case}.json")
        assert run_command(["gallery", case, "--out", path]) == 0
        capsys.readouterr()
    got, out, _ = _run(capsys, "check", "all", "--input", path,
                       "--format", "machine")
    sweep = json.loads(out)["reports"][0]
    assert (got, sweep["condition"]) == (code, "generator_sweep")
    notes = [n for n in sweep["notes"] if n.startswith(CLOSED_FORM_NOTE)]
    assert len(notes) == routed and len(sweep["notes"]) == 1 + routed
    if routed:
        assert "residual r = " in notes[0] and "within s = " in notes[0]
        human = _run(capsys, "check", "all", "--input", path)
        assert human[0] == code and f"note: {notes[0]}" in human[1]


SPLIT_DOC = {
    "descriptor": {"kind": "free_abelian", "k": 1},
    "representation": {
        "dimension": 3,
        # the dense normal block [[0.3, 0.2], [0.2, 0.3]] (+) the scalar i
        "generators": [[[[0.3, 0], [0.2, 0], [0, 0]],
                        [[0.2, 0], [0.3, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 1]]]],
        "relations": [],
    },
    "run": {},
}


def test_check_all_notes_the_direct_sum_split(tmp_path, capsys):
    # the normal block's margin is read off its joint spectrum and the
    # unimodular scalar is swept alone: the sweep passes at margin 0
    # (the scalar's boxes 1 - |i|^2 = 0), and a second note names the
    # summands' orders, r and s, in both formats
    path = tmp_path / "split.json"
    path.write_text(json.dumps(SPLIT_DOC))
    got, out, _ = _run(capsys, "check", "all", "--input", str(path),
                       "--format", "machine")
    sweep = json.loads(out)["reports"][0]
    assert (got, sweep["condition"], sweep["verdict"]) == (
        0, "generator_sweep", "pass")
    assert sweep["margin"] == 0 and sweep["parameters"] == {
        "max_degree": 6, "tuples_checked": 7}
    first, note = sweep["notes"]
    assert first == "pass swept over all degree tuples with sum <= 6"
    assert note.startswith("direct sum: the normal summands, of orders 2, "
                           "have their margin read off the joint spectrum")
    assert "residual r = " in note and "within s = " in note
    assert note.endswith("the Delta path swept the others, of orders 1")
    human = _run(capsys, "check", "all", "--input", str(path))
    assert human[0] == 0 and f"note: {note}" in human[1]


def test_a_normal_pair_at_degree_sixty_takes_the_delta_path(tmp_path, capsys):
    # (1 + rho^2)^60 puts the slack s far past tol / 2, so the sweep
    # steps every box and keeps the rounding-level fail it finds there
    path = str(tmp_path / "pair.json")
    assert run_command(["gallery", "normal_pair", "--seed", "1", "--dim", "4",
                        "--out", path]) == 0
    capsys.readouterr()
    got, out, _ = _run(capsys, "check", "athavale", "--input", path,
                       "--max-degree", "60", "--format", "machine")
    (sweep,) = json.loads(out)["reports"]
    assert (got, sweep["verdict"]) == (1, "fail")
    assert not any(n.startswith(CLOSED_FORM_NOTE) for n in sweep["notes"])
