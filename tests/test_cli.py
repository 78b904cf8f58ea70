"""CLI tests: canonical serialization, the input schema, condition dispatch,
exit codes, and byte-level determinism of machine reports."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normex import (
    InputError,
    canonical_json,
    descriptor_from_json,
    descriptor_to_json,
    free_abelian,
    infinite_power,
    matrix_from_json,
    matrix_to_json,
    numerical,
    parse_spec,
    product,
    rationals,
    run_command,
)

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
    (rationals(), '{"kind":"rationals"}'),
    (product(free_abelian(2), numerical({1})),
     '{"factors":[{"k":2,"kind":"free_abelian"},'
     '{"gaps":[1],"kind":"numerical"}],"kind":"product"}'),
    (infinite_power(free_abelian(1)),
     '{"base":{"k":1,"kind":"free_abelian"},"kind":"infinite_power"}'),
    (product(infinite_power(free_abelian(2)), numerical({1})),
     '{"factors":[{"base":{"k":2,"kind":"free_abelian"},'
     '"kind":"infinite_power"},{"gaps":[1],"kind":"numerical"}],'
     '"kind":"product"}'),
    (infinite_power(product(free_abelian(1), rationals())),
     '{"base":{"factors":[{"k":1,"kind":"free_abelian"},'
     '{"kind":"rationals"}],"kind":"product"},"kind":"infinite_power"}'),
], ids=["free_abelian", "numerical", "rationals", "product",
        "infinite_power", "product-of-power", "power-of-product"])
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
        regular = next(r for r in doc["reports"] if r["condition"] == "regular")
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
    ], ids=["weight-text", "second-weight-text", "zero-and-negative-weights",
            "unitary-dim-zero", "unitary-k-negative", "weight-nan",
            "second-weight-infinite", "weight-above-one", "lam-nan",
            "lam-above-one"])
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
], ids=["k-text", "k-bool", "k-fraction", "gap-text", "nested-path",
        "bool-entry", "multiplicity-text", "max-degree-text",
        "max-degree-negative", "tol-nan", "tol-negative", "bound-zero",
        "subset-flag", "tol-flag"])
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
