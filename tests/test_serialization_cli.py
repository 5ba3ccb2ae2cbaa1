import contextlib
import copy
import functools
import io
import json
import math
import pathlib
import tempfile
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beyondcp import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    map_residual,
    operator,
    positive_domain_membership,
    serialization,
)
from beyondcp.catalog import depolarizer_kraus, gibbs_subspace, repolarizer
from beyondcp.cli import _RANK_CUT_FLOOR, _smallest_checkable_epsilon, run_cli
from beyondcp.config import DEFAULT_TOL
from beyondcp.maps import identity_map, map_from_kraus
from beyondcp.serialization import (
    Report,
    emit_map,
    emit_operator,
    emit_report,
    emit_subspace,
    inputs_digest,
    load_schema,
    parse_map,
    parse_operator,
    parse_subspace,
    validate_document,
)


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def test_operator_roundtrip_pauli_x():
    doc = {"dims": [2], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    op = parse_operator(doc)
    assert np.allclose(op.entries, PAULI_X.entries)
    again = parse_operator(emit_operator(op))
    assert np.array_equal(again.entries, op.entries)


def test_operator_roundtrip_preserves_bits(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = operator(m, (2, 2), labels=("system", "bath"))
    doc = emit_operator(op)
    text = json.dumps(doc)
    again = parse_operator(json.loads(text))
    assert np.array_equal(again.entries, op.entries)
    assert again.layout.labels == ("system", "bath")


def test_operator_schema_violation_reports_pointer():
    with pytest.raises(ValueError, match="/dims"):
        parse_operator({"dims": [0], "matrix": [[[0, 0]]]})
    with pytest.raises(ValueError, match="matrix"):
        parse_operator({"dims": [2]})


def test_operator_dimension_mismatch():
    with pytest.raises(ValueError, match="/matrix"):
        parse_operator({"dims": [2], "matrix": [[[0, 0]]]})


def test_subspace_roundtrip():
    v = gibbs_subspace()
    doc = emit_subspace(v)
    again = parse_subspace(doc)
    assert again.dim == v.dim
    for b in v.basis:
        assert again.contains(b)


def test_subspace_from_generators_only():
    doc = {
        "dims": [2],
        "generators": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        ],
    }
    v = parse_subspace(doc)
    assert v.dim == 2


def test_map_builtin_parse():
    phi = parse_map({"kind": "builtin", "name": "repolarizer", "epsilon": 0.1})
    assert map_residual(phi, repolarizer(0.1)) <= 1e-12
    alias = parse_map({"kind": "builtin", "name": "example1", "t": 0.5})
    from beyondcp.catalog import controlled_phase_map

    assert map_residual(alias, controlled_phase_map(0.5)) <= 1e-12


def test_map_builtin_requires_params():
    with pytest.raises(ValueError, match="epsilon"):
        parse_map({"kind": "builtin", "name": "repolarizer"})


def test_map_kraus_roundtrip():
    doc = {
        "kind": "kraus",
        "dims": [2],
        "operators": [emit_operator(k)["matrix"] for k in depolarizer_kraus(0.2)],
    }
    phi = parse_map(doc)
    assert map_residual(phi, map_from_kraus(depolarizer_kraus(0.2))) <= 1e-12


def test_map_matrix_roundtrip():
    phi = repolarizer(0.3)
    again = parse_map(emit_map(phi))
    assert map_residual(again, phi) <= 1e-12
    assert np.array_equal(again.coord_matrix, phi.coord_matrix)


def test_map_schema_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_map({"kind": "mystery"})


def test_report_roundtrips_bit_exactly():
    from beyondcp.config import DEFAULT_TOL
    from beyondcp.serialization import Report, emit_report, parse_report

    report = Report("demo", inputs_digest({"x": 1}), 7, DEFAULT_TOL)
    report.add("alpha", True, 1.2345678901234567e-12, note="fine", count=3)
    report.add("beta", False, float("inf"), ratios=[1.0, 10.0])
    doc = emit_report(report)
    text = json.dumps(doc)
    assert parse_report(json.loads(text)) == doc
    assert json.dumps(json.loads(text)) == text


def test_inputs_digest_is_stable():
    a = inputs_digest({"b": 1, "a": [2, 3]})
    b = inputs_digest({"a": [2, 3], "b": 1})
    assert a == b
    assert len(a) == 64


def test_parse_operator_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        doc = {"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [bad, 0]]]}
        with pytest.raises(ValueError, match="finite"):
            parse_operator(doc)


# ---------------------------------------------------------------------------
# schema validation against jsonschema.validate as the oracle
# ---------------------------------------------------------------------------

_I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
# a map on the zero subspace of one qubit: no basis, and four empty coordinate rows
_ZERO_DOMAIN_MAP = {"kind": "matrix", "dims": [2], "basis": [], "coord_matrix": [[], [], [], []]}


def _valid_report():
    report = Report("demo", inputs_digest({"x": 1}), 7, DEFAULT_TOL)
    report.add("alpha", True, 1e-12, note="fine")
    return report.to_doc()


def _malformed_corpus():
    report = _valid_report()
    bad_verdict = dict(report["verdicts"][0], passed="yes", extra=1)
    return [
        ("operator", {"dims": [2], "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        ("operator", {"dims": [2], "matrix": [[[1], [0, 0]], [[0, 0], [1, 0]]]}),
        ("operator", {"dims": [2], "matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        ("operator", {"dims": [2], "matrix": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]]}),
        ("operator", {"dims": [2], "matrix": [["1+0j", [0, 0]], [[0, 0], [1, 0]]]}),
        ("operator", {"matrix": _I2}),
        ("operator", {"dims": [2], "matrix": _I2, "extra": 1}),
        ("operator", {"dims": [0, "a"], "matrix": [[[True], "x"]], "extra": 1}),
        ("operator", [1, 2]),
        ("subspace", {"dims": [2]}),
        ("subspace", {"dims": [2], "labels": ["s"]}),
        ("subspace", {"dims": [2], "generators": [[[[False, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("subspace", {"dims": [2], "basis": [[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("subspace", {"generators": [_I2]}),
        ("subspace", {"dims": [2], "generators": [_I2], "extra": 1}),
        ("subspace", {"dims": [2], "generators": []}),
        ("subspace", {"dims": [], "basis": [[[["1", 0]]]], "extra": 1}),
        ("map", {"kind": "kraus", "dims": [2], "operators": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("map", {"kind": "kraus", "dims": [2], "operators": [[[[1], [0, 0]], [[0, 0], [1, 0]]]]}),
        ("map", {"kind": "kraus", "operators": [_I2]}),
        ("map", {"kind": "matrix", "dims": [2], "basis": [_I2], "coord_matrix": [[["0", 0]]]}),
        ("map", {"kind": "matrix", "dims": [2], "basis": [_I2], "coord_matrix": [[[1, 0, 0]]]}),
        ("map", {"kind": "builtin", "name": "identity", "extra": 1}),
        ("map", {"kind": "builtin", "name": "mystery"}),
        ("map", {"kind": "mystery"}),
        ("map", {"name": "identity"}),
        ("map", {"kind": "kraus", "dims": [0], "operators": [[[[1]]]], "extra": True}),
        ("report", {k: v for k, v in report.items() if k != "seed"}),
        ("report", dict(report, extra=1)),
        ("report", dict(report, seed=True)),
        ("report", dict(report, inputs_digest="xyz")),
        ("report", dict(report, tolerances=dict(report["tolerances"], rank_cut=-1.0))),
        ("report", dict(report, verdicts=[bad_verdict])),
        ("report", dict(report, command=3, verdicts=[bad_verdict], artifacts=[], extra=1)),
    ]


def _reference_outcome(doc, name):
    """jsonschema.validate's error as validate_document words it, or None if doc is valid."""
    try:
        jsonschema.validate(doc, load_schema(name))
    except jsonschema.ValidationError as err:
        pointer = "/" + "/".join(str(part) for part in err.absolute_path)
        return f"{name} document invalid at {pointer}: {err.message}"
    return None


def _reference_message(doc, name):
    message = _reference_outcome(doc, name)
    if message is None:
        raise AssertionError(f"corpus {name} document is valid: {doc!r}")
    return message


@pytest.mark.parametrize("name,doc", _malformed_corpus())
def test_validate_document_matches_jsonschema_validate(name, doc):
    expected = _reference_message(doc, name)
    for _ in range(2):  # the first call compiles the validator, the second reuses it
        with pytest.raises(ValueError) as info:
            validate_document(doc, name)
        assert str(info.value) == expected


def test_validate_document_accepts_valid_documents():
    validate_document({"dims": [2], "labels": ["s"], "matrix": _I2}, "operator")
    validate_document(emit_subspace(gibbs_subspace()), "subspace")
    validate_document({"dims": [2], "basis": []}, "subspace")
    validate_document(emit_map(repolarizer(0.1)), "map")
    validate_document({"kind": "builtin", "name": "identity", "dim": 3}, "map")
    validate_document(_valid_report(), "report")


def test_packaged_schemas_pass_their_metaschema():
    names = sorted(
        entry.name[: -len(".json")]
        for entry in resources.files("beyondcp").joinpath("schemas").iterdir()
        if entry.name.endswith(".json")
    )
    assert names == ["map", "operator", "report", "subspace"]
    for name in names:
        schema = load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_each_schema_is_checked_once_per_process(monkeypatch):
    checked = []
    original = jsonschema.Draft7Validator.check_schema

    def counting_check(cls, schema, **kwargs):
        checked.append(schema["$id"])
        return original(schema, **kwargs)

    monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", classmethod(counting_check))
    serialization._validator.cache_clear()
    try:
        for _ in range(3):
            parse_operator({"dims": [2], "matrix": _I2})
            parse_subspace(emit_subspace(gibbs_subspace()))
            parse_map({"kind": "builtin", "name": "identity"})
            emit_report(Report("demo", inputs_digest({}), None, DEFAULT_TOL))
    finally:
        serialization._validator.cache_clear()
    assert sorted(checked) == ["map.json", "operator.json", "report.json", "subspace.json"]


def test_inline_refs_refuses_remote_and_recursive_refs():
    with pytest.raises(ValueError, match="not local"):
        serialization._inline_refs({"$ref": "other.json#/x"}, {})
    recursive = {"definitions": {"node": {"items": {"$ref": "#/definitions/node"}}}}
    with pytest.raises(ValueError, match="recursive"):
        serialization._inline_refs({"$ref": "#/definitions/node"}, recursive)


def test_report_with_non_finite_artifacts_is_strict_json():
    report = Report("demo", inputs_digest({}), None, DEFAULT_TOL)
    report.artifacts["value"] = math.nan
    report.artifacts["bounds"] = [1.0, math.inf]
    doc = emit_report(report)
    assert doc["artifacts"] == {"value": "nan", "bounds": [1.0, "inf"]}
    json.dumps(doc, allow_nan=False)


def test_report_keeps_the_sign_of_infinities():
    report = Report("demo", inputs_digest({}), None, DEFAULT_TOL)
    report.add("gap", False, -math.inf, bounds=[math.inf, -math.inf])
    report.artifacts["values"] = [1.0, math.inf, -math.inf]
    doc = emit_report(report)
    assert doc["verdicts"][0]["residual"] == "-inf"
    assert doc["verdicts"][0]["details"] == {"bounds": ["inf", "-inf"]}
    assert doc["artifacts"] == {"values": [1.0, "inf", "-inf"]}
    json.dumps(doc, allow_nan=False)


def test_report_complex_details_are_strict_json():
    report = Report("demo", inputs_digest({}), None, DEFAULT_TOL)
    report.add("z", False, 0.5, z=complex(math.nan, 1.5), w=complex(-math.inf, math.inf))
    report.artifacts["z"] = np.complex128(complex(2.0, math.nan))
    doc = emit_report(report)
    assert doc["verdicts"][0]["details"] == {"z": ["nan", 1.5], "w": ["-inf", "inf"]}
    assert doc["artifacts"] == {"z": [2.0, "nan"]}
    json.dumps(doc, allow_nan=False)


def test_finite_report_text_is_unchanged():
    report = Report("demo", inputs_digest({"x": 1}), 3, DEFAULT_TOL)
    report.add("alpha", True, 1.25e-13, z=complex(0.5, -2.0), gap=[0.1, 3])
    report.artifacts["eigenvalues"] = [complex(1.0, 0.0), -0.25]
    text = json.dumps(emit_report(report), allow_nan=False, sort_keys=True)
    assert text == (
        '{"artifacts": {"eigenvalues": [[1.0, 0.0], -0.25]}, "command": "demo", '
        f'"inputs_digest": "{inputs_digest({"x": 1})}", "seed": 3, '
        '"tolerances": {"entropy_support_tol": 1e-12, "psd_slack": 1e-10, '
        '"rank_cut": 1e-09, "residual_tol": 1e-09}, '
        '"verdicts": [{"details": {"gap": [0.1, 3], "z": [0.5, -2.0]}, '
        '"name": "alpha", "passed": true, "residual": 1.25e-13}]}'
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_cli_catalog_example1_passes(capsys):
    code, doc = _run(
        capsys, ["catalog", "example1", "--t", "0.7853981633974483"]
    )
    assert code == 0
    validate_document(doc, "report")
    names = {v["name"] for v in doc["verdicts"]}
    assert "derived_map_matches_closed_form" in names
    assert "kraus_completeness" in names
    assert "map" in doc["artifacts"]


def test_cli_analyze_transpose_cp_exits_one(capsys, tmp_path):
    path = _write(tmp_path, "map.json", {"kind": "builtin", "name": "transpose"})
    code, doc = _run(capsys, ["analyze-map", "--map", path, "--cp"])
    assert code == 1
    cp = next(v for v in doc["verdicts"] if v["name"] == "completely_positive")
    assert not cp["passed"]
    assert math.isclose(cp["details"]["min_choi_eigenvalue"], -1.0, abs_tol=1e-9)


def test_cli_violations_demonstrates_ratios(capsys):
    code, doc = _run(
        capsys, ["violations", "--epsilon", "0.1", "--pairs", "5", "--seed", "7"]
    )
    assert code == 1
    contract = next(v for v in doc["verdicts"] if v["name"] == "trace_norm_contractivity")
    assert not contract["passed"]
    for ratio in contract["details"]["ratios"]:
        assert abs(ratio - 10.0) <= 1e-6
    uhlmann = next(
        v for v in doc["verdicts"] if v["name"] == "relative_entropy_monotonicity"
    )
    assert not uhlmann["passed"]
    for ratio in uhlmann["details"]["ratios"]:
        assert ratio >= 10.0 - 1e-6
    control = next(v for v in doc["verdicts"] if v["name"] == "cptp_control_contractive")
    assert control["passed"]


def test_cli_reports_are_deterministic(capsys):
    run_cli(["violations", "--epsilon", "0.1", "--pairs", "3", "--seed", "9"])
    first = capsys.readouterr().out
    run_cli(["violations", "--epsilon", "0.1", "--pairs", "3", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("BEYONDCP_SEED", "123")
    code, doc = _run(capsys, ["violations", "--epsilon", "0.1", "--pairs", "2", "--seed", "9"])
    assert doc["seed"] == 123


def test_cli_check_consistency_and_derive_map(capsys, tmp_path):
    from beyondcp.catalog import controlled_phase_unitary
    from beyondcp.operators import swap_unitary

    sub = _write(tmp_path, "sub.json", emit_subspace(gibbs_subspace()))
    good_u = _write(tmp_path, "u.json", emit_operator(controlled_phase_unitary(0.9)))
    bad_u = _write(tmp_path, "swap.json", emit_operator(swap_unitary(2)))

    code, doc = _run(capsys, ["check-consistency", "--subspace", sub, "--unitary", good_u])
    assert code == 0
    assert all(v["passed"] for v in doc["verdicts"])

    code, doc = _run(capsys, ["check-consistency", "--subspace", sub, "--unitary", bad_u])
    assert code == 1

    code, doc = _run(capsys, ["derive-map", "--subspace", sub, "--unitary", good_u])
    assert code == 0
    parsed = parse_map(doc["artifacts"]["map"])
    from beyondcp.catalog import controlled_phase_map

    assert map_residual(parsed, controlled_phase_map(0.9)) <= 1e-9

    code, doc = _run(capsys, ["derive-map", "--subspace", sub, "--unitary", bad_u])
    assert code == 1
    assert "map" not in doc["artifacts"]


def test_cli_represent_swap_and_kraus(capsys, tmp_path):
    repo = _write(tmp_path, "repo.json", {"kind": "builtin", "name": "repolarizer", "epsilon": 0.1})
    code, doc = _run(capsys, ["represent", "--map", repo, "--method", "swap", "--seed", "3"])
    assert code == 0
    assert doc["artifacts"]["representation"]["bath_dim"] == 2

    kraus_doc = {
        "kind": "kraus",
        "dims": [2],
        "operators": [emit_operator(k)["matrix"] for k in depolarizer_kraus(0.1)],
    }
    kraus = _write(tmp_path, "kraus.json", kraus_doc)
    code, doc = _run(capsys, ["represent", "--map", kraus, "--method", "kraus"])
    assert code == 0
    assert doc["artifacts"]["representation"]["bath_dim"] == 4

    code, _ = _run(capsys, ["represent", "--map", repo, "--method", "kraus"])
    assert code == 2


def test_cli_input_errors_exit_two(capsys, tmp_path):
    bad = _write(tmp_path, "bad.json", {"kind": "builtin"})
    assert run_cli(["analyze-map", "--map", bad]) == 2
    capsys.readouterr()
    assert run_cli(["analyze-map", "--map", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_nan_unitary_entry_exits_two(capsys, tmp_path):
    from beyondcp.operators import identity

    sub = _write(tmp_path, "sub.json", emit_subspace(gibbs_subspace()))
    doc = emit_operator(identity((2, 2)))
    doc["matrix"][0][0] = [math.nan, 0.0]  # written as a bare NaN token
    nan_u = _write(tmp_path, "nan.json", doc)
    assert run_cli(["check-consistency", "--subspace", sub, "--unitary", nan_u]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--tol-residual", "-1", "residual_tol must be finite and non-negative, got -1.0"),
        ("--tol-rank", "nan", "rank_cut must be finite and non-negative, got nan"),
        ("--tol-residual", "inf", "residual_tol must be finite and non-negative, got inf"),
    ],
)
def test_cli_refuses_a_tolerance_flag_that_is_not_finite_and_non_negative(
    capsys, flag, value, message
):
    assert run_cli(["catalog", "transpose", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_CATALOG_TOPICS = ["transpose", "repolarizer", "gibbs", "example1"]


@pytest.mark.parametrize("topic", _CATALOG_TOPICS)
@pytest.mark.parametrize("value", ["0", "-0.0", "1e-300", "1e-17", "2.3e-16", "1e-15"])
def test_cli_refuses_a_rank_cut_below_its_floor(capsys, topic, value):
    assert run_cli(["catalog", topic, "--tol-rank", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --tol-rank {float(value)!r} is below 16 machine epsilons\n"


@pytest.mark.parametrize("topic", _CATALOG_TOPICS)
@pytest.mark.parametrize("value", [repr(_RANK_CUT_FLOOR), repr(DEFAULT_TOL.rank_cut)])
def test_cli_catalog_passes_from_the_rank_cut_floor_up(capsys, topic, value):
    code, doc = _run(capsys, ["catalog", topic, "--tol-rank", value])
    assert code == 0
    assert all(v["passed"] for v in doc["verdicts"])


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_cli_violations_rejects_empty_sample(capsys, pairs):
    assert run_cli(["violations", "--epsilon", "0.1", "--pairs", pairs]) == 2
    assert capsys.readouterr().out == ""


def test_cli_csv_format(capsys):
    code = run_cli(["catalog", "witness", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,passed,residual,details"
    assert any("factorization_gap_matches_expected" in line for line in lines)


def test_cli_catalog_witness_variants(capsys):
    for kind, expected in (("bell", 0.75), ("classical", 0.5), ("product", 0.0)):
        code, doc = _run(capsys, ["catalog", "witness", "--bath-witness", kind])
        assert code == 0
        verdict = doc["verdicts"][0]
        assert math.isclose(verdict["details"]["mismatch"], expected, abs_tol=1e-10)


def test_cli_catalog_gibbs_and_transpose_and_repolarizer(capsys):
    for argv in (
        ["catalog", "gibbs", "--theta", "1.0", "--beta", "0.5"],
        ["catalog", "transpose"],
        ["catalog", "repolarizer", "--epsilon", "0.1"],
    ):
        code, doc = _run(capsys, argv)
        assert code == 0, argv
        assert all(v["passed"] for v in doc["verdicts"]), argv


@pytest.mark.parametrize(
    "flag,value",
    [
        *(("--theta", v) for v in ("nan", "inf", "1e200", "1e300")),
        *(("--beta", v) for v in ("nan", "inf", "800", "-800", "1e200", "1e300")),
    ],
)
def test_cli_catalog_gibbs_refuses_what_its_closed_form_cannot_evaluate(capsys, flag, value):
    # non-finite values printed a state of "nan" strings; the others overflowed in math
    assert run_cli(["catalog", "gibbs", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag[2:] in captured.err


def test_cli_analyze_map_refuses_a_map_whose_hermitian_parts_overflow(capsys, tmp_path):
    doc = emit_map(identity_map((2,)))
    doc["coord_matrix"] = [[[re * 1e308, im] for re, im in row] for row in doc["coord_matrix"]]
    huge = _write(tmp_path, "huge.json", doc)  # finite, so the parser accepts it
    for flag, caller in (
        ("--positivity", "positivity_scan"),
        ("--positive-domain", "sample_positive_domain"),
    ):
        assert run_cli(["analyze-map", "--map", huge, flag, "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "the map's coordinates must be finite and their norm must not overflow"
        assert captured.err == f"error: {caller}: {message}\n"


_FILE_COMMANDS = [
    ("check-consistency", "--subspace", "{subspace}", "--unitary", "{unitary}"),
    ("derive-map", "--subspace", "{subspace}", "--unitary", "{unitary}"),
    ("analyze-map", "--map", "{map}", "--cp", "--positivity", "8"),
    ("represent", "--map", "{map}", "--method", "swap"),
]
_FLOAT_FLAGS = [
    ("catalog", "gibbs", "--theta"),
    ("catalog", "gibbs", "--beta"),
    ("catalog", "example1", "--t"),
    ("catalog", "repolarizer", "--epsilon"),
    ("catalog", "transpose", "--tol-residual"),
    ("violations", "--pairs", "2", "--epsilon"),
    *(("catalog", topic, "--tol-rank") for topic in _CATALOG_TOPICS),
    *((*command, flag) for command in _FILE_COMMANDS for flag in ["--tol-rank", "--tol-residual"]),
]
_FLOAT_VALUES = ["0", "-0.0", "1e-300", "0.5", "-3", "800", "-800", "1e200", "1e300", "nan", "inf", "-inf"]


@pytest.fixture(scope="module")
def cli_input_files(tmp_path_factory):
    """The input files of ``_FILE_COMMANDS``, written once for every example."""
    from beyondcp.catalog import controlled_phase_unitary

    workdir = tmp_path_factory.mktemp("cli_inputs")
    return {
        "subspace": _write(workdir, "sub.json", emit_subspace(gibbs_subspace())),
        "unitary": _write(workdir, "u.json", emit_operator(controlled_phase_unitary(0.7))),
        "map": _write(workdir, "map.json", emit_map(repolarizer(0.1))),
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(_FLOAT_FLAGS), st.sampled_from(_FLOAT_VALUES))
def test_cli_float_flags_exit_cleanly_and_never_print_nan(cli_input_files, command, value):
    *words, flag = command
    argv = [word.format(**cli_input_files) for word in words]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([*argv, f"{flag}={value}"])  # an exception or a warning fails the test
    assert code in (0, 1, 2)
    if code == 0:
        assert '"nan"' not in out.getvalue()


@pytest.mark.parametrize("epsilon", ["3e-4", "1e-7", "1e-300"])
def test_cli_catalog_repolarizer_refuses_an_uncheckable_epsilon(capsys, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the refusal
        code = run_cli(["catalog", "repolarizer", "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--epsilon {float(epsilon)!r} is below 0.000942" in captured.err


def test_cli_catalog_repolarizer_passes_from_its_epsilon_bound_up(capsys):
    bound = _smallest_checkable_epsilon(DEFAULT_TOL)
    assert 4.7e-4 < bound < 1e-3
    for epsilon in np.geomspace(bound, 1e-3, 12):
        code, doc = _run(capsys, ["catalog", "repolarizer", "--epsilon", repr(float(epsilon))])
        assert code == 0, epsilon
        assert all(v["passed"] for v in doc["verdicts"]), epsilon


@pytest.mark.parametrize("epsilon", ["1e-7", "1e-300"])
def test_cli_violations_refuses_an_uncheckable_epsilon(capsys, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the refusal
        code = run_cli(["violations", "--epsilon", epsilon])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--epsilon {float(epsilon)!r} is below 4.44e-07" in captured.err


def test_cli_violations_demonstrates_from_its_epsilon_bound_up(capsys):
    expected = {
        "trace_norm_contractivity": False,
        "relative_entropy_monotonicity": False,
        "cptp_control_contractive": True,
    }
    for epsilon in np.geomspace(4.45e-7, 1e-4, 8):
        for pairs in ("1", "5"):
            code, doc = _run(
                capsys, ["violations", "--epsilon", repr(float(epsilon)), "--pairs", pairs]
            )
            assert code == 1, (epsilon, pairs)
            assert {v["name"]: v["passed"] for v in doc["verdicts"]} == expected


def test_cli_repeated_calls_in_one_process_match_the_first(capsys, tmp_path):
    from beyondcp.catalog import controlled_phase_unitary

    sub = _write(tmp_path, "sub.json", emit_subspace(gibbs_subspace()))
    uni = _write(tmp_path, "u.json", emit_operator(controlled_phase_unitary(0.7)))
    commands = [
        ["violations", "--epsilon", "0.1", "--pairs", "0"],
        ["--help"],
        ["catalog", "witness"],
        ["violations", "--epsilon", "0.2", "--pairs", "3", "--seed", "5"],
        ["check-consistency", "--subspace", sub, "--unitary", uni],
    ]

    def run(argv):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in commands]
    assert [code for code, _, _ in first] == [2, 0, 0, 1, 0]
    for _ in range(2):
        for argv, expected in reversed(list(zip(commands, first))):
            assert run(argv) == expected, argv


def test_cli_represent_kraus_validates_the_map_once(capsys, tmp_path, monkeypatch):
    validated = []
    original = serialization.validate_document

    def recording(doc, schema_name):
        validated.append(schema_name)
        return original(doc, schema_name)

    monkeypatch.setattr(serialization, "validate_document", recording)
    kraus_doc = {
        "kind": "kraus",
        "dims": [2],
        "operators": [emit_operator(k)["matrix"] for k in depolarizer_kraus(0.1)],
    }
    kraus = _write(tmp_path, "kraus.json", kraus_doc)
    code, doc = _run(capsys, ["represent", "--map", kraus, "--method", "kraus"])
    assert code == 0
    assert doc["verdicts"][1]["name"] == "derived_map_matches_kraus"
    assert validated == ["map", "report"]


@pytest.mark.parametrize("epsilon", ["9.5e-4", "0.05", "0.1", "0.45"])
def test_cli_catalog_repolarizer_bisection_matches_the_per_state_loop(capsys, epsilon):
    eps = float(epsilon)
    phi = repolarizer(eps)
    worst = 0.0
    for sigma in (PAULI_X, PAULI_Z):
        for sign in (1.0, -1.0):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if positive_domain_membership(phi, (PAULI_I + (sign * mid) * sigma) * 0.5):
                    lo = mid
                else:
                    hi = mid
            worst = max(worst, abs((lo + hi) / 2 - eps))
    code, doc = _run(capsys, ["catalog", "repolarizer", "--epsilon", epsilon])
    boundary = next(
        v for v in doc["verdicts"] if v["name"] == "positive_domain_boundary_at_epsilon"
    )
    assert code == 0
    assert boundary["residual"] == worst and boundary["passed"]


def test_cli_derive_map_on_the_zero_subspace_is_an_input_error(capsys, tmp_path):
    from beyondcp.catalog import controlled_phase_unitary

    sub = _write(tmp_path, "zero.json", {"dims": [2, 2], "basis": []})
    uni = _write(tmp_path, "u.json", emit_operator(controlled_phase_unitary(0.7)))
    assert run_cli(["derive-map", "--subspace", sub, "--unitary", uni]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot derive a map from a zero-dimensional subspace\n"


def test_cli_derive_map_on_a_subspace_inside_the_trace_kernel(capsys, tmp_path):
    from beyondcp import identity, span_from_generators, tensor

    v = span_from_generators([tensor(PAULI_X, PAULI_Z)])  # Tr_B(X (x) Z) = 0
    sub = _write(tmp_path, "kernel.json", emit_subspace(v))
    uni = _write(tmp_path, "u.json", emit_operator(identity((2, 2))))
    code, doc = _run(capsys, ["derive-map", "--subspace", sub, "--unitary", uni])
    assert code == 0
    assert [(v["name"], v["passed"]) for v in doc["verdicts"]] == [
        ("unitary_consistent", True),
        ("trace_and_hermiticity_preserving", True),
    ]
    artifact = doc["artifacts"]["map"]  # a map on the zero subspace, which map.json accepts
    assert {k: artifact[k] for k in _ZERO_DOMAIN_MAP} == _ZERO_DOMAIN_MAP
    zero_domain = _write(tmp_path, "m.json", artifact)
    code, report = _run(capsys, ["analyze-map", "--map", zero_domain])
    assert code == 0
    assert [(v["name"], v["passed"]) for v in report["verdicts"]] == [
        ("trace_preserving", True),
        ("hermiticity_preserving", True),
    ]
    assert parse_map(artifact).coord_matrix.shape == (4, 0)
    # A positivity scan of a domain without states is undecided, never a pass.
    code, report = _run(capsys, ["analyze-map", "--map", zero_domain, "--positivity", "8"])
    assert code == 1
    scan = report["verdicts"][-1]
    assert (scan["name"], scan["passed"]) == ("positive_on_sampled_states", False)
    assert scan["details"]["n_tested"] == 0 and scan["details"]["undecided"] is True
    transpose = _write(tmp_path, "t.json", {"kind": "builtin", "name": "transpose"})
    code, report = _run(capsys, ["analyze-map", "--map", transpose, "--positivity", "8"])
    assert code == 0 and "undecided" not in report["verdicts"][-1]["details"]


def test_cli_derive_map_on_a_kernel_whose_bath_traces_are_rounding_noise(capsys, tmp_path):
    from beyondcp import SpaceLayout, UnitaryFamily, consistent_kernel, swap_unitary

    # Every bath-reduced basis element of the SWAP kernel is at most ~2e-16, not
    # exactly zero: the derived map must still live on the zero subspace.
    kernel = consistent_kernel(UnitaryFamily((swap_unitary(2),)), SpaceLayout((2, 2)))
    sub = _write(tmp_path, "kernel.json", emit_subspace(kernel))
    uni = _write(tmp_path, "swap.json", emit_operator(swap_unitary(2)))
    code, doc = _run(capsys, ["derive-map", "--subspace", sub, "--unitary", uni])
    assert code == 0
    assert [(v["name"], v["passed"]) for v in doc["verdicts"]] == [
        ("unitary_consistent", True),
        ("trace_and_hermiticity_preserving", True),
    ]
    artifact = doc["artifacts"]["map"]
    assert artifact["basis"] == []
    code, report = _run(capsys, ["analyze-map", "--map", _write(tmp_path, "m.json", artifact)])
    assert code == 0
    assert all(v["passed"] for v in report["verdicts"])


def test_map_schema_keeps_non_empty_rows_outside_coord_matrix():
    empty_row = {"kind": "kraus", "dims": [2], "operators": [[[], []]]}
    with pytest.raises(ValueError, match="/operators/0/0"):
        validate_document(empty_row, "map")
    with pytest.raises(ValueError, match="/coord_matrix"):  # one row per output entry
        validate_document({"kind": "matrix", "dims": [2], "basis": [], "coord_matrix": []}, "map")
    with pytest.raises(ValueError, match=r"/coord_matrix: shape \(4, 0\), expected \(4, 4\)"):
        parse_map({**emit_map(repolarizer(0.1)), "coord_matrix": [[], [], [], []]})


def test_cli_builtin_identity_refuses_a_huge_dim_before_building_it(capsys, tmp_path):
    path = _write(tmp_path, "huge.json", {"kind": "builtin", "name": "identity", "dim": 1000000})
    assert run_cli(["analyze-map", "--map", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: map document invalid at /dim: 1000000 is greater than the maximum of 16\n"
    )
    assert parse_map({"kind": "builtin", "name": "identity", "dim": 16}).domain.dim == 256


@pytest.mark.parametrize("epsilon", [1e-300, 1e-7, 4.4e-7])
def test_builtin_repolarizer_refuses_an_uncheckable_epsilon(capsys, tmp_path, epsilon):
    path = _write(tmp_path, "r.json", {"kind": "builtin", "name": "repolarizer", "epsilon": epsilon})
    assert run_cli(["analyze-map", "--map", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: /epsilon: {epsilon!r} is below 4.44e-07,")


def test_builtin_repolarizer_is_tp_and_hp_from_its_epsilon_bound_up(capsys, tmp_path):
    from beyondcp.catalog import _smallest_state_checkable_epsilon

    bound = _smallest_state_checkable_epsilon(DEFAULT_TOL)
    for epsilon in np.geomspace(bound, 1e-3, 8):
        doc = {"kind": "builtin", "name": "repolarizer", "epsilon": float(epsilon)}
        code, report = _run(capsys, ["analyze-map", "--map", _write(tmp_path, "r.json", doc)])
        assert code == 0, epsilon
        assert all(v["passed"] for v in report["verdicts"]), epsilon


# ---------------------------------------------------------------------------
# the structural fast path of validate_document, against jsonschema
# ---------------------------------------------------------------------------


def _cli_workload(workdir, seed):
    """The benchmark's 15 cli commands and exit codes, with its inputs for ``seed``."""
    from beyondcp.catalog import (
        controlled_phase_family,
        controlled_phase_unitary,
    )

    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.1, 2 * math.pi - 0.1))
    eps = float(rng.uniform(0.05, 0.45))
    theta, beta = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.1, 2.0))
    cli_seed = str(int(rng.integers(1, 2**31)))
    inputs = {
        "gibbs": emit_subspace(gibbs_subspace()),
        "cphase": emit_operator(controlled_phase_unitary(t)),
        "family": {"members": [emit_operator(u) for u in controlled_phase_family().members]},
        "transpose": {"kind": "builtin", "name": "transpose"},
        "repolarizer": emit_map(repolarizer(eps)),
        "kraus": {
            "kind": "kraus",
            "dims": [2],
            "operators": [emit_operator(k)["matrix"] for k in depolarizer_kraus(eps)],
        },
        "malformed": {"kind": "matrix", "dims": [2]},
    }
    path = {name: _write(workdir, f"{name}.json", doc) for name, doc in inputs.items()}
    commands = [
        (["catalog", "gibbs", "--theta", repr(theta), "--beta", repr(beta)], 0),
        (["catalog", "example1", "--t", repr(t)], 0),
        (["catalog", "transpose"], 0),
        (["catalog", "repolarizer", "--epsilon", repr(eps)], 0),
        *(
            (["catalog", "witness", "--bath-witness", witness], 0)
            for witness in ("bell", "classical", "product")
        ),
        (["violations", "--epsilon", "0.1", "--pairs", "5"], 1),
        (
            ["check-consistency", "--subspace", path["gibbs"], "--unitary", path["cphase"],
             "--family", path["family"]],
            0,
        ),
        (["derive-map", "--subspace", path["gibbs"], "--unitary", path["cphase"]], 0),
        (
            ["analyze-map", "--map", path["transpose"], "--cp", "--choi", "--positivity", "64",
             "--positive-domain", "12"],
            1,
        ),
        (["analyze-map", "--map", path["repolarizer"], "--cp", "--positivity", "64"], 1),
        (["represent", "--map", path["repolarizer"], "--method", "swap"], 0),
        (["represent", "--map", path["kraus"], "--method", "kraus"], 0),
        (["analyze-map", "--map", path["malformed"], "--cp"], 2),
    ]
    return inputs, [(argv + ["--seed", cli_seed], code) for argv, code in commands]


def _input_documents(inputs):
    """(schema name, document) of each valid workload input, family members one by one."""
    yield "subspace", inputs["gibbs"]
    yield "operator", inputs["cphase"]
    for member in inputs["family"]["members"]:
        yield "operator", member
    for name in ("transpose", "repolarizer", "kraus"):
        yield "map", inputs[name]


_ARTIFACT_SCHEMAS = {
    "map": "map",
    "subspace": "subspace",
    "choi": "operator",
    "state": "operator",
    "evolved_true": "operator",
    "evolved_factored": "operator",
}


def _artifact_documents(report):
    """(schema name, document) of each map, subspace and operator a report embeds."""
    for key, doc in report["artifacts"].items():
        if key in _ARTIFACT_SCHEMAS:
            yield _ARTIFACT_SCHEMAS[key], doc
        elif key == "kraus":
            yield from (("operator", op) for op in doc)
        elif key == "representation":
            yield "operator", doc["unitary"]
            yield "subspace", doc["subspace"]
            yield "subspace", doc["target_domain"]


@pytest.fixture
def full_validations(monkeypatch):
    """The list of documents that went through jsonschema's own walk."""
    walked = []
    original = jsonschema.Draft7Validator.iter_errors

    def counting(self, instance, *args, **kwargs):
        walked.append(instance)
        return original(self, instance, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft7Validator, "iter_errors", counting)
    return walked


def _fast_path_accepts(doc, name):
    return serialization._certainly_valid(serialization._validator(name).schema, doc)


def test_valid_documents_skip_the_jsonschema_walk(full_validations):
    validate_document({"dims": [2], "labels": ["s"], "matrix": _I2}, "operator")
    validate_document(emit_subspace(gibbs_subspace()), "subspace")
    validate_document({"dims": [2], "basis": []}, "subspace")
    validate_document(emit_map(repolarizer(0.1)), "map")
    validate_document(_ZERO_DOMAIN_MAP, "map")
    validate_document({"kind": "builtin", "name": "identity", "dim": 3}, "map")
    validate_document({"kind": "builtin", "name": "repolarizer", "epsilon": 1}, "map")
    validate_document(_valid_report(), "report")
    assert full_validations == []


def test_cli_workload_inputs_and_reports_skip_the_jsonschema_walk(
    capsys, tmp_path, full_validations
):
    inputs, commands = _cli_workload(tmp_path, seed=1)
    for name, doc in _input_documents(inputs):
        validate_document(json.loads(json.dumps(doc)), name)
    assert full_validations == []
    for argv, expected in commands:
        code = run_cli(argv)
        out = capsys.readouterr().out
        assert code == expected, argv
        if code == 2:  # the malformed map: jsonschema gives the message
            assert full_validations and out == ""
            full_validations.clear()
            continue
        report = json.loads(out)
        validate_document(report, "report")
        for name, doc in _artifact_documents(report):
            validate_document(doc, name)
        assert full_validations == [], argv


@pytest.mark.parametrize(
    "name,doc",
    [
        ("operator", {"dims": [2.0], "matrix": _I2}),  # jsonschema counts 2.0 as an integer
        ("map", {"kind": "builtin", "name": "identity", "dim": 3.0}),
        ("map", {"kind": "builtin", "name": "repolarizer", "epsilon": np.float64(0.1)}),
        ("map", {"kind": "builtin", "name": "depolarizer", "epsilon": complex(0.1, 0)}),
    ],
)
def test_valid_documents_outside_the_plain_checks_defer_and_pass(name, doc):
    jsonschema.validate(doc, load_schema(name))
    assert not _fast_path_accepts(doc, name)
    validate_document(doc, name)


_KIND_BRANCHES = {
    "oneOf": [
        {"required": ["kind"], "properties": {"kind": {"const": "a"}}},
        {"required": ["kind", "x"], "properties": {"kind": {"const": "b"}}},
        {"required": ["y"]},
    ]
}


@pytest.mark.parametrize(
    "schema,doc,accepted",
    [
        (_KIND_BRANCHES, {"kind": "a", "x": 1}, True),  # the other branches are refuted
        (_KIND_BRANCHES, {"kind": "a", "y": 1}, False),  # two branches match: invalid
        ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3, False),  # both match
        ({"oneOf": [{"type": "number"}, {"type": "string"}]}, 3, False),  # no refutation
        ({"anyOf": [{"type": "string"}, {"type": "number", "minimum": 0}]}, 0.5, True),
        ({"const": 1}, True, False),  # bool is not 1 in JSON Schema
        ({"enum": [1.0, "a"]}, 1, False),  # equal, but not type-exactly: defers
        ({"type": ["integer", "null"]}, None, True),
        ({"maxLength": 1}, "ab", False),  # a keyword outside the supported set
        ({"items": [{"type": "string"}]}, [1], False),  # tuple-form items
        ({"additionalProperties": {"type": "string"}}, {"a": 1}, False),
        ({"type": "array", "items": {"type": "number"}, "maxItems": 2}, [1, 2.5], True),
        ({"type": "object", "properties": {"a": True}}, {"a": 1}, False),  # boolean subschema
        ({"type": "integer", "minimum": 1, "maximum": 16}, 16, True),
        ({"maximum": 16}, 16.0, True),
        ({"maximum": 16}, 17, False),  # invalid
        ({"maximum": 16}, "a", False),  # valid (not a number), but not shown: defers
    ],
)
def test_fast_path_on_schemas_beyond_the_packaged_ones(schema, doc, accepted):
    assert serialization._certainly_valid(schema, doc) is accepted
    if accepted:
        assert jsonschema.Draft7Validator(schema).is_valid(doc)


@functools.cache
def _valid_corpus():
    """(schema name, document) of small valid documents: workload inputs, reports, artifacts.

    Subspaces are cut to two generators and one basis element, and the family
    to two members, to keep the reference walk short.
    """
    docs = [
        ("operator", {"dims": [2], "labels": ["s"], "matrix": _I2}),
        ("subspace", {"dims": [2], "basis": []}),
        ("map", _ZERO_DOMAIN_MAP),
        ("map", {"kind": "builtin", "name": "identity", "dim": 3}),
        ("map", {"kind": "builtin", "name": "repolarizer", "epsilon": 0.1}),
        ("report", _valid_report()),
    ]
    with tempfile.TemporaryDirectory() as workdir:
        inputs, commands = _cli_workload(pathlib.Path(workdir), seed=2)
        for argv, code in commands[:-1]:  # not the malformed map
            with contextlib.redirect_stdout(io.StringIO()) as out:
                run_cli(argv)
            report = json.loads(out.getvalue())
            docs += [("report", report), *_artifact_documents(report)]
    inputs["family"]["members"] = inputs["family"]["members"][:2]
    docs += _input_documents(inputs)

    def shorter(doc):
        cut = {"generators": 2, "basis": 1}
        return {key: value[: cut[key]] if key in cut else value for key, value in doc.items()}

    return [
        (name, json.loads(json.dumps(shorter(doc) if name == "subspace" else doc)))
        for name, doc in docs
    ]


_REPLACEMENTS = [True, False, None, "1", "matrix", 0, 1, 2, 4, -1, 1.0, 0.5, [], {}, [1.0, 0.0]]
_KEYS = [
    "extra", "dims", "labels", "matrix", "generators", "basis", "kind", "name", "dim",
    "epsilon", "t", "operators", "coord_matrix", "provenance", "seed", "residual",
]


@st.composite
def _mutated_documents(draw):
    """A valid corpus document after one to three random edits at random depths.

    Edits: replace a node (a number by a bool, a string, 1.0, None, ...), drop
    or add a key or an item (which changes pair and row lengths), or change the
    top-level ``kind``.  Integers stay at most 4, since ``dims`` and ``dim``
    values size what a parser would allocate.
    """
    def position(node):  # a key of a non-empty dict or an index of a non-empty list
        return draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))

    def replacement():
        return copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))

    name, doc = draw(st.sampled_from(_valid_corpus()))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            parent, key = node, position(node)
            node = parent[key]
        edit = draw(st.sampled_from(["replace", "drop", "add", "kind"]))
        if edit == "replace" and parent is None:
            doc = replacement()
        elif edit == "replace":
            parent[key] = replacement()
        elif edit == "drop" and isinstance(node, (dict, list)) and node:
            del node[position(node)]
        elif edit == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = replacement()
        elif edit == "add" and isinstance(node, list):
            node.append(copy.deepcopy(node[0]) if node else replacement())
        elif edit == "kind" and isinstance(doc, dict):
            doc["kind"] = draw(st.sampled_from(["matrix", "kraus", "builtin", "mystery", 1]))
    return name, doc


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_mutated_documents())
def test_fast_path_agrees_with_jsonschema_on_mutated_documents(case):
    name, doc = case
    expected = _reference_outcome(doc, name)
    if _fast_path_accepts(doc, name):
        assert expected is None
    if expected is None:
        validate_document(doc, name)
    else:
        with pytest.raises(ValueError) as info:
            validate_document(doc, name)
        assert str(info.value) == expected
