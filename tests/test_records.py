"""The frozen records serialize from their fields: ``as_dict`` keeps each
field, in field order, and the canonical bytes of its output are pinned."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from normex import (
    CertificateReport,
    PsdVerdict,
    ValidationCheck,
    canonical_json,
    element,
    free_abelian,
    make_gallery,
    psd_check,
    validate_rep,
)

RECORDS = [
    psd_check(np.eye(2)),
    ValidationCheck("contractive", False, "max norm excess 1e-3", True),
    CertificateReport("athavale", {"n": (1, 2)}, "pass", 0.5, None,
                      {"tol": 1e-9}, ("a note",)),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_as_dict_keys_are_the_fields_in_order(record):
    assert list(record.as_dict()) == [
        f.name for f in dataclasses.fields(record)]


def test_psd_verdict_as_dict_is_its_fields():
    v = PsdVerdict(False, -0.25, 1e-17, 1e-8)
    assert v.as_dict() == {"is_psd": False, "min_eigenvalue": -0.25,
                           "hermitian_defect": 1e-17,
                           "tolerance_used": 1e-8}


def test_validation_verdict_bytes_are_pinned():
    verdict = validate_rep(make_gallery("normal_pair", seed=3, dim=4))
    assert canonical_json(verdict.as_dict()) == (
        '{"checks":['
        '{"advisory":false,"detail":"max norm excess 0.000e+00",'
        '"name":"contractive","passed":true},'
        '{"advisory":false,"detail":"max commutator residual 9.966e-17",'
        '"name":"commuting","passed":true},'
        '{"advisory":false,"detail":"max relation residual 0.000e+00",'
        '"name":"relations","passed":true},'
        '{"advisory":false,'
        '"detail":"max residual 7.408e-17 over 100 sampled pairs",'
        '"name":"homomorphism_sampled","passed":true}],"ok":true}')


def test_certificate_report_payloads_become_plain_data():
    d = free_abelian(2)
    report = CertificateReport(
        "athavale",
        {"n": element(d, (1, 2)), "q": Fraction(1, 3), "t": (1, (2, 3))},
        "fail", -0.25,
        {"at": element(d, (0, 1)), "x": np.float64(0.1), "i": np.int64(3)},
        {"tol": 1e-9}, ("a", "b"))
    out = report.as_dict()
    assert out["notes"] == ["a", "b"]
    assert type(out["witness"]["x"]) is float
    assert type(out["witness"]["i"]) is int
    assert canonical_json(out) == (
        '{"condition":"athavale","margin":-0.25,"notes":["a","b"],'
        '"parameters":{"n":[1,2],"q":"1/3","t":[1,[2,3]]},'
        '"tolerances":{"tol":1.0000000000000001e-09},"verdict":"fail",'
        '"witness":{"at":[0,1],"i":3,"x":0.10000000000000001}}')
