"""Verdict-container semantics: every failing check vetoes."""

import pytest

from normex import ValidationCheck, ValidationVerdict


def test_ok_requires_all_binding_checks():
    v = ValidationVerdict()
    v.add("a", True, "fine")
    assert v.ok
    v.add("b", False, "broken")
    assert not v.ok
    assert [c.name for c in v.failures] == ["b"]


def test_a_failing_check_vetoes():
    v = ValidationVerdict()
    v.add("binding", True, "fine")
    v.add("broken", False, "worth a look")
    v.add("also", True, "fine")
    assert not v.ok
    assert v.failures == [ValidationCheck("broken", False, "worth a look",
                                          False)]
    assert v.as_dict()["ok"] is False


def test_as_dict_is_json_ready():
    v = ValidationVerdict()
    v.add("a", True, "fine")
    d = v.as_dict()
    assert d["ok"] is True
    assert d["checks"][0] == {"name": "a", "passed": True, "detail": "fine",
                              "advisory": False}


def test_checks_are_frozen():
    c = ValidationCheck("a", True, "fine", False)
    with pytest.raises(AttributeError):
        c.passed = False
