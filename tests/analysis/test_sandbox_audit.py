"""The sandbox verifier as an analysis front end, and its closed gaps."""

import pytest

from repro.analysis import Severity
from repro.core.errors import SandboxViolation
from repro.mobility.sandbox import (
    SANDBOX_RULES,
    audit_function_body,
    build_function,
    collect_violations,
    validate_source,
)

from tests.mobility.test_sandbox import ACCEPTED, REJECTED

pytestmark = pytest.mark.analysis


class TestCollectMode:
    def test_clean_source_collects_nothing(self):
        assert collect_violations("x = 1\ny = x + 1\n") == []

    def test_all_violations_reported_in_one_pass(self):
        source = "import os\nx = eval('1')\n"
        findings = collect_violations(source)
        assert {d.rule for d in findings} == {
            "sandbox.node-type",
            "sandbox.forbidden-name",
        }
        assert all(d.severity is Severity.ERROR for d in findings)
        assert [d.line for d in findings] == [1, 2]

    def test_syntax_error_is_a_diagnostic_not_an_exception(self):
        [finding] = collect_violations("def broken(:\n")
        assert finding.rule == "sandbox.syntax"

    def test_collected_rules_are_all_registered(self):
        source = (
            "import os\n"
            "eval('x')\n"
            "__boo__ = 1\n"
            "a._hidden\n"
        )
        for finding in collect_violations(source):
            assert finding.rule in SANDBOX_RULES


class TestAuditFunctionBody:
    def test_clean_body_audits_clean(self):
        body = "n = self.get('count')\nself.set('count', n + 1)\nreturn n + 1"
        assert audit_function_body(body, ("self", "args", "ctx")) == []

    def test_lines_refer_to_the_body_not_the_wrapper(self):
        body = "x = 1\nimport os\nreturn x"
        [finding] = audit_function_body(body, ("self", "args", "ctx"))
        assert finding.rule == "sandbox.node-type"
        assert finding.line == 2

    def test_audit_matches_build_function_verdict(self):
        # the audit predicts exactly what the destination rejects
        params = ("self", "args", "ctx")
        for body in (
            "return args[0] + 1",
            "import os\nreturn 1",
            "return getattr(self, 'x')",
            "return ctx['__class__']",
        ):
            audited = audit_function_body(body, params)
            try:
                build_function(body, params)
                built = True
            except SandboxViolation:
                built = False
            assert built == (audited == [])


#: bodies the verifier passes but the compiler refuses
UNCOMPILABLE = ["break", "continue", "nonlocal q"]


@pytest.mark.parametrize(
    "body",
    ACCEPTED + [source for source, _construct in REJECTED] + UNCOMPILABLE
    + ["def broken(:", "x = 1\nbreak", "for i in range(2):\n    continue"],
)
def test_audit_is_clean_exactly_when_the_build_succeeds(body):
    params = ("self", "args", "ctx")
    audited = audit_function_body(body, params)
    try:
        build_function(body, params)
    except SandboxViolation as refusal:
        assert audited, refusal
        assert refusal.diagnostic.rule in {finding.rule for finding in audited}
    else:
        assert audited == []


@pytest.mark.parametrize("body", UNCOMPILABLE)
def test_a_compile_refusal_is_a_syntax_finding_on_the_body_line(body):
    [finding] = audit_function_body(f"x = 1\n{body}", ("self", "args", "ctx"))
    assert finding.rule == "sandbox.syntax"
    assert finding.message.startswith("does not compile")
    assert finding.line == 2


class TestClosedGaps:
    def test_dunder_subscript_rejected(self):
        with pytest.raises(SandboxViolation) as excinfo:
            validate_source("x = ctx['__class__']")
        assert excinfo.value.diagnostic.rule == "sandbox.dunder-subscript"

    def test_dunder_except_alias_rejected(self):
        source = (
            "try:\n"
            "    x = 1\n"
            "except ValueError as __alias__:\n"
            "    pass\n"
        )
        with pytest.raises(SandboxViolation) as excinfo:
            validate_source(source)
        assert excinfo.value.diagnostic.rule == "sandbox.dunder-name"

    def test_dunder_keyword_argument_rejected(self):
        [finding] = collect_violations("f = sorted([1], __key__=1)")
        assert finding.rule == "sandbox.dunder-parameter"

    def test_forbidden_nonlocal_rejected(self):
        source = (
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        nonlocal x\n"
            "        x = 2\n"
            "    inner()\n"
            "    return x\n"
        )
        assert collect_violations(source) == []
        hostile = source.replace("nonlocal x", "nonlocal __x__").replace(
            "x = 1", "__x__ = 1"
        )
        findings = collect_violations(hostile)
        assert "sandbox.dunder-name" in {d.rule for d in findings}

    def test_violation_exception_carries_diagnostic(self):
        with pytest.raises(SandboxViolation) as excinfo:
            validate_source("import os", source_name="probe")
        diagnostic = excinfo.value.diagnostic
        assert diagnostic is not None
        assert diagnostic.rule == "sandbox.node-type"
        assert diagnostic.source == "probe"
        assert diagnostic.line == 1
        # the historical message contract is preserved
        assert "forbidden construct" in str(excinfo.value)
