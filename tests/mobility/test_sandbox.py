"""The mobile-code sandbox: whitelist verification and restricted execution."""

import pytest

from repro.core import SandboxViolation
from repro.mobility import sandbox
from repro.mobility.sandbox import (
    ALLOWED_BUILTINS,
    build_function,
    compile_restricted,
    validate_source,
)


#: the sandbox corpus: sources the verifier accepts, and sources it
#: rejects with the construct its message names
ACCEPTED = [
    "x = 1 + 2",
    "y = [i * i for i in range(10) if i % 2 == 0]",
    "d = {'a': 1}\nd['b'] = 2",
    "def helper(a, b):\n    return a + b\nresult = helper(1, 2)",
    "total = 0\nfor i in range(3):\n    total += i",
    "try:\n    x = 1 / 0\nexcept ZeroDivisionError:\n    x = 0",
    "f = lambda v: v * 2",
    "s = f'{1 + 1} things'",
    "a, b = 1, 2\na, b = b, a",
    "assert 1 < 2, 'math works'",
    "words = sorted({'b', 'a'})",
    "x = obj.attribute if hasattr_like else 0"
    if False
    else "x = 1",  # keep list literal simple
]

REJECTED = [
    ("import os", "Import"),
    ("from os import path", "ImportFrom"),
    ("class Evil:\n    pass", "ClassDef"),
    ("global leak", "Global"),
    ("x = obj._private", "._private"),
    ("x = obj.__dict__", ".__dict__"),
    ("eval('1+1')", "eval"),
    ("exec('x=1')", "exec"),
    ("open('/etc/passwd')", "open"),
    ("__import__('os')", "__import__"),
    ("getattr(obj, 'x')", "getattr"),
    ("type(obj)", "type"),
    ("globals()", "globals"),
    ("x = __name__", "__name__"),
    ("def gen():\n    yield 1", "Yield"),
    ("async def f():\n    pass", "AsyncFunctionDef"),
]


class TestValidateAccepts:
    @pytest.mark.parametrize("source", ACCEPTED)
    def test_accepted(self, source):
        validate_source(source)


class TestValidateRejects:
    @pytest.mark.parametrize("source, construct", REJECTED)
    def test_rejected(self, source, construct):
        with pytest.raises(SandboxViolation) as excinfo:
            validate_source(source)
        assert construct in str(excinfo.value)

    def test_syntax_error_is_violation(self):
        with pytest.raises(SandboxViolation):
            validate_source("def broken(:")

    def test_decorators_rejected(self):
        with pytest.raises(SandboxViolation):
            validate_source("@deco\ndef f():\n    pass")

    def test_underscore_function_name_rejected(self):
        with pytest.raises(SandboxViolation):
            validate_source("def _sneaky():\n    pass")


class TestBuildFunction:
    def test_simple_body(self):
        func = build_function("return args[0] * 2", ["self", "args", "ctx"])
        assert func(None, [21], None) == 42

    def test_empty_body_becomes_pass(self):
        func = build_function("", ["self", "args", "ctx"])
        assert func(None, [], None) is None

    def test_whitelisted_builtins_work(self):
        func = build_function(
            "return sum(sorted(args[0]))", ["self", "args", "ctx"]
        )
        assert func(None, [[3, 1, 2]], None) == 6

    def test_dangerous_builtins_rejected_at_build_time(self):
        for source in ("return open('/tmp/x')", "return breakpoint()"):
            with pytest.raises(SandboxViolation):
                build_function(source, ["self", "args", "ctx"])

    def test_unlisted_name_fails_at_call_time(self):
        # 'bytearray' is neither forbidden nor whitelisted: it verifies,
        # but the restricted namespace does not provide it
        func = build_function("return bytearray(4)", ["self", "args", "ctx"])
        with pytest.raises(NameError):
            func(None, [], None)

    def test_host_bindings_visible(self):
        func = build_function(
            "return tax_rate * args[0]",
            ["self", "args", "ctx"],
            extra_bindings={"tax_rate": 0.17},
        )
        assert func(None, [100], None) == pytest.approx(17.0)

    def test_underscore_binding_rejected(self):
        with pytest.raises(SandboxViolation):
            build_function(
                "return 1", ["self", "args", "ctx"], extra_bindings={"_leak": 1}
            )

    def test_no_module_globals_leak(self):
        func = build_function("return len(args)", ["self", "args", "ctx"])
        globals_names = set(func.__globals__)
        assert "os" not in globals_names
        assert globals_names <= {"__builtins__", "portable"}

    def test_builtins_are_a_copy(self):
        first = build_function("return 1", ["self", "args", "ctx"])
        first.__globals__["__builtins__"]["len"] = None
        second = build_function("return len(args)", ["self", "args", "ctx"])
        assert second(None, [1, 2], None) == 2

    def test_nested_function_closure(self):
        source = (
            "def scale(factor):\n"
            "    def inner(v):\n"
            "        return v * factor\n"
            "    return inner\n"
            "return scale(3)(args[0])"
        )
        func = build_function(source, ["self", "args", "ctx"])
        assert func(None, [7], None) == 21

    def test_exceptions_propagate(self):
        func = build_function("raise ValueError('boom')", ["self", "args", "ctx"])
        with pytest.raises(ValueError, match="boom"):
            func(None, [], None)


def test_allowed_builtins_has_no_escape_hatches():
    for dangerous in ("eval", "exec", "open", "__import__", "getattr", "type"):
        assert dangerous not in ALLOWED_BUILTINS


def test_compile_restricted_returns_code_object():
    code = compile_restricted("x = 1")
    assert code.co_filename == "<portable>"


PARAMS = ["self", "args", "ctx"]


@pytest.mark.usefixtures("verified")
class TestVerifiedCodeCache:
    """compile_restricted verifies and compiles each distinct body once."""

    def test_same_body_is_verified_once(self, verified):
        first = build_function("return args[0] + 1", PARAMS)
        second = build_function("return args[0] + 1", PARAMS)
        assert len(verified) == 1
        assert first.__code__ is second.__code__
        assert second(None, [1], None) == 2

    def test_refusals_are_never_cached(self, verified):
        for _ in range(2):
            with pytest.raises(SandboxViolation):
                build_function("return open('/etc/passwd')", PARAMS)
        assert len(verified) == 2
        assert sandbox._VERIFIED.snapshot() == (0, 0)

    def test_builds_of_one_body_share_no_globals(self):
        body = "return rate * args[0]"
        low = build_function(body, PARAMS, extra_bindings={"rate": 2})
        high = build_function(body, PARAMS, extra_bindings={"rate": 10})
        assert low.__code__ is high.__code__
        assert low.__globals__ is not high.__globals__
        assert low.__globals__["__builtins__"] is not high.__globals__["__builtins__"]
        assert (low(None, [3], None), high(None, [3], None)) == (6, 30)
        low.__globals__["rate"] = 5
        assert high(None, [3], None) == 30

    def test_flood_stays_within_entry_bound(self):
        for n in range(sandbox._VERIFIED.cap + 50):
            build_function(f"return {n}", PARAMS)
        entries, chars = sandbox._VERIFIED.snapshot()
        assert 0 < entries <= sandbox._VERIFIED.cap
        assert chars <= sandbox._VERIFIED.max_chars

    def test_flood_stays_within_character_bound(self):
        # comments keep each body cheap to parse while near the size cap
        filler = "# " + "x" * (sandbox._VERIFIED.body_max_chars - 200)
        bodies = sandbox._VERIFIED.max_chars // len(filler) + 10
        for n in range(bodies):
            build_function(f"{filler}\nreturn {n}", PARAMS)
            entries, chars = sandbox._VERIFIED.snapshot()
            assert chars <= sandbox._VERIFIED.max_chars
            assert entries <= sandbox._VERIFIED.cap
        assert build_function(f"{filler}\nreturn 7", PARAMS)(None, [], None) == 7

    def test_oversized_body_builds_but_is_not_retained(self, verified):
        body = "# " + "x" * sandbox._VERIFIED.body_max_chars + "\nreturn args[0] * 3"
        for _ in range(2):
            assert build_function(body, PARAMS)(None, [5], None) == 15
        assert len(verified) == 2
        assert sandbox._VERIFIED.snapshot() == (0, 0)

    def test_code_names_its_own_label(self, verified):
        first = build_function("return 1", PARAMS, source_name="alpha.install")
        second = build_function("return 1", PARAMS, source_name="beta.install")
        assert first.__code__.co_filename == "alpha.install"
        assert second.__code__.co_filename == "beta.install"
        assert len(verified) == 2
