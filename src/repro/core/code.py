"""Method-code carriers: native (local) and portable (mobile) code.

In the paper, "the method class holds MROM method components (body, pre-
and post-procedures) as Java methods"; portability came from JVM
bytecode. Here a method component is a :class:`MethodCode` carrier in one
of two flavours:

* :class:`NativeCode` wraps an ordinary Python callable. Fast, fully
  general — and *not portable*: an object containing native code refuses
  to migrate (see :class:`repro.core.errors.NotPortableError`).
* :class:`PortableCode` carries *source text* verified and compiled by the
  mobile-code sandbox (:mod:`repro.mobility.sandbox`). Portable code is
  what Ambassadors and other mobile objects are made of.

Calling conventions (the weak-typing requirement realized — bodies
receive one array of untyped values):

========  =================================
role      parameters
========  =================================
BODY      ``self, args, ctx``
PRE       ``self, args, ctx`` (returns bool)
POST      ``self, args, result, ctx`` (returns bool)
META      ``self, args, ctx`` (a meta-invoke level; ``ctx.proceed()``)
========  =================================

``self`` is the object facade (:class:`repro.core.mobject.SelfView`),
``args`` the untyped parameter list, ``ctx`` the invocation context.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Mapping

from .errors import MobilityError, NotPortableError, ProcedureSignatureError

__all__ = [
    "CodeRole",
    "MethodCode",
    "NativeCode",
    "PortableCode",
    "as_code",
    "code_from_description",
]


class CodeRole(enum.Enum):
    """Which method component a piece of code implements."""

    BODY = "body"
    PRE = "pre"
    POST = "post"
    META = "meta"

    @property
    def parameters(self) -> tuple[str, ...]:
        if self is CodeRole.POST:
            return ("self", "args", "result", "ctx")
        return ("self", "args", "ctx")


class MethodCode:
    """Abstract carrier of one method component."""

    #: True when this code can be packed and shipped to another site.
    portable: bool = False

    role: CodeRole

    def call(self, *call_args: Any) -> Any:
        """Execute the component with role-appropriate arguments."""
        raise NotImplementedError

    def describe(self) -> dict:
        """A marshal-friendly description (used by pack/unpack)."""
        raise NotImplementedError

    def call_boolean(self, *call_args: Any) -> bool:
        """Execute a pre/post procedure, enforcing the boolean contract.

        The paper: wrapping procedures "always return a boolean value".
        A non-boolean return is a programming error, not a truthiness
        judgement call, so it raises rather than coercing.
        """
        result = self.call(*call_args)
        if not isinstance(result, bool):
            raise ProcedureSignatureError(
                f"{self.role.value}-procedure returned {type(result).__name__}, "
                "expected bool"
            )
        return result


class NativeCode(MethodCode):
    """A method component backed by a local Python callable.

    Useful for host-side objects and for the bundled meta-methods, whose
    level-0 behaviour is deliberately implemented outside the reflective
    tower ("implemented in a more efficient way", Section 3.1).
    """

    __slots__ = ("func", "role", "label")

    portable = False

    def __init__(self, func: Callable, role: CodeRole = CodeRole.BODY, label: str = ""):
        if not callable(func):
            raise TypeError(f"NativeCode requires a callable, got {type(func).__name__}")
        self.func = func
        self.role = role
        self.label = label or getattr(func, "__name__", "<native>")

    def call(self, *call_args: Any) -> Any:
        return self.func(*call_args)

    def describe(self) -> dict:
        return {"flavour": "native", "role": self.role.value, "label": self.label}

    def __repr__(self) -> str:
        return f"NativeCode({self.label!r}, role={self.role.value})"


class PortableCode(MethodCode):
    """A method component carried as verified mobile source text.

    Compilation is lazy and cached: the source is verified and compiled by
    the sandbox on first call (or eagerly via :meth:`compile_now`, which
    installers use to reject hostile code before execution). *bindings*
    are host-supplied names visible to the code — the installation
    context; they are intentionally **not** packed with the code, since a
    new host provides its own.
    """

    __slots__ = ("source", "role", "label", "_compiled", "_bindings")

    portable = True

    def __init__(
        self,
        source: str,
        role: CodeRole = CodeRole.BODY,
        label: str = "",
        bindings: Mapping[str, Any] | None = None,
    ):
        if not isinstance(source, str):
            raise TypeError("PortableCode requires source text")
        self.source = source
        self.role = role
        self.label = label or "<portable>"
        self._bindings = dict(bindings) if bindings else {}
        self._compiled: Callable | None = None

    def compile_now(self) -> None:
        """Verify and compile immediately (idempotent)."""
        if self._compiled is None:
            # local import: keeps core importable without the mobility
            # package at type-checking time and avoids a cycle.
            from ..mobility.sandbox import build_function

            self._compiled = build_function(
                self.source,
                self.role.parameters,
                function_name="portable",
                source_name=self.label,
                extra_bindings=self._bindings,
            )

    def rebind(self, bindings: Mapping[str, Any]) -> None:
        """Replace host bindings (new installation context); recompiles."""
        self._bindings = dict(bindings)
        self._compiled = None

    def call(self, *call_args: Any) -> Any:
        self.compile_now()
        assert self._compiled is not None
        return self._compiled(*call_args)

    def describe(self) -> dict:
        return {
            "flavour": "portable",
            "role": self.role.value,
            "label": self.label,
            "source": self.source,
        }

    def __repr__(self) -> str:
        return f"PortableCode({self.label!r}, role={self.role.value}, {len(self.source)} chars)"


def as_code(
    component: "MethodCode | Callable | str | None",
    role: CodeRole = CodeRole.BODY,
    label: str = "",
) -> MethodCode | None:
    """Coerce the accepted method-component spellings to a carrier.

    * ``None`` stays ``None`` (no pre/post procedure attached);
    * a string is portable source text;
    * a callable is native code;
    * an existing carrier passes through (its role must match).
    """
    if component is None:
        return None
    if isinstance(component, MethodCode):
        if component.role is not role:
            raise MobilityError(
                f"code carrier has role {component.role.value}, expected {role.value}"
            )
        return component
    if isinstance(component, str):
        return PortableCode(component, role=role, label=label)
    if callable(component):
        return NativeCode(component, role=role, label=label)
    raise TypeError(
        f"cannot build method code from {type(component).__name__}"
    )


def code_from_description(description: Mapping) -> MethodCode:
    """Rebuild a carrier from :meth:`MethodCode.describe` output.

    Only portable code can be rebuilt — a native description is a stub
    that names what was lost, and attempting to rebuild it is a
    :class:`~repro.core.errors.NotPortableError`. This is where the
    "self-containment or it does not travel" rule is enforced on the
    receiving side.
    """
    flavour = _described_text(description, "flavour", None)
    role = CodeRole(_described_text(description, "role", "body"))
    label = _described_text(description, "label", "")
    if flavour == "portable":
        return PortableCode(
            _described_text(description, "source", None), role=role, label=label
        )
    if flavour == "native":
        raise NotPortableError("<package>", (label or "<native>",))
    raise MobilityError(f"unknown code flavour {flavour!r}")


def _described_text(description: Mapping, field: str, default: str | None) -> str:
    """A code description's text field. The description may come off the
    wire and is read in place, so a field that is not text (a deferred
    binary cell, say) is refused rather than kept in the carrier."""
    value = description.get(field, default)
    if isinstance(value, str):
        return str(value)
    raise MobilityError(f"code {field} is {type(value).__name__}, not str")
