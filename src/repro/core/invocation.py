"""Method invocation: the level-0 primitive and the meta-invoke tower.

"Altogether, the basic method invocation mechanism consists of three
phases: 1. Lookup — locate and fetch a method's handle. 2. Match — match
security information. 3. Apply — invoke the operation on the method,
consisting of the following phases: 3.1 Pre-proc, 3.2 Body, 3.3
Post-proc." (Section 3.1.)

Level 0 is deliberately *non-reflective*: its representation "is not
visible ... is not accommodated for change, and can be implemented in a
more efficient way" — here, plain Python control flow with no dynamic
dispatch through the model itself. Reflective modification of invocation
happens by stacking *meta-invoke levels* above it (Figure 1): each level
is an ordinary MROM method (with its own ACL and pre/post procedures)
whose body receives the pending target invocation through an
:class:`InvocationContext` and forwards it downward with
:meth:`InvocationContext.proceed`. Level 0 is "the stopping condition of
the recursive invocation mechanism".

Tracing: every invocation can produce an :class:`InvocationRecord`, a
structured trace of (level, phase) events. The records are what the
FIG-1 reproduction prints, and what the audit machinery in
:mod:`repro.security` consumes.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .. import probes as _probes
from .acl import INVOKE_BIT, Permission, Principal
from .errors import (
    InvocationDepthError,
    MethodNotFoundError,
    PostProcedureError,
    PreProcedureVeto,
)
from .code import PortableCode
from .fastpath import COMPILED_STALE, InvocationCache
from .items import MROMMethod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .mobject import MROMObject

__all__ = [
    "Phase",
    "TraceEvent",
    "InvocationRecord",
    "InvocationContext",
    "Invoker",
    "compile_invocation",
    "MAX_META_LEVELS",
]

#: Upper bound on the meta-invoke tower. The paper: "nothing in the model
#: prevents the creation of arbitrary levels of invocation, although we
#: have not encountered yet practical situations that demanded more than
#: two". We allow plenty, but bound it to fail fast on accidental cycles.
MAX_META_LEVELS = 32

# read once: every ``Permission.INVOKE`` lookup is a Python-level call
_INVOKE = Permission.INVOKE

_is_bundled_meta = None  # bound by the first compile (Invoker._compile)


class Phase(enum.Enum):
    """The phases of the level-0 invocation mechanism."""

    LOOKUP = "lookup"
    MATCH = "match"
    PRE = "pre"
    BODY = "body"
    POST = "post"


@dataclass(frozen=True)
class TraceEvent:
    """One step of an invocation: which phase ran at which level."""

    level: int
    phase: Phase
    method: str
    note: str = ""

    def __str__(self) -> str:
        note = f" ({self.note})" if self.note else ""
        return f"L{self.level} {self.phase.value:<6} {self.method}{note}"


@dataclass
class InvocationRecord:
    """A structured trace of one top-level invocation."""

    method: str
    caller: str
    events: list[TraceEvent] = field(default_factory=list)
    outcome: str = "pending"  # "ok" | "veto" | "error" | "pending"

    def log(self, level: int, phase: Phase, method: str, note: str = "") -> None:
        self.events.append(TraceEvent(level, phase, method, note))

    def phases_at_level(self, level: int) -> list[Phase]:
        return [event.phase for event in self.events if event.level == level]

    def levels(self) -> list[int]:
        seen: list[int] = []
        for event in self.events:
            if event.level not in seen:
                seen.append(event.level)
        return seen

    def render(self) -> str:
        """Human-readable trace, one event per line (used by examples)."""
        header = f"invoke {self.method!r} by {self.caller} -> {self.outcome}"
        return "\n".join([header] + [f"  {event}" for event in self.events])


class InvocationContext:
    """What a method body (or meta-invoke body) sees about the invocation.

    For an ordinary body, the context is descriptive: target name, caller,
    level (always 0), the trace record, and the host-provided environment
    bindings (the *installation context* a migrating object received).

    For a meta-invoke body at level *k*, the context is also operative:
    :meth:`proceed` continues the invocation at level *k-1*, ultimately
    reaching the level-0 primitive. A meta level that never calls
    ``proceed`` has absorbed the invocation (e.g. the database-shutdown
    Ambassadors of Section 5 answer every query with a maintenance notice
    without ever reaching the original bodies).
    """

    __slots__ = ("invoker", "caller", "method_name", "args", "level", "record")

    def __init__(
        self,
        invoker: "Invoker",
        caller: Principal,
        method_name: str,
        args: Sequence[Any],
        level: int,
        record: InvocationRecord,
    ):
        self.invoker = invoker
        self.caller = caller
        self.method_name = method_name
        self.args = list(args)
        self.level = level
        self.record = record

    @property
    def target(self) -> str:
        """Alias: the name of the method ultimately being invoked."""
        return self.method_name

    @property
    def env(self) -> dict:
        """Host-supplied installation-context bindings."""
        return self.invoker.obj.environment

    def proceed(self) -> Any:
        """Continue the invocation one level down (meta levels only)."""
        return self.invoker.descend(self)

    def __repr__(self) -> str:
        return (
            f"InvocationContext(method={self.method_name!r}, "
            f"level={self.level}, caller={self.caller.guid})"
        )


class Invoker:
    """The invocation engine bound to one MROM object.

    Owns no state beyond its object reference; all structure lives in the
    object's containers and meta-invoke chain, so replacing/augmenting the
    chain at run time (meta-mutability) immediately affects dispatch.
    It is built per cold call and per ``invoke_primitive``, never stored
    on the object, so an object that was never invoked holds no
    reference to itself.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: "MROMObject"):
        self.obj = obj

    # -- public entry -----------------------------------------------------

    def invoke(
        self,
        caller: Principal,
        method_name: str,
        args: Sequence[Any] = (),
    ) -> Any:
        """The cold step of ``MROMObject.invoke``, which found no live
        closure: discard a stale one and compile, or enter the tower at
        its top level (directly at level 0 when no tower exists)."""
        obj = self.obj
        # Compiled dispatch is gated on an empty meta tower: installing a
        # meta-invoke level does not move the mutation clock, so the
        # generation pin alone could not keep a closure from bypassing a
        # freshly stacked level.
        cache = obj._fastpath
        if cache is not None and not obj._meta_invokes:
            key = (caller.guid, caller.domain, method_name)
            cache.discard_compiled(key)  # a stale closure; a miss has none
            fn = self._compile(caller, method_name, cache)
            if fn is not None:
                cache.store_compiled(key, fn)
                return fn(caller, args, hit=False)
        chain = obj.meta_invoke_chain()
        if len(chain) > MAX_META_LEVELS:
            raise InvocationDepthError(
                f"meta-invoke tower of depth {len(chain)} exceeds "
                f"MAX_META_LEVELS={MAX_META_LEVELS}"
            )
        record = InvocationRecord(method=method_name, caller=caller.guid)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.invoke_begin(self.obj.guid, method_name, caller.guid, len(chain), False)
        try:
            if chain:
                result = self._run_meta_level(
                    len(chain), caller, method_name, args, record
                )
            else:
                result = self.invoke_primitive(caller, method_name, args, record)
        except PreProcedureVeto:
            record.outcome = "veto"
            self.obj.note_invocation(record)
            if probe is not None:
                probe.invoke_end("veto")
            raise
        except Exception as exc:
            record.outcome = "error"
            self.obj.note_invocation(record)
            if probe is not None:
                probe.invoke_end("error", exc)
            raise
        record.outcome = "ok"
        self.obj.note_invocation(record)
        if probe is not None:
            probe.invoke_end("ok")
        return result

    # -- the meta tower -----------------------------------------------------

    def descend(self, ctx: InvocationContext) -> Any:
        """``ctx.proceed()``: continue at the next level down."""
        next_level = ctx.level - 1
        if next_level < 0:
            raise InvocationDepthError("cannot proceed below level 0")
        if next_level == 0:
            return self.invoke_primitive(
                ctx.caller, ctx.method_name, ctx.args, ctx.record
            )
        return self._run_meta_level(
            next_level, ctx.caller, ctx.method_name, ctx.args, ctx.record
        )

    def _run_meta_level(
        self,
        level: int,
        caller: Principal,
        method_name: str,
        args: Sequence[Any],
        record: InvocationRecord,
    ) -> Any:
        """Run the meta-invoke method at *level* under level-0 mechanics.

        The meta-invoke method is itself an MROM method: it is security-
        matched against the original caller and wrapped by its own pre-
        and post-procedures — "the method Mfoo is sent as a parameter to
        meta_invoke, and is later invoked by it (following level 0
        invocation)" (Figure 1).
        """
        meta_method = self.obj.meta_invoke_at(level)
        ctx = InvocationContext(self, caller, method_name, args, level, record)
        return self._apply_with_match(meta_method, caller, list(args), ctx, level)

    # -- level 0: the primitive ------------------------------------------------

    def invoke_primitive(
        self,
        caller: Principal,
        method_name: str,
        args: Sequence[Any],
        record: InvocationRecord | None = None,
    ) -> Any:
        """The level-0 invocation mechanism: Lookup -> Match -> Apply.

        This is the interpreted reference path. It serves objects without
        an invocation cache, the meta tower, and every call a closure may
        not serve (denials, unknown names, meta-methods); compiled
        closures are held to its observables by
        tests/core/test_fastpath_differential.
        """
        if record is None:
            record = InvocationRecord(method=method_name, caller=caller.guid)
        # Phase 1: Lookup — locate and fetch the method's handle.
        method, section = self.obj.containers.lookup_method(method_name)
        record.log(0, Phase.LOOKUP, method_name, section)
        ctx = InvocationContext(self, caller, method_name, args, 0, record)
        return self._apply_with_match(method, caller, list(args), ctx, 0)

    def _apply_with_match(
        self,
        method: MROMMethod,
        caller: Principal,
        args: list,
        ctx: InvocationContext,
        level: int,
    ) -> Any:
        record = ctx.record
        # Phase 2: Match — match security information. An object always
        # trusts itself with itself (self-containment): its own principal
        # bypasses the ACL, everyone else is checked.
        if caller.guid != self.obj.guid:
            method.check(caller, Permission.INVOKE)
            record.log(level, Phase.MATCH, method.name, "checked")
        else:
            record.log(level, Phase.MATCH, method.name, "self")

        self_view = self.obj.self_view()

        # Phases 3.1-3.3 must stay in lockstep with the compiled mirror
        # in compile_invocation below: any change to the events, errors
        # or telemetry here is an observable and must be replicated
        # there (the differential harness will catch a drift).

        # Phase 3.1: Pre-proc.
        if method.pre is not None:
            approved = method.pre.call_boolean(self_view, args, ctx)
            record.log(level, Phase.PRE, method.name, "ok" if approved else "veto")
            if not approved:
                raise PreProcedureVeto(method.name)

        # Phase 3.2: Body — transfer control to the body of the method.
        result = method.body.call(self_view, args, ctx)
        record.log(level, Phase.BODY, method.name)

        # Phase 3.3: Post-proc.
        if method.post is not None:
            accepted = method.post.call_boolean(self_view, args, result, ctx)
            record.log(level, Phase.POST, method.name, "ok" if accepted else "failed")
            if not accepted:
                raise PostProcedureError(method.name, result=result)

        return result

    # -- level 0: the cold step ------------------------------------------------

    def _compile(self, caller: Principal, method_name: str, cache: InvocationCache):
        """Lookup and Match once, then specialize the (caller, method) pair.

        Returns None when the call must take the general path instead: an
        unknown name, a meta-method (its body is the reflective machinery
        itself and stays interpreted) or a caller the ACL denies. The
        general path then raises and audits exactly as an uncached object
        does. Match is evaluated with ``acl.allows``, which leaves no audit
        trail; the closure emits the call's one ``acl.check`` when it
        runs, so a closure can pin the verdict without ever converting a
        denial into access, and a first call audits exactly once.
        """
        global _is_bundled_meta
        if _is_bundled_meta is None:  # mobject imports this module: bind once
            from .mobject import is_bundled_meta as _is_bundled_meta

        obj = self.obj
        try:
            method, section = obj.containers.lookup_method(method_name)
        except MethodNotFoundError:
            return None
        if _is_bundled_meta(method):
            return None
        if caller.guid != obj.guid and not method.acl.allows(caller, INVOKE_BIT):
            return None
        return compile_invocation(self, method, section, caller, cache)


# ---------------------------------------------------------------------------
# invocation compilation: Lookup -> Match -> Apply as one specialized closure
# ---------------------------------------------------------------------------


def _uses_ctx(carrier) -> bool:
    """Whether a method component can observe the InvocationContext.

    Portable source that never names ``ctx`` cannot reach it (the
    sandbox exposes no other route to the context), so the closure may
    skip allocating one. Native code is opaque: assume it looks.
    """
    if carrier is None:
        return False
    source = getattr(carrier, "source", None)
    if source is None:
        return True  # native code: no visibility, assume the worst
    return "ctx" in source


#: ``TraceEvent(0, phase, method, note)``, shared by every closure
#: compiled for that method; bounded, so ever new method names cannot
#: grow it (always called with four positional arguments: one key each)
_event = functools.lru_cache(maxsize=4096)(TraceEvent)


def compile_invocation(
    invoker: Invoker,
    method: MROMMethod,
    section: str,
    caller: Principal,
    cache: InvocationCache,
):
    """Emit a specialized closure for one allowed (caller, method) pair.

    For one (object generation, method, caller) triple the method handle,
    the section label, the ALLOW verdict and the trace events are all
    pinned here, so a call is a guard check plus the Apply phase. The
    returned ``fn(live_caller, args, hit=True)`` either performs the
    complete invocation — record, telemetry, pre/body/post, outcome —
    with observables identical to :meth:`Invoker.invoke` on an uncached
    object, or returns :data:`~repro.core.fastpath.COMPILED_STALE`
    untouched when a pin fails. *hit* is False only for the call that
    built the closure, which is not counted as a compiled hit.

    After an in-place ACL edit (the clock held) the closure re-runs
    Match on the live list and re-pins for a caller still allowed (or
    itself), serving a miss counted as a rebuild; a denied caller, or a
    full closure a rebuild would now make lean, gets ``COMPILED_STALE``.

    A method without pre/post procedures whose body cannot see its
    context, compiled while the telemetry plane is off and the object is
    not tracing, gets the *lean* closure instead. It runs the body alone
    and leaves its success trace for :attr:`MROMObject.last_record` to
    build when read. Either switch turning on is one more pin: the
    closure answers ``COMPILED_STALE`` and the next compile is full.

    The caller must already have established that the verdict is ALLOW
    and that *method* is not a meta-method.
    """
    obj = invoker.obj
    clock = obj.containers.clock
    generation = clock.value
    acl = method.acl
    acl_version = acl._version

    name = method.name
    obj_guid = obj.guid
    caller_guid = caller.guid
    is_self = caller_guid == obj_guid
    self_view = obj.self_view()
    note_invocation = obj.note_invocation

    pre = method.pre
    post = method.post
    pre_call = pre.call_boolean if pre is not None else None
    body_call = method.body.call
    post_call = post.call_boolean if post is not None else None
    needs_ctx = (
        _uses_ctx(method.body) or _uses_ctx(pre) or _uses_ctx(post)
    )

    # the trace is known at compile time up to data-dependent branches:
    # pin one frozen event per (phase, outcome) and append by reference
    ev_lookup = _event(0, Phase.LOOKUP, name, section)
    ev_match = _event(0, Phase.MATCH, name, "self" if is_self else "checked")
    ev_body = _event(0, Phase.BODY, name, "")
    ev_pre_ok = _event(0, Phase.PRE, name, "ok") if pre is not None else None
    ev_pre_veto = _event(0, Phase.PRE, name, "veto") if pre is not None else None
    ev_post_ok = _event(0, Phase.POST, name, "ok") if post is not None else None
    ev_post_failed = _event(0, Phase.POST, name, "failed") if post is not None else None
    if (
        pre is None
        and post is None
        and not needs_ctx
        and _probes.ACTIVE is None
        and not obj._tracing
    ):
        # the lean shape: with every plane off and the object not tracing,
        # a call's only observables are its result or error, the hit
        # counter and the record; its success record is pinned here as
        # (method, caller, *events)
        ok_trace = (name, caller_guid, ev_lookup, ev_match, ev_body)
        portable = method.body if isinstance(method.body, PortableCode) else None

        def lean_invoke(live_caller, args, hit=True):
            nonlocal acl_version
            if (
                clock.value != generation
                or _probes.ACTIVE is not None
                or obj._tracing
            ):
                return COMPILED_STALE
            if acl._version != acl_version:
                if not (is_self or acl.allows(live_caller, INVOKE_BIT)):
                    return COMPILED_STALE
                acl_version = acl._version
                cache.rematched((live_caller.guid, live_caller.domain, name))
                hit = False
            if hit:
                cache.compiled_hits += 1
            try:
                # a built portable body is called straight (read per
                # call, so a rebind still holds)
                built = portable._compiled if portable is not None else None
                result = (built or body_call)(self_view, list(args), None)
            except PreProcedureVeto:
                note_invocation(
                    InvocationRecord(name, caller_guid, [ev_lookup, ev_match], "veto")
                )
                raise
            except Exception:
                note_invocation(
                    InvocationRecord(name, caller_guid, [ev_lookup, ev_match], "error")
                )
                raise
            obj._last_record = ok_trace
            return result

        return lean_invoke

    def compiled_invoke(live_caller, args, hit=True):
        nonlocal acl_version
        # -- guards: the two pins, re-checked every call
        if clock.value != generation:
            return COMPILED_STALE
        if acl._version != acl_version:
            if not (is_self or acl.allows(live_caller, INVOKE_BIT)) or (
                # a rebuild now would pick the lean shape
                pre_call is None and post_call is None and not needs_ctx
                and _probes.ACTIVE is None and not obj._tracing
            ):
                return COMPILED_STALE
            acl_version = acl._version
            cache.rematched((live_caller.guid, live_caller.domain, name))
            hit = False
        if hit:
            cache.compiled_hits += 1
        record = InvocationRecord(method=name, caller=caller_guid)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.invoke_begin(obj_guid, name, caller_guid, 0, hit)
        try:
            events = record.events
            events.append(ev_lookup)
            if not is_self and probe is not None:
                # the Match phase stays observable: the same point a
                # fresh ACL evaluation fires
                probe.acl_check(live_caller, name, _INVOKE, True)
            events.append(ev_match)
            body_args = list(args)
            ctx = (
                InvocationContext(invoker, live_caller, name, args, 0, record)
                if needs_ctx
                else None
            )
            if pre_call is not None:
                approved = pre_call(self_view, body_args, ctx)
                events.append(ev_pre_ok if approved else ev_pre_veto)
                if not approved:
                    raise PreProcedureVeto(name)
            result = body_call(self_view, body_args, ctx)
            events.append(ev_body)
            if post_call is not None:
                accepted = post_call(self_view, body_args, result, ctx)
                events.append(ev_post_ok if accepted else ev_post_failed)
                if not accepted:
                    raise PostProcedureError(name, result=result)
        except PreProcedureVeto:
            record.outcome = "veto"
            note_invocation(record)
            if probe is not None:
                probe.invoke_end("veto")
            raise
        except Exception as exc:
            record.outcome = "error"
            note_invocation(record)
            if probe is not None:
                probe.invoke_end("error", exc)
            raise
        record.outcome = "ok"
        note_invocation(record)
        if probe is not None:
            probe.invoke_end("ok")
        return result

    return compiled_invoke
