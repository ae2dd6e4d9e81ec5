"""Exception hierarchy for the MROM reproduction.

Every error raised by this library derives from :class:`MROMError`, so that
host environments embedding mobile objects can contain *all* model-level
failures with a single ``except MROMError`` — an aspect of the paper's
self-containment requirement: a misbehaving guest object must never take
its host down with an unanticipated exception type.

The hierarchy mirrors the phases of the paper's level-0 invocation
mechanism (Lookup -> Match -> Apply) and the surrounding substrates
(naming, marshaling, mobility, persistence, network).
"""

from __future__ import annotations

import re


class MROMError(Exception):
    """Base class of every error raised by the MROM library."""


# ---------------------------------------------------------------------------
# Structure errors (containers, items, sections)
# ---------------------------------------------------------------------------


class StructureError(MROMError):
    """Base class for errors concerning an object's structure."""


class ItemNotFoundError(StructureError, KeyError):
    """Lookup phase failed: no item with the requested name exists.

    Subclasses ``KeyError`` so container code can participate in ordinary
    Python mapping idioms.
    """

    def __init__(self, name: str, section: str = "any"):
        super().__init__(name)
        self.name = name
        self.section = section

    def __str__(self) -> str:  # KeyError.__str__ would repr() the name
        return f"no item named {self.name!r} (searched section: {self.section})"


class MethodNotFoundError(ItemNotFoundError):
    """Lookup phase failed for a method specifically."""


class DataItemNotFoundError(ItemNotFoundError):
    """Lookup phase failed for a data item specifically."""


class DuplicateItemError(StructureError):
    """An item with the requested name already exists in the object.

    MROM forbids an extensible item shadowing a fixed one: the fixed
    section is the portion of the object "whose structure and behavior is
    always guaranteed to exist" (paper, Section 3), and shadowing would
    silently change guaranteed semantics.
    """

    def __init__(self, name: str, section: str = "unknown"):
        super().__init__(f"item {name!r} already exists in section {section!r}")
        self.name = name
        self.section = section


class FixedSectionError(StructureError):
    """Attempted run-time mutation of the fixed section of an object.

    Items "defined in the fixed section of the object ... may not be
    changed during the object's lifetime" (paper, Section 3).
    """


class SealedContainerError(FixedSectionError):
    """A sealed container rejected an add/remove/replace operation."""


class StaleHandleError(StructureError):
    """An item handle outlived the item it referred to.

    ``getDataItem``/``getMethod`` return handles; if the underlying item is
    deleted or replaced, previously issued handles become stale and any
    ``set*`` through them fails with this error rather than silently
    resurrecting or corrupting the item.
    """


# ---------------------------------------------------------------------------
# Security errors (the Match phase)
# ---------------------------------------------------------------------------


class SecurityError(MROMError):
    """Base class for security failures."""


class AccessDeniedError(SecurityError):
    """Match phase failed: the caller is not on the item's ACL.

    Carries enough context for audit trails without leaking the item's
    internals to the denied caller.
    """

    def __init__(self, caller: str, item: str, permission: str):
        super().__init__(
            f"principal {caller!r} denied {permission!r} on item {item!r}"
        )
        self.caller = caller
        self.item = item
        self.permission = permission


class PolicyViolationError(SecurityError):
    """A host- or guest-level policy refused an operation outright."""


# ---------------------------------------------------------------------------
# Apply-phase errors (pre/body/post)
# ---------------------------------------------------------------------------


class InvocationError(MROMError):
    """Base class for errors raised while applying a method."""


class PreProcedureVeto(InvocationError):
    """The pre-procedure returned False, vetoing the method body.

    "A False return value from pre-procedure prevents from invoking the
    body of the method" (paper, Section 3.1). The veto is surfaced as an
    exception so callers can distinguish a veto from a None-returning body.
    """

    def __init__(self, method: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"pre-procedure vetoed invocation of {method!r}{detail}")
        self.method = method
        self.reason = reason


class PostProcedureError(InvocationError):
    """The post-procedure returned False.

    "a False from a post-procedure raises an exception" (paper, Section
    3.1). The body already ran; this signals a violated post-assertion.
    """

    def __init__(self, method: str, result: object = None, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"post-procedure failed for {method!r}{detail}")
        self.method = method
        self.result = result
        self.reason = reason


class InvocationDepthError(InvocationError):
    """The meta-invoke chain exceeded the configured maximum depth."""


class ProcedureSignatureError(InvocationError):
    """A pre-/post-procedure returned something other than a boolean.

    The paper requires both wrapping procedures to "always return a
    boolean value"; anything else is a programming error we refuse to
    coerce silently.
    """


# ---------------------------------------------------------------------------
# Weak-typing errors
# ---------------------------------------------------------------------------


class TypingError(MROMError):
    """Base class for weak-typing failures."""


class CoercionError(TypingError):
    """Generic coercion between kinds failed for a concrete value."""

    def __init__(self, value: object, target: str, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"cannot coerce {value!r} to kind {target}{detail}"
        )
        self.value = value
        self.target = target


class KindError(TypingError):
    """A value did not conform to its item's declared dynamic kind."""


# ---------------------------------------------------------------------------
# Substrate errors
# ---------------------------------------------------------------------------


class NamingError(MROMError):
    """Decentralized naming failure (unknown name, malformed address...)."""


_GENERATION = re.compile(r"generation=(\d+)")


class StaleLeaseError(NamingError):
    """A client acted on a directory lease the cluster has moved past.

    The serving site compares the lease's placement *generation* against
    its own before touching the object — the MutationClock idiom from
    the invocation cache applied to placement. A mismatch fails fast:
    nothing ran, so the request is safe to re-issue once the client has
    re-resolved. The error carries the refusing side's current
    generation so the client knows how far behind it was; ``generation``
    is embedded in the message text (``generation=N``) because wire
    rebuilds (:func:`error_for_name`) only preserve the message.
    """

    def __init__(
        self,
        message: str = "",
        *,
        name: str = "",
        generation: int | None = None,
    ):
        if not message:
            message = (
                f"stale lease for {name!r}: "
                f"current generation={max(generation or 0, 0)}"
            )
        super().__init__(message)
        self.name = name
        if generation is None:
            match = _GENERATION.search(message)
            generation = int(match.group(1)) if match else 0
        self.generation = generation


class MarshalError(MROMError):
    """The wire format could not encode or decode a value."""


class MobilityError(MROMError):
    """An object could not be packed, transferred or installed."""


class NotPortableError(MobilityError):
    """The object contains native (non-mobile) code and cannot migrate."""

    def __init__(self, obj: str, offenders: tuple[str, ...] = ()):
        names = ", ".join(offenders) if offenders else "<unknown>"
        super().__init__(
            f"object {obj!r} is not portable; native-code items: {names}"
        )
        self.offenders = tuple(offenders)


class TransferUnresolvedError(MobilityError):
    """A two-phase transfer timed out in an ambiguous state.

    The PREPARE may or may not have settled at the destination; the
    local original is still registered (nothing was unregistered without
    a confirmed ACK). :meth:`~repro.mobility.transfer.MobilityManager.reconcile`
    queries the destination and resolves the transfer either way.
    """

    def __init__(self, transfer_id: str, guid: str, dst: str):
        super().__init__(
            f"transfer {transfer_id} of {guid} to {dst!r} is unresolved "
            "(no ACK; reconcile once the destination is reachable)"
        )
        self.transfer_id = transfer_id
        self.guid = guid
        self.dst = dst


class SandboxViolation(MobilityError, SecurityError):
    """Portable code used a construct outside the mobile-code whitelist.

    When raised by the verifier, ``diagnostic`` carries the structured
    :class:`~repro.analysis.diagnostics.Diagnostic` form of the finding
    (rule id, severity, source span) for analysis tooling; ad-hoc raisers
    may leave it None.
    """

    def __init__(self, construct: str, detail: str = "", diagnostic=None):
        extra = f": {detail}" if detail else ""
        super().__init__(f"forbidden construct {construct!r}{extra}")
        self.construct = construct
        self.diagnostic = diagnostic


class PersistenceError(MROMError):
    """The self-contained persistence scheme failed to write or restore."""


class NetworkError(MROMError):
    """Simulated-network failure (unreachable node, partition, timeout)."""


class PartitionError(NetworkError):
    """The destination is unreachable due to a network partition."""


class OverloadError(NetworkError):
    """A site's admission window is full; the request was shed.

    Structured backpressure: the serving site refused the request
    *before* executing it (nothing ran, nothing needs undoing), so a
    caller may safely retry later or route elsewhere. Counted as
    ``site.shed`` in the metrics registry and visible as ``site.shed``
    events in the telemetry stream.
    """


class RequestTimeoutError(NetworkError):
    """A request exhausted its retry budget without a reply.

    Crucially *ambiguous*: at least one attempt reached the wire, so the
    remote side may or may not have executed the request. Callers that
    need exactly-once semantics must resolve the ambiguity out of band
    (the mobility layer does, via ``transfer.query`` reconciliation).
    """


class RemoteInvocationError(NetworkError):
    """A remote invocation failed; wraps the remote error description."""

    def __init__(self, message: str, remote_type: str = ""):
        super().__init__(message)
        self.remote_type = remote_type


# ---------------------------------------------------------------------------
# Concurrency errors
# ---------------------------------------------------------------------------


class ConcurrencyError(MROMError):
    """Base class for synchronization/atomicity failures."""


class TransactionError(ConcurrencyError):
    """An atomic mutation block could not commit and was rolled back."""


class ReentrancyError(ConcurrencyError):
    """An invocation re-entered a non-reentrant object."""


# ---------------------------------------------------------------------------
# Language (MPL) errors
# ---------------------------------------------------------------------------


class MPLError(MROMError):
    """Base class for the MPL mobile-programming-language front end."""


class MPLSyntaxError(MPLError):
    """The MPL source text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class MPLRuntimeError(MPLError):
    """An MPL program failed while executing."""


# ---------------------------------------------------------------------------
# rebuilding remote failures by wire name
# ---------------------------------------------------------------------------


def _registry() -> dict:
    """Every MROMError subclass but the remote ones, keyed by class name."""
    mapping: dict[str, type] = {}
    stack: list[type] = [MROMError]
    while stack:
        cls = stack.pop()
        if "_remote_of" not in vars(cls):
            mapping[cls.__name__] = cls
            stack.extend(cls.__subclasses__())
    return mapping


#: refusals a server issues before executing anything; every client path
#: keeps their type so the caller can back off or re-resolve and retry
_REFUSALS = frozenset(("OverloadError", "StaleLeaseError"))

#: wire name -> the class error_for_name rebuilds it as
_REMOTE_CLASSES: dict[str, type] = {}


def error_for_name(name: str, message: str = "") -> MROMError:
    """Rebuild a remote failure from its wire ``error`` name.

    The reply convention carries failures as ``{error: <type name>,
    message: <text>}``. Every client path gets a
    :class:`RemoteInvocationError` with ``remote_type`` set and the wire
    text, which is also an instance of the named class when that is a
    known :class:`MROMError` (a cached subclass of both, under its name):
    denial, absence and a body's failure stay apart, and apart from a
    lost link. The refusals in :data:`_REFUSALS` keep their own type.
    """
    cls = _REMOTE_CLASSES.get(name)
    if cls is None:
        named = _registry().get(name)
        if named is None:  # not cached: a class defined later may take the name
            cls = RemoteInvocationError
        elif name in _REFUSALS or issubclass(named, RemoteInvocationError):
            cls = _REMOTE_CLASSES[name] = named
        else:
            cls = _REMOTE_CLASSES[name] = type(name, (RemoteInvocationError, named), {
                "__module__": named.__module__, "__qualname__": named.__qualname__,
                "__str__": BaseException.__str__, "_remote_of": named,
            })
    if name in _REFUSALS:
        return cls(message)
    error = cls.__new__(cls)  # the named class's context fields stay behind
    Exception.__init__(error, message)
    error.remote_type = name
    return error
