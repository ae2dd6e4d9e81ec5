"""Security coupled with encapsulation: principals, permissions and ACLs.

The paper's security stance (Sections 1, 3.1):

* "the granularity of access availability should be the single object, as
  opposed to classified as either public, private, or other
  inheritance-related visibility categories" — so each item carries an
  *access control list* naming the individual objects (principals) that
  may use it, rather than a visibility keyword.
* Controlled access serves "both for visibility purposes ... as well as
  for ensuring legitimacy" — encapsulation and security are one mechanism.
* Security checks are applied "on one action only — method invocation"
  (the Match phase); data items are reached through get/set methods, so
  the same ACL machinery covers them.

Principals are identified by their object GUID and belong to a *trust
domain* (a dot-separated hierarchy such as ``technion.ee.dsl``). ACL
entries match a concrete principal, a domain subtree, or everyone, and are
evaluated deny-overrides: any applicable DENY entry beats any ALLOW.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..telemetry import state as _telemetry
from .errors import AccessDeniedError

__all__ = [
    "Permission",
    "Principal",
    "SYSTEM",
    "ANONYMOUS",
    "Decision",
    "AclEntry",
    "AccessControlList",
    "allow_all",
    "deny_all",
    "owner_only",
    "domain_acl",
    "principals_acl",
    "note_match",
]


class Permission(enum.Flag):
    """What an ACL entry grants or denies.

    ``GET``/``SET`` guard value access to data items, ``INVOKE`` guards
    methods, and ``META`` guards the self-changing meta-methods — the
    paper singles out "access to self-changing operations" as the thing a
    mobile object must be able to withhold from its host.
    """

    NONE = 0
    GET = enum.auto()
    SET = enum.auto()
    INVOKE = enum.auto()
    META = enum.auto()
    READ_ONLY = GET
    DATA = GET | SET
    ALL = GET | SET | INVOKE | META


@dataclass(frozen=True)
class Principal:
    """An identity participating in invocations.

    In MROM the callers are themselves objects, so a principal is an
    object GUID plus the trust domain its site belongs to. Principals are
    value objects: equality is by guid and domain.
    """

    guid: str
    domain: str = ""
    display_name: str = ""

    def in_domain(self, domain: str) -> bool:
        """True when this principal's domain is *domain* or a subdomain."""
        if not domain:
            return True
        own = self.domain.split(".") if self.domain else []
        target = domain.split(".")
        return own[: len(target)] == target

    def __str__(self) -> str:
        label = self.display_name or self.guid
        return f"{label}@{self.domain}" if self.domain else label


#: The local runtime itself; passes every ACL check. Used for bootstrap
#: operations the object performs on itself (installing meta-methods,
#: restoring from disk) — the object is always trusted with itself.
SYSTEM = Principal(guid="mrom:system", domain="", display_name="system")

#: A caller that presented no identity; matches only ``EVERYONE`` entries.
ANONYMOUS = Principal(guid="mrom:anonymous", domain="", display_name="anonymous")


class Decision(enum.Enum):
    """Outcome contributed by a single ACL entry."""

    ALLOW = "allow"
    DENY = "deny"


class _SubjectKind(enum.Enum):
    EVERYONE = "everyone"
    DOMAIN = "domain"
    PRINCIPAL = "principal"


@dataclass(frozen=True)
class AclEntry:
    """One rule: *subject* is allowed/denied *permissions*.

    Subject syntax:

    * ``"*"`` — everyone, including anonymous callers.
    * ``"domain:technion.ee"`` — every principal in the domain subtree.
    * any other string — a concrete principal guid.
    """

    subject: str
    permissions: Permission
    decision: Decision = Decision.ALLOW

    def _subject_kind(self) -> _SubjectKind:
        if self.subject == "*":
            return _SubjectKind.EVERYONE
        if self.subject.startswith("domain:"):
            return _SubjectKind.DOMAIN
        return _SubjectKind.PRINCIPAL

    def applies_to(self, principal: Principal) -> bool:
        """True when this entry's subject matches *principal*."""
        kind = self._subject_kind()
        if kind is _SubjectKind.EVERYONE:
            return True
        if kind is _SubjectKind.DOMAIN:
            if principal is ANONYMOUS:
                return False
            return principal.in_domain(self.subject[len("domain:"):])
        return principal.guid == self.subject

    def covers(self, permission: Permission) -> bool:
        """True when this entry speaks about *permission*."""
        return bool(self.permissions & permission)


class AccessControlList:
    """An ordered set of :class:`AclEntry` with deny-overrides semantics.

    The list is the security *and* encapsulation boundary of a single
    item. Evaluation:

    1. :data:`SYSTEM` always passes (the object trusts its own runtime).
    2. If any applicable entry DENYs the permission, access is denied.
    3. Otherwise, if any applicable entry ALLOWs it, access is granted.
    4. Otherwise the default decision applies (deny, unless constructed
       with ``default_allow=True``).
    """

    __slots__ = ("_entries", "_default_allow", "_version")

    def __init__(
        self,
        entries: Iterable[AclEntry] = (),
        default_allow: bool = False,
    ):
        self._entries: list[AclEntry] = list(entries)
        self._default_allow = bool(default_allow)
        # bumped on every in-place edit: cached Match verdicts pin the
        # (acl identity, version) pair and stale out when either moves
        self._version = 0

    # -- construction -----------------------------------------------------

    def copy(self) -> "AccessControlList":
        """An independent copy (entries are immutable, list is not)."""
        return AccessControlList(self._entries, self._default_allow)

    def grant(self, subject: str, permissions: Permission) -> "AccessControlList":
        """Append an ALLOW entry; returns self for chaining."""
        self._entries.append(AclEntry(subject, permissions, Decision.ALLOW))
        self._version += 1
        return self

    def revoke(self, subject: str, permissions: Permission) -> "AccessControlList":
        """Append a DENY entry; returns self for chaining."""
        self._entries.append(AclEntry(subject, permissions, Decision.DENY))
        self._version += 1
        return self

    def remove_subject(self, subject: str) -> int:
        """Drop every entry naming *subject*; returns how many were removed."""
        before = len(self._entries)
        self._entries = [e for e in self._entries if e.subject != subject]
        self._version += 1
        return before - len(self._entries)

    # -- evaluation --------------------------------------------------------

    @property
    def default_allow(self) -> bool:
        return self._default_allow

    @property
    def version(self) -> int:
        """In-place edit count; part of a cached verdict's validity pin."""
        return self._version

    def entries(self) -> tuple[AclEntry, ...]:
        return tuple(self._entries)

    def __iter__(self) -> Iterator[AclEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def permits(self, principal: Principal, permission: Permission) -> bool:
        """Evaluate the list for one (principal, permission) pair."""
        if principal.guid == SYSTEM.guid:
            return True
        allowed = self._default_allow
        for entry in self._entries:
            if not entry.covers(permission) or not entry.applies_to(principal):
                continue
            if entry.decision is Decision.DENY:
                return False
            allowed = True
        return allowed

    def check(self, principal: Principal, permission: Permission, item: str) -> None:
        """Raise :class:`AccessDeniedError` unless access is permitted.

        This is the Match phase of level-0 invocation in callable form.
        """
        allowed = self.permits(principal, permission)
        note_match(principal, item, permission, allowed)
        if not allowed:
            raise AccessDeniedError(str(principal), item, permission.name or "NONE")

    # -- description --------------------------------------------------------

    def describe(self) -> dict:
        """A marshal-friendly description of the list (for packing)."""
        return {
            "default_allow": self._default_allow,
            "entries": [
                {
                    "subject": entry.subject,
                    "permissions": _permission_names(entry.permissions),
                    "decision": entry.decision.value,
                }
                for entry in self._entries
            ],
        }

    @classmethod
    def from_description(cls, description: dict) -> "AccessControlList":
        """Rebuild an ACL from :meth:`describe` output (pack/unpack)."""
        entries = [
            AclEntry(
                subject=raw["subject"],
                permissions=_permissions_from_names(raw["permissions"]),
                decision=Decision(raw["decision"]),
            )
            for raw in description.get("entries", [])
        ]
        return cls(entries, default_allow=bool(description.get("default_allow")))

    def __repr__(self) -> str:
        default = "allow" if self._default_allow else "deny"
        return f"AccessControlList({len(self._entries)} entries, default={default})"


def note_match(
    principal: Principal, item: str, permission: Permission, allowed: bool
) -> None:
    """Telemetry emission for one Match-phase verdict.

    Shared by :meth:`AccessControlList.check` and the compiled
    invocation closures, so a pinned verdict is observably identical to
    a fresh evaluation: same counters, same ``acl.check`` span event.
    """
    tel = _telemetry.ACTIVE
    if tel is None:
        return
    tel.metrics.counter("acl.checks").inc()
    if not allowed:
        tel.metrics.counter("acl.denials").inc()
    span = tel.current_span
    if span is not None:
        span.event(
            "acl.check",
            outcome="allowed" if allowed else "denied",
            principal=principal.guid,
            item=item,
            permission=permission.name or "NONE",
        )


def _permission_names(permissions: Permission) -> list[str]:
    return [
        flag.name
        for flag in (Permission.GET, Permission.SET, Permission.INVOKE, Permission.META)
        if flag.name and permissions & flag
    ]


def _permissions_from_names(names: Iterable[str]) -> Permission:
    result = Permission.NONE
    for name in names:
        result |= Permission[name]
    return result


# ---------------------------------------------------------------------------
# ACL factories — the common policies as one-liners
# ---------------------------------------------------------------------------


def allow_all() -> AccessControlList:
    """Everyone may do everything (a fully public item)."""
    return AccessControlList([AclEntry("*", Permission.ALL)])


def deny_all() -> AccessControlList:
    """Nobody but :data:`SYSTEM` may touch the item."""
    return AccessControlList()


def owner_only(owner: Principal, permissions: Permission = Permission.ALL) -> AccessControlList:
    """Only the owning principal (and SYSTEM) may use the item.

    This is the policy the paper's Ambassadors apply to their meta-methods:
    invisible to, and uninvokable by, the host IOO; usable by the origin.
    """
    return AccessControlList([AclEntry(owner.guid, permissions)])


def domain_acl(domain: str, permissions: Permission = Permission.ALL) -> AccessControlList:
    """Every principal within a trust-domain subtree may use the item."""
    return AccessControlList([AclEntry(f"domain:{domain}", permissions)])


def principals_acl(
    principals: Iterable[Principal],
    permissions: Permission = Permission.ALL,
) -> AccessControlList:
    """An explicit allow-list of principals."""
    return AccessControlList(
        [AclEntry(p.guid, permissions) for p in principals]
    )
