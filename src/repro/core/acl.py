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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .. import probes as _probes
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
    "remote_principal",
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

_SYSTEM_GUID = SYSTEM.guid


def remote_principal(guid: str, domain: str = "", display_name: str = "") -> Principal:
    """The principal a remote caller claims to be.

    :data:`SYSTEM` is this runtime itself and passes every ACL, deny
    entries included, so no peer may claim it: the claim is refused with
    :class:`AccessDeniedError` before a handler touches any object.
    """
    if guid == _SYSTEM_GUID:
        raise AccessDeniedError(guid, "remote caller identity", "SYSTEM")
    return Principal(guid=guid, domain=domain, display_name=display_name)


class Decision(enum.Enum):
    """Outcome contributed by a single ACL entry."""

    ALLOW = "allow"
    DENY = "deny"


# Match runs on plain ints. ``Permission`` is the public type, but Flag
# arithmetic costs a class lookup and a pseudo-member construction per
# ``&``; every ACL entry carries its mask as an int (computed once, at
# construction) and every evaluation below tests ints only.

#: Permission bits as ints, for callers on the Match hot path.
GET_BIT = Permission.GET._value_
SET_BIT = Permission.SET._value_
INVOKE_BIT = Permission.INVOKE._value_
META_BIT = Permission.META._value_
ALL_BITS = Permission.ALL._value_

_SINGLE_PERMISSIONS = (Permission.GET, Permission.SET, Permission.INVOKE, Permission.META)

#: mask -> the names of its single permissions, in declaration order
#: (what :meth:`AccessControlList.describe` writes), one row per mask
_NAMES_OF_MASK = tuple(
    tuple(p.name for p in _SINGLE_PERMISSIONS if mask & p._value_)
    for mask in range(ALL_BITS + 1)
)
#: mask -> its Permission, one row per mask
_PERMISSION_OF_MASK = tuple(Permission(mask) for mask in range(ALL_BITS + 1))
#: every member name, aliases included -> its mask
_MASK_OF_NAME = {name: p._value_ for name, p in Permission.__members__.items()}
_DENY = Decision.DENY

# subject kinds, resolved once per entry
_EVERYONE, _DOMAIN, _PRINCIPAL = 0, 1, 2


@dataclass(frozen=True, slots=True)
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
    # the evaluation form, set by __post_init__ and kept out of the
    # constructor, equality, hash and repr: int mask, deny flag, decision
    # string, subject kind and domain pattern, so Match never re-parses
    # the subject or touches a Flag
    _mask: int = field(init=False, repr=False, compare=False)
    _deny: bool = field(init=False, repr=False, compare=False)
    _decision_value: str = field(init=False, repr=False, compare=False)
    _kind: int = field(init=False, repr=False, compare=False)
    _domain: str = field(init=False, repr=False, compare=False)
    _domain_prefix: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subject = self.subject
        domain = ""
        if subject == "*":
            kind = _EVERYONE
        elif subject.startswith("domain:"):
            kind = _DOMAIN
            domain = subject[len("domain:"):]
        else:
            kind = _PRINCIPAL
        init = object.__setattr__
        init(self, "_mask", self.permissions._value_)
        init(self, "_deny", self.decision is _DENY)
        init(self, "_decision_value", self.decision._value_)
        init(self, "_kind", kind)
        # every domain starts with the empty pattern's prefix "", so
        # "domain:" covers every non-anonymous principal
        init(self, "_domain", domain)
        init(self, "_domain_prefix", domain + "." if domain else "")

    def applies_to(self, principal: Principal) -> bool:
        """True when this entry's subject matches *principal*."""
        kind = self._kind
        if kind == _PRINCIPAL:
            return principal.guid == self.subject
        if kind == _EVERYONE:
            return True
        if principal is ANONYMOUS:
            return False
        domain = principal.domain
        return domain == self._domain or domain.startswith(self._domain_prefix)

    def covers(self, permission: Permission) -> bool:
        """True when this entry speaks about *permission*."""
        return bool(self._mask & permission._value_)


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
        """Evaluate the list for one (principal, permission) pair.

        A composite *permission* is permitted when no applicable DENY
        entry shares a bit with it and an applicable ALLOW entry (or the
        default) does.
        """
        return self.allows(principal, permission._value_)

    def allows(self, principal: Principal, bits: int) -> bool:
        """:meth:`permits` for a permission given as an int mask."""
        if principal.guid == _SYSTEM_GUID:
            return True
        allow, deny = self._masks(principal)
        if deny & bits:
            return False
        return self._default_allow or bool(allow & bits)

    def mask_for(self, principal: Principal) -> int:
        """The int mask of the single permissions *principal* holds.

        Bit by bit this is :meth:`permits` (deny-overrides, then the
        default), in one pass over the list; :data:`SYSTEM` holds every
        bit.
        """
        if principal.guid == _SYSTEM_GUID:
            return ALL_BITS
        allow, deny = self._masks(principal)
        if self._default_allow:
            allow = ALL_BITS
        return allow & ~deny

    def _masks(self, principal: Principal) -> tuple[int, int]:
        """The union of the ALLOW and of the DENY masks of every entry
        that applies to *principal* (:meth:`AclEntry.applies_to`,
        inlined: this loop is the whole of a cold Match)."""
        guid = principal.guid
        domain = None
        allow = deny = 0
        for entry in self._entries:
            kind = entry._kind
            if kind == _PRINCIPAL:
                if entry.subject != guid:
                    continue
            elif kind == _DOMAIN:
                if domain is None:
                    if principal is ANONYMOUS:
                        continue
                    domain = principal.domain
                if domain != entry._domain and not domain.startswith(
                    entry._domain_prefix
                ):
                    continue
            if entry._deny:
                deny |= entry._mask
            else:
                allow |= entry._mask
        return allow, deny

    def check(self, principal: Principal, permission: Permission, item: str) -> None:
        """Raise :class:`AccessDeniedError` unless access is permitted.

        This is the Match phase of level-0 invocation in callable form.
        """
        allowed = self.allows(principal, permission._value_)
        probe = _probes.ACTIVE
        if probe is not None:
            probe.acl_check(principal, item, permission, allowed)
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
                    "permissions": list(_NAMES_OF_MASK[entry._mask]),
                    "decision": entry._decision_value,
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


def _permissions_from_names(names: Iterable[str]) -> Permission:
    mask = 0
    for name in names:
        mask |= _MASK_OF_NAME[name]
    return _PERMISSION_OF_MASK[mask]


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
