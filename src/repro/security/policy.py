"""Host and guest policies: the mutual-restriction duality of Section 5.

"not only should the host environment be able to restrict the operation
of the mobile object, the mobile object should also be able to restrict
access by the host environment" (Section 1). The per-item ACLs in
:mod:`repro.core.acl` are the *mechanism*; this module supplies the
*policies* (the paper insists a security model includes "policies, not
only mechanisms"):

* :class:`HostPolicy` — what a site demands of arriving objects. It runs
  at admission time, over the object ``unpack`` builds and *before* any
  guest code executes: size and structure bounds, origin-domain
  allow-lists, name bans, eager sandbox verification of every piece of
  carried code.
* :class:`GuestPolicy` — what an object demands of hosts: which host
  bindings it accepts into its environment, and which domains it is
  willing to be installed in. Applied by the object's ``install`` method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.acl import within_domain
from ..core.errors import MobilityError, PolicyViolationError
from ..core.items import MROMMethod
from ..core.mobject import MROMObject, is_bundled_meta
from ..mobility.package import unpack
from ..net.marshal import Resolve

__all__ = ["HostPolicy", "GuestPolicy"]


@dataclass
class HostPolicy:
    """Admission control for arriving mobile objects.

    Attach to a :class:`~repro.mobility.transfer.MobilityManager` as its
    admission policy: ``MobilityManager(site, policy=HostPolicy(...))``.
    Like every admission policy it unpacks the package once, with the
    receiving site's resolver, judges the object ``unpack`` built, and
    returns that object for installation.

    The default instance is deliberately strict enough to stop the cheap
    attacks (unbounded structure, unverifiable code) while admitting any
    well-formed object from any domain.
    """

    max_items: int = 256
    max_code_bytes: int = 262_144
    allowed_domains: tuple[str, ...] = ()  # empty = any origin domain
    banned_method_names: frozenset = frozenset()
    verify_code_eagerly: bool = True
    max_tower_depth: int = 8

    def __call__(
        self, package: Mapping, src_site: str, resolve: Resolve | None = None
    ) -> MROMObject:
        return self.admit(package, src_site, resolve)

    def admit(
        self, package: Mapping, src_site: str = "", resolve: Resolve | None = None
    ) -> MROMObject:
        """Unpack *package* and return the object, if it is admissible.

        A package ``unpack`` refuses raises its typed
        :class:`~repro.core.errors.MobilityError`; an inadmissible object
        raises :class:`PolicyViolationError`, or the
        :class:`~repro.core.errors.SandboxViolation` of carried code the
        sandbox refuses. No guest code runs. The item and tower bounds
        are read off the package's list lengths first, so an oversized
        package is refused without being built.
        """
        # the bounds first, at the cost of one length read per list:
        # unpack refuses a bundled (native) body, so each packed entry
        # it accepts becomes exactly one counted item or level
        packed = sum(_list_len(package, key) for key in _ITEM_LISTS)
        if packed > self.max_items:
            raise PolicyViolationError(
                f"object carries {packed} items, limit is {self.max_items}"
            )
        levels = _list_len(package, "tower")
        if levels > self.max_tower_depth:
            raise PolicyViolationError(
                f"meta-invoke tower depth {levels} exceeds {self.max_tower_depth}"
            )
        obj = unpack(package, resolve)
        domain = obj.principal.domain
        if self.allowed_domains and not any(
            within_domain(domain, allowed) for allowed in self.allowed_domains
        ):
            raise PolicyViolationError(
                f"origin domain {domain!r} is not in the allow-list"
            )
        items = [
            item
            for item, _category, _section in obj.containers.iter_with_sections()
            if not (isinstance(item, MROMMethod) and is_bundled_meta(item))
        ]
        if len(items) > self.max_items:
            raise PolicyViolationError(
                f"object carries {len(items)} items, limit is {self.max_items}"
            )
        tower = obj.meta_invoke_chain()
        if len(tower) > self.max_tower_depth:
            raise PolicyViolationError(
                f"meta-invoke tower depth {len(tower)} exceeds "
                f"{self.max_tower_depth}"
            )
        for item in items:
            if item.name in self.banned_method_names:
                raise PolicyViolationError(f"item name {item.name!r} is banned here")
        methods = [item for item in items if isinstance(item, MROMMethod)]
        methods += tower
        carried = sum(
            len(component.source.encode("utf-8"))
            for method in methods
            for component in (method.body, method.pre, method.post)
            if component is not None
        )
        if carried > self.max_code_bytes:
            raise PolicyViolationError(
                f"carried code exceeds {self.max_code_bytes} bytes"
            )
        if self.verify_code_eagerly:
            # reject hostile code before it is even installed, not merely
            # before it runs; a body the sandbox verified before costs a
            # lookup, and the object keeps the compiled code
            for method in methods:
                method.verify()
        return obj


#: the package fields that each hold one entry per item
_ITEM_LISTS = ("fixed_data", "fixed_methods", "ext_data", "ext_methods")


def _list_len(package: Mapping, key: str) -> int:
    """The length of the package's *key* list (absent: 0)."""
    try:
        entries = package.get(key, [])
    except AttributeError:
        raise MobilityError("malformed package: not a mapping") from None
    if not isinstance(entries, list):
        raise MobilityError(f"malformed package: {key!r} is not a list")
    return len(entries)


@dataclass
class GuestPolicy:
    """The mobile object's demands toward hosts.

    Used inside ``install`` methods: the host's installation context is
    filtered to *accepted_bindings*, and installation in a domain outside
    *trusted_domains* is refused (the object simply raises, and the
    transfer fails — it never settles on an untrusted host).
    """

    accepted_bindings: tuple[str, ...] = ()
    trusted_domains: tuple[str, ...] = ()  # empty = trust any host

    def check_host(self, host_domain: str) -> None:
        if self.trusted_domains and not any(
            within_domain(host_domain, trusted) for trusted in self.trusted_domains
        ):
            raise PolicyViolationError(
                f"guest refuses installation in domain {host_domain!r}"
            )

    def filter_bindings(self, offered: Mapping) -> dict:
        """Keep only the host bindings the object agreed to accept."""
        if not self.accepted_bindings:
            return {}
        return {
            name: value
            for name, value in offered.items()
            if name in self.accepted_bindings
        }
