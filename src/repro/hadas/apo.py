"""APOs — APplication Objects: legacy applications as MROM citizens.

"*Home*: A container whose data-items are APplication Objects (APOs)
that encapsulate real applications, both legacy and native-HADAS."
(Section 5.) An :class:`APO` wraps a plain Python application behind an
MROM facade:

* the facade's *fixed* section carries identity and administrative core;
* every exported operation lives in the *extensible* section — the
  paper's stated methodology ("place interface-related functionality in
  the extensible section, which then can be adjusted to the interface
  requirements of the object with which it interacts");
* the facade's methods are native code (APOs do not migrate — their
  *Ambassadors* do, see :mod:`repro.hadas.ambassador`).

The APO is also the **origin** of its Ambassadors: it mints them, deploys
them, remembers them, and is the only principal their meta-methods admit.
Dynamic updates — pushing methods, data, or a new invocation semantics to
every deployed Ambassador — go through :meth:`APO.broadcast`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.acl import AccessControlList, Principal, allow_all, owner_only, within_domain
from ..core.errors import PolicyViolationError
from ..core.items import MROMMethod
from ..core.mobject import MROMObject, is_bundled_meta
from ..net.rmi import RemoteRef
from ..net.site import Site

__all__ = ["APO"]


class APO:
    """One integrated application at one site."""

    def __init__(
        self,
        site: Site,
        name: str,
        app: Any,
        doc: str = "",
        allowed_importers: Iterable[str] = (),
    ):
        self.site = site
        self.name = name
        self.app = app
        #: site ids / trust-domain prefixes allowed to Import this APO's
        #: Ambassadors; empty means anyone.
        self.allowed_importers = tuple(allowed_importers)
        self.deployed: dict[str, RemoteRef] = {}  # ambassador guid -> ref
        self.facade = site.create_object(
            display_name=f"apo:{name}",
            owner=site.principal,
            extensible_meta=True,
            meta_acl=owner_only(site.principal),
        )
        self.facade.define_fixed_data(
            "application", name, metadata={"doc": doc or f"APO for {name}"}
        )
        self.facade.seal()
        site.register_object(self.facade, name=f"apos/{name}")

    @property
    def principal(self) -> Principal:
        """The APO's identity — the owner of all its Ambassadors."""
        return self.facade.principal

    @property
    def guid(self) -> str:
        return self.facade.guid

    # ------------------------------------------------------------------
    # integration: exposing application operations
    # ------------------------------------------------------------------

    def expose(
        self,
        operation: str,
        implementation: Callable[..., Any],
        doc: str = "",
        params: Sequence[Mapping] = (),
        returns: str = "any",
        tags: Sequence[str] = (),
        acl: AccessControlList | None = None,
    ) -> None:
        """Export one application operation through the facade.

        *implementation* receives the unpacked argument list; the facade
        method adapts the MROM calling convention to it.
        """

        def body(self_view, args, ctx):
            return implementation(*args)

        method = MROMMethod(
            operation,
            body,
            acl=acl if acl is not None else allow_all(),
            metadata={
                "doc": doc,
                "params": list(params),
                "returns": returns,
                "tags": list(tags) or ["service"],
                "apo": self.name,
            },
        )
        self.facade.containers.add_extensible(method)

    def expose_mapping(self, operations: Mapping[str, Callable]) -> None:
        """Bulk :meth:`expose` for simple cases."""
        for operation, implementation in operations.items():
            self.expose(operation, implementation)

    def invoke(self, operation: str, args: Sequence[Any] = (), caller=None) -> Any:
        """Local invocation of an exported operation."""
        return self.facade.invoke(operation, list(args), caller=caller)

    def operations(self) -> list[str]:
        return [
            item.name
            for item in self.facade.containers.ext_methods
            if not is_bundled_meta(item)
        ]

    # ------------------------------------------------------------------
    # export policy (checked by the owning IOO on Import requests)
    # ------------------------------------------------------------------

    def exportable_to(self, requester_site: str, requester_domain: str = "") -> bool:
        if not self.allowed_importers:
            return True
        return any(
            requester_site == allowed or within_domain(requester_domain, allowed)
            for allowed in self.allowed_importers
        )

    def check_exportable(self, requester_site: str, requester_domain: str = "") -> None:
        if not self.exportable_to(requester_site, requester_domain):
            raise PolicyViolationError(
                f"APO {self.name!r} is not exportable to {requester_site!r}"
            )

    # ------------------------------------------------------------------
    # ambassadors: minting
    # ------------------------------------------------------------------

    def make_ambassador(
        self,
        forward: Sequence[str] | None = None,
        cached_data: Mapping[str, Any] | None = None,
        local_methods: Mapping[str, str] | None = None,
    ) -> MROMObject:
        """Instantiate an Ambassador of this APO (a portable object).

        *forward* — exported operations the Ambassador relays to the
        origin over the network (default: all of them);
        *cached_data* — data items replicated into the Ambassador so it
        can answer locally (the APO→Ambassador functionality split);
        *local_methods* — portable method sources that run entirely at
        the hosting site (the other half of the split).

        The Ambassador's meta-methods admit only this APO: "its
        meta-methods should be invisible to the host IOO ... and should
        not be invoked by that IOO".
        """
        from .ambassador import build_apo_ambassador  # local import: cycle

        ambassador = build_apo_ambassador(
            self,
            forward=list(forward) if forward is not None else self.operations(),
            cached_data=dict(cached_data or {}),
            local_methods=dict(local_methods or {}),
        )
        return ambassador

    def note_deployed(self, ref: RemoteRef) -> None:
        self.deployed[ref.guid] = ref

    # ------------------------------------------------------------------
    # dynamic update of deployed ambassadors (the Section 5 scenario)
    # ------------------------------------------------------------------

    def broadcast(self, action: Callable[[RemoteRef], Any]) -> list[Any]:
        """Apply *action* to every deployed Ambassador; returns results."""
        return [action(ref) for ref in self.deployed.values()]

    def broadcast_add_method(self, name: str, source: str, acl=None) -> int:
        """Push a new (portable) method to every deployed Ambassador —
        "updates in APO's functionality can be done dynamically without
        interference with ongoing computations"."""
        properties = {"acl": (acl or allow_all()).describe()}
        self.broadcast(
            lambda ref: ref.invoke(
                "addMethod", [name, source, properties], caller=self.principal
            )
        )
        return len(self.deployed)

    def broadcast_add_data(self, name: str, value: Any) -> int:
        self.broadcast(
            lambda ref: ref.invoke(
                "addDataItem", [name, value], caller=self.principal
            )
        )
        return len(self.deployed)

    def broadcast_maintenance(self, notice: str) -> int:
        """The paper's database-shutdown example: swap every deployed
        Ambassador's invocation semantics so that all queries are answered
        with *notice* — while the origin (owner) still passes through and
        can later lift the notice."""
        body = (
            "if ctx.caller.guid == self.owner_guid:\n"
            "    return ctx.proceed()\n"
            f"return {notice!r}"
        )
        properties = {"acl": allow_all().describe()}
        self.broadcast(
            lambda ref: ref.invoke(
                "addMethod", ["invoke", body, properties], caller=self.principal
            )
        )
        return len(self.deployed)

    def broadcast_lift_maintenance(self) -> int:
        """Pop the maintenance level from every deployed Ambassador."""
        self.broadcast(
            lambda ref: ref.invoke("deleteMethod", ["invoke"], caller=self.principal)
        )
        return len(self.deployed)

    def __repr__(self) -> str:
        return (
            f"APO({self.name!r} @ {self.site.site_id}, "
            f"{len(self.operations())} ops, {len(self.deployed)} ambassadors)"
        )
