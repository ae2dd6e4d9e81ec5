"""Ambassadors: the mobile objects of HADAS.

"An Ambassador is an object that has been instantiated in the origin APO
and has been deployed in a 'foreign (IOO) territory', but is owned and
maintained by its origin APO. Each Ambassador thus has exactly one origin
and is hosted by exactly one IOO." (Section 5.)

An APO Ambassador is a fully portable MROM object:

* fixed section — its identity: the ``origin`` reference (a remote proxy
  back to the APO facade), origin metadata, and the ``install`` method
  ("any behavior and state of the Ambassador that has to remain untouched
  in order to maintain its consistency is defined in the fixed section");
* extensible section — the service interface: *forwarding* methods that
  relay to the origin, *cached* data and *local* methods that answer at
  the hosting site (the dynamic APO/Ambassador functionality split);
* extensible meta-methods with an owner-only ACL — the origin updates the
  Ambassador; the host cannot (the security/encapsulation duality);
* ``extensible_meta=True`` so the origin may push new invocation
  semantics (a meta-invoke level), as in the database-shutdown example.

IOO Ambassadors are the smaller cousins installed in a Vicinity by Link:
they represent a remote IOO and know how to reach it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence, TYPE_CHECKING

from ..core.acl import allow_all, owner_only
from ..core.mobject import MROMObject, is_bundled_meta
from ..core.values import Kind

if TYPE_CHECKING:  # pragma: no cover
    from .apo import APO

__all__ = ["build_apo_ambassador", "build_ioo_ambassador", "FORWARD_TEMPLATE"]

#: The portable relay body: look up the origin proxy in our own state and
#: re-issue the invocation against it over the network.
FORWARD_TEMPLATE = (
    "origin = self.get('origin')\n"
    "return origin.invoke({operation!r}, list(args))"
)

_INSTALL_SOURCE = """\
context = self.env.get('install_context', {})
self.set('hosted_by', context.get('site', 'unknown'))
return ['installed', self.get('hosted_by')]
"""


def build_apo_ambassador(
    apo: "APO",
    forward: Sequence[str] = (),
    cached_data: Mapping[str, Any] | None = None,
    local_methods: Mapping[str, str] | None = None,
) -> MROMObject:
    """Instantiate an Ambassador at its origin APO (not yet deployed)."""
    site = apo.site
    ambassador = site.create_object(
        display_name=f"amb:{apo.name}",
        owner=apo.principal,
        extensible_meta=True,
        meta_acl=owner_only(apo.principal),
    )
    # -- fixed: identity and consistency-critical behaviour ----------------
    ambassador.define_fixed_data(
        "origin",
        site.ref_to(apo.facade),
        kind=Kind.REFERENCE,
        metadata={"doc": "remote proxy back to the origin APO facade"},
    )
    ambassador.define_fixed_data("origin_apo", apo.name)
    ambassador.define_fixed_data("origin_site", site.site_id)
    ambassador.define_fixed_data("hosted_by", "nowhere")
    ambassador.define_fixed_method(
        "install",
        _INSTALL_SOURCE,
        metadata={"doc": "self-installation: reads the installation context"},
    )
    ambassador.define_fixed_method(
        "whoami",
        "return {'ambassador_of': self.get('origin_apo'),"
        " 'origin_site': self.get('origin_site'),"
        " 'hosted_by': self.get('hosted_by')}",
        metadata={"doc": "identity card", "tags": ["identity"]},
    )
    ambassador.seal()

    # -- extensible: the adjustable service interface -----------------------
    facade_methods = {
        item.name: item
        for item in apo.facade.containers.ext_methods
        if not is_bundled_meta(item)
    }
    for operation in forward:
        metadata = {"doc": f"forwarded to origin {apo.name}", "tags": ["forwarded"]}
        source_method = facade_methods.get(operation)
        if source_method is not None:
            # the Ambassador advertises the same signature and capability
            # tags as the origin operation it relays
            source_tags = list(source_method.metadata.get("tags", []))
            metadata.update(
                {
                    "doc": source_method.metadata.get("doc", metadata["doc"]),
                    "params": list(source_method.metadata.get("params", [])),
                    "returns": source_method.metadata.get("returns", "any"),
                    "tags": sorted({*source_tags, "forwarded"}),
                }
            )
        ambassador.self_view().add_method(
            operation,
            FORWARD_TEMPLATE.format(operation=operation),
            {"acl": allow_all().describe(), "metadata": metadata},
        )
    for name, value in (cached_data or {}).items():
        ambassador.self_view().add_data(
            name, value, {"metadata": {"tags": ["cached"]}}
        )
    for name, source in (local_methods or {}).items():
        ambassador.self_view().add_method(
            name,
            source,
            {
                "acl": allow_all().describe(),
                "metadata": {"doc": "answers locally at the hosting site",
                             "tags": ["local"]},
            },
        )
    return ambassador


def build_ioo_ambassador(ioo_obj: MROMObject, site) -> MROMObject:
    """An IOO Ambassador: installed in a peer's Vicinity by Link.

    Carries who it represents and a live proxy back to the represented
    IOO, so the hosting IOO can reach its peer through the Vicinity
    entry — "a primary contact point for other IOOs".
    """
    ambassador = site.create_object(
        display_name=f"ioo-amb:{site.site_id}",
        owner=ioo_obj.principal,
        extensible_meta=True,
        meta_acl=owner_only(ioo_obj.principal),
    )
    ambassador.define_fixed_data("represents_site", site.site_id)
    ambassador.define_fixed_data("represents_domain", site.domain)
    ambassador.define_fixed_data(
        "origin", site.ref_to(ioo_obj), kind=Kind.REFERENCE
    )
    ambassador.define_fixed_data("hosted_by", "nowhere")
    ambassador.define_fixed_method("install", _INSTALL_SOURCE)
    ambassador.define_fixed_method(
        "info",
        "return {'site': self.get('represents_site'),"
        " 'domain': self.get('represents_domain')}",
    )
    ambassador.seal()
    return ambassador
