"""Service discovery across linked IOOs (a trading service).

The paper's bottom-up construction story assumes components find each
other: a host "must be able to interrogate the newcomer object, decide
whether to invoke it, and find out how to invoke it" — and before any of
that, somebody must learn the newcomer exists. The trader closes that
loop in the federated style of the rest of HADAS: there is no global
registry; each IOO answers discovery queries about its *own* Home, and a
client asks the sites it has Linked with.

Offers are built from the same visibility-filtered interrogation the
Match phase enforces, and Export ACLs apply: an APO a requester could not
Import is not offered to it either — discovery never reveals more than
invocation would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.acl import Principal, remote_principal
from ..core.errors import MROMError
from ..core.introspection import interrogate
from ..net.transport import Message, request_body, request_list
from .ioo import IOO

__all__ = ["ServiceOffer", "Trader", "KIND_TRADE"]

KIND_TRADE = "hadas.trade"


@dataclass(frozen=True)
class ServiceOffer:
    """One discoverable operation at one site."""

    site: str
    apo: str
    operation: str
    doc: str = ""
    tags: tuple = ()
    params: tuple = ()

    def to_mapping(self) -> dict:
        return {
            "site": self.site,
            "apo": self.apo,
            "operation": self.operation,
            "doc": self.doc,
            "tags": list(self.tags),
            "params": [dict(p) for p in self.params],
        }

    @classmethod
    def from_mapping(cls, raw: dict) -> "ServiceOffer":
        return cls(
            site=str(raw.get("site", "")),
            apo=str(raw.get("apo", "")),
            operation=str(raw.get("operation", "")),
            doc=str(raw.get("doc", "")),
            tags=tuple(raw.get("tags", [])),
            params=tuple(tuple(sorted(p.items())) for p in raw.get("params", [])),
        )


class Trader:
    """Attaches the discovery protocol to an IOO."""

    def __init__(self, ioo: IOO):
        self.ioo = ioo
        ioo.site.add_handler(KIND_TRADE, self._handle_trade)

    # ------------------------------------------------------------------
    # server side: what do *we* offer this requester?
    # ------------------------------------------------------------------

    def local_offers(
        self, tags: Iterable[str], requester: Principal
    ) -> list[ServiceOffer]:
        wanted = set(tags)
        offers: list[ServiceOffer] = []
        for apo_name, apo in sorted(self.ioo.home.items()):
            # requester.display_name carries the requesting *site id*
            # (set by the trade handler); Export ACLs bound discovery
            if not apo.exportable_to(requester.display_name, requester.domain):
                continue
            protocol = interrogate(apo.facade, viewer=requester)
            for operation, signature in sorted(protocol.items()):
                if signature.get("meta"):
                    continue
                offered_tags = set(signature.get("tags", []))
                if wanted and not wanted <= offered_tags:
                    continue
                offers.append(
                    ServiceOffer(
                        site=self.ioo.site.site_id,
                        apo=apo_name,
                        operation=operation,
                        doc=signature.get("doc", ""),
                        tags=tuple(sorted(offered_tags)),
                        params=tuple(
                            tuple(sorted(p.items()))
                            for p in signature.get("params", [])
                        ),
                    )
                )
        return offers

    def _handle_trade(self, message: Message) -> list:
        body = request_body(message)
        requester = remote_principal(
            str(body.get("guid", "mrom:anonymous")),
            str(body.get("from_domain", "")),
            str(body.get("from_site", message.src)),
        )
        tags = [str(tag) for tag in request_list(message, "tags")]
        return [offer.to_mapping() for offer in self.local_offers(tags, requester)]

    # ------------------------------------------------------------------
    # client side: ask the vicinity
    # ------------------------------------------------------------------

    def discover(
        self,
        tags: Iterable[str] = (),
        sites: Sequence[str] | None = None,
    ) -> list[ServiceOffer]:
        """Query linked sites (or an explicit list) for matching services.

        Unreachable sites are skipped, not fatal — discovery over a
        partially partitioned vicinity returns what it can see.
        """
        targets = list(sites) if sites is not None else list(self.ioo.linked_sites())
        offers: list[ServiceOffer] = []
        for target in targets:
            try:
                raw = self.ioo.site.request(
                    target,
                    KIND_TRADE,
                    {
                        "tags": list(tags),
                        "from_site": self.ioo.site.site_id,
                        "from_domain": self.ioo.site.domain,
                        "guid": self.ioo.site.principal.guid,
                    },
                )
            except MROMError:
                continue
            for entry in raw if isinstance(raw, list) else []:
                offers.append(ServiceOffer.from_mapping(dict(entry)))
        return offers

    def import_first(self, tags: Iterable[str]):
        """Discover and Import the first matching service's APO; returns
        (offer, installed Ambassador)."""
        offers = self.discover(tags)
        if not offers:
            raise MROMError(f"no service offers matching tags {sorted(tags)}")
        offer = offers[0]
        local_name = f"{offer.site}:{offer.apo}"
        if local_name in self.ioo.imports:
            return offer, self.ioo.imports[local_name]
        ambassador = self.ioo.import_apo(
            offer.site, offer.apo, local_name=local_name
        )
        return offer, ambassador
