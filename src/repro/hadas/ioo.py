"""The IOO — InterOperability Object: one logical HADAS site.

"Each logical 'site' in HADAS is represented as an InterOperability
Object (IOO). This object serves as a container of both a collection of
components and of multi-site InterOperability Programs, and as a primary
contact point for other IOOs for components interaction." (Section 5,
Figure 2.)

State, per the paper:

* **Home** — the APOs integrated at this site;
* **Vicinity** — IOO Ambassadors of remote IOOs with which a cooperation
  agreement (Link) has been established;
* **Interop** — coordination-level programs, realized as portable
  methods in the IOO object's extensible section.

Protocol, per the paper:

* **Link** — prerequisite for any cooperation: a successful Link installs
  an Ambassador of the *linked* IOO in the Vicinity of the IOO whose Link
  was invoked;
* **Import/Export** — "An Import operation at the requesting IOO is
  handled by an Export operation at the receiving IOO. Export verifies
  that the requested APO is accessible to the requesting IOO, instantiates
  the proper APO Ambassador object, and sends it to the requesting IOO.
  When the Ambassador arrives (as data) the importing IOO unpacks it,
  passes to it an installation context and invokes the Ambassador, which
  in turn installs itself in the new environment."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.acl import allow_all, owner_only, within_domain
from ..core.errors import MROMError, PolicyViolationError
from ..core.mobject import MROMObject
from ..mobility.package import pack
from ..mobility.transfer import MobilityManager
from ..net.site import Site
from ..net.transport import Message, request_body
from .ambassador import build_ioo_ambassador
from .apo import APO

__all__ = ["IOO", "VicinityEntry", "LinkError", "ExportError"]

KIND_LINK = "hadas.link"
KIND_IMPORT = "hadas.import"


class LinkError(MROMError):
    """A Link handshake was refused or malformed."""


class ExportError(MROMError):
    """An Import request could not be served by Export."""


@dataclass
class VicinityEntry:
    """One cooperation agreement: the peer and its installed Ambassador."""

    site: str
    domain: str
    ioo_guid: str
    ambassador: MROMObject  # installed locally, owned by the peer


class IOO:
    """One HADAS site: Home + Vicinity + Interop over an MROM object."""

    def __init__(
        self,
        site: Site,
        mobility: MobilityManager | None = None,
        accept_links_from: Iterable[str] = (),
    ):
        self.site = site
        self.mobility = mobility if mobility is not None else MobilityManager(site)
        #: site ids / domain prefixes we accept Link requests from
        #: (empty = accept anyone).
        self.accept_links_from = tuple(accept_links_from)

        self.obj = site.create_object(
            display_name=f"IOO:{site.site_id}",
            owner=site.principal,
            extensible_meta=True,
            meta_acl=owner_only(site.principal),
        )
        self.obj.define_fixed_data("site", site.site_id)
        self.obj.define_fixed_data("domain", site.domain)
        self.obj.define_fixed_data("imports", {})
        self.obj.seal()
        site.register_object(self.obj, name="ioo")

        self.home: dict[str, APO] = {}
        self.vicinity: dict[str, VicinityEntry] = {}
        self.imports: dict[str, MROMObject] = {}  # local name -> installed amb

        site.add_handler(KIND_LINK, self._handle_link)
        site.add_handler(KIND_IMPORT, self._handle_import)

    @property
    def guid(self) -> str:
        return self.obj.guid

    # ------------------------------------------------------------------
    # (i) Integration: the Home container
    # ------------------------------------------------------------------

    def integrate(
        self,
        name: str,
        app: Any,
        operations: Mapping[str, Any] | None = None,
        doc: str = "",
        allowed_importers: Iterable[str] = (),
    ) -> APO:
        """Integrate a pre-existing component as an APO in Home."""
        if name in self.home:
            raise MROMError(f"APO {name!r} already integrated at {self.site.site_id}")
        apo = APO(
            self.site, name, app, doc=doc, allowed_importers=allowed_importers
        )
        if operations:
            apo.expose_mapping(operations)
        self.home[name] = apo
        return apo

    def apo(self, name: str) -> APO:
        try:
            return self.home[name]
        except KeyError:
            raise MROMError(f"no APO {name!r} at {self.site.site_id}") from None

    # ------------------------------------------------------------------
    # (iii) Configuration: Link and the Vicinity container
    # ------------------------------------------------------------------

    def link(self, remote_site: str) -> VicinityEntry:
        """Establish a cooperation agreement with the IOO at *remote_site*.

        On success, an Ambassador of the remote IOO is installed in *our*
        Vicinity (the paper's direction: Link is invoked here, the peer's
        Ambassador lands here).
        """
        if remote_site in self.vicinity:
            return self.vicinity[remote_site]
        reply = self.site.request(
            remote_site,
            KIND_LINK,
            {"from_site": self.site.site_id, "from_domain": self.site.domain},
        )
        if not isinstance(reply, Mapping) or "ambassador_package" not in reply:
            raise LinkError(f"malformed link reply from {remote_site!r}")
        report = self.mobility.install_package(
            dict(reply["ambassador_package"]), src=remote_site
        )
        ambassador = self.site.local_object(str(report["guid"]))
        entry = VicinityEntry(
            site=remote_site,
            domain=str(reply.get("domain", "")),
            ioo_guid=str(reply.get("ioo_guid", "")),
            ambassador=ambassador,
        )
        self.vicinity[remote_site] = entry
        return entry

    def _handle_link(self, message: Message) -> dict:
        body = request_body(message)
        from_site = str(body.get("from_site", message.src))
        from_domain = str(body.get("from_domain", ""))
        self._check_link_policy(from_site, from_domain)
        ambassador = build_ioo_ambassador(self.obj, self.site)
        return {
            "ioo_guid": self.obj.guid,
            "domain": self.site.domain,
            "ambassador_package": pack(ambassador),
        }

    def _check_link_policy(self, from_site: str, from_domain: str) -> None:
        if not self.accept_links_from:
            return
        for allowed in self.accept_links_from:
            if from_site == allowed or within_domain(from_domain, allowed):
                return
        raise PolicyViolationError(
            f"{self.site.site_id} does not accept links from {from_site!r}"
        )

    def linked_sites(self) -> tuple[str, ...]:
        return tuple(sorted(self.vicinity))

    # ------------------------------------------------------------------
    # Import / Export
    # ------------------------------------------------------------------

    def import_apo(
        self,
        remote_site: str,
        apo_name: str,
        local_name: str | None = None,
        forward: Sequence[str] | None = None,
    ) -> MROMObject:
        """Import an APO Ambassador from a linked remote IOO.

        "This operation is a prerequisite for any further cooperation
        between the two IOOs" — so an Import without a prior Link fails.
        """
        if remote_site not in self.vicinity:
            raise LinkError(
                f"{self.site.site_id} is not linked to {remote_site!r}; "
                "Link first"
            )
        local_name = local_name or apo_name
        if local_name in self.imports:
            raise MROMError(f"import name {local_name!r} already in use")
        reply = self.site.request(
            remote_site,
            KIND_IMPORT,
            {
                "apo": apo_name,
                "from_site": self.site.site_id,
                "from_domain": self.site.domain,
                "forward": list(forward) if forward is not None else None,
            },
        )
        if not isinstance(reply, Mapping) or "package" not in reply:
            raise ExportError(f"malformed export reply from {remote_site!r}")
        # "the importing IOO unpacks it, passes to it an installation
        # context and invokes the Ambassador, which in turn installs
        # itself in the new environment" — install_package does exactly
        # this (admission policy included).
        report = self.mobility.install_package(
            dict(reply["package"]), src=remote_site
        )
        ambassador = self.site.local_object(str(report["guid"]))
        self.imports[local_name] = ambassador
        registry = dict(self.obj.get_data("imports", caller=self.site.principal))
        registry[local_name] = ambassador
        self.obj.set_data("imports", registry, caller=self.site.principal)
        return ambassador

    def _handle_import(self, message: Message) -> dict:
        """The Export side: verify access, instantiate, send as data."""
        body = request_body(message)
        apo_name = str(body.get("apo", ""))
        from_site = str(body.get("from_site", message.src))
        from_domain = str(body.get("from_domain", ""))
        apo = self.home.get(apo_name)
        if apo is None:
            raise ExportError(
                f"{self.site.site_id} has no APO named {apo_name!r}"
            )
        apo.check_exportable(from_site, from_domain)
        forward = body.get("forward")
        ambassador = apo.make_ambassador(
            forward=list(forward) if isinstance(forward, list) else None
        )
        package = pack(ambassador)
        # the origin remembers its deployed Ambassadors so it can update
        # them later (they settle at the requester's site)
        apo.note_deployed(
            self.site.ref_to(ambassador.guid, site=from_site)
        )
        return {"package": package, "origin_apo": apo.guid}

    def imported(self, local_name: str) -> MROMObject:
        try:
            return self.imports[local_name]
        except KeyError:
            raise MROMError(
                f"nothing imported as {local_name!r} at {self.site.site_id}"
            ) from None

    # ------------------------------------------------------------------
    # (iv) Coordination: interoperability programs
    # ------------------------------------------------------------------

    def add_program(self, name: str, source: str, doc: str = "") -> None:
        """Install a coordination-level program in the Interop container.

        The program is a portable method on the IOO object; it sees the
        imported Ambassadors through the IOO's ``imports`` data item and
        coordinates control- and data-flow across them.
        """
        self.obj.self_view().add_method(
            name,
            source,
            {
                "acl": allow_all().describe(),
                "metadata": {"doc": doc, "tags": ["interop-program"]},
            },
        )

    def add_program_mpl(self, member_source: str, doc: str = "") -> str:
        """Install a coordination program written in MPL.

        *member_source* is one MPL ``method`` declaration, e.g.::

            method avg_salary() {
              let db = imports["employees"]
              return db.payroll_total() / db.headcount()
            }

        Inside the program, ``imports`` is the IOO's import table (a data
        item), and method calls on its entries are MROM invocations on
        the installed Ambassadors. ``requires``/``ensures`` clauses become
        pre-/post-procedures. Returns the installed program's name.
        """
        from ..lang.compiler import compile_member_source

        compiled = compile_member_source(
            member_source, data_names=frozenset({"imports", "site", "domain"})
        )
        properties: dict = {
            "acl": allow_all().describe(),
            "metadata": {"doc": doc, "tags": ["interop-program"], "mpl": True},
        }
        if compiled.pre_source is not None:
            properties["pre"] = compiled.pre_source
        if compiled.post_source is not None:
            properties["post"] = compiled.post_source
        self.obj.self_view().add_method(
            compiled.name, compiled.body_source, properties
        )
        return compiled.name

    def run_program(self, name: str, args: Sequence[Any] = (), caller=None) -> Any:
        return self.obj.invoke(
            name, list(args), caller=caller if caller is not None else self.site.principal
        )

    def programs(self) -> list[str]:
        return [
            item.name
            for item in self.obj.containers.ext_methods
            if "interop-program" in item.metadata.get("tags", [])
        ]

    def __repr__(self) -> str:
        return (
            f"IOO({self.site.site_id!r}: home={sorted(self.home)}, "
            f"vicinity={sorted(self.vicinity)}, imports={sorted(self.imports)})"
        )
