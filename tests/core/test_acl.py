"""Security coupled with encapsulation: ACL evaluation semantics."""

import pytest

from repro.core import (
    AccessControlList,
    AclEntry,
    ANONYMOUS,
    AccessDeniedError,
    Decision,
    Permission,
    Principal,
    SYSTEM,
    allow_all,
    deny_all,
    domain_acl,
    owner_only,
    principals_acl,
)


@pytest.fixture
def ee_member():
    return Principal("mrom:obj:ee1", "technion.ee", "ee-member")


@pytest.fixture
def cs_member():
    return Principal("mrom:obj:cs1", "technion.cs", "cs-member")


class TestPrincipal:
    def test_in_domain_subtree(self, ee_member):
        assert ee_member.in_domain("technion")
        assert ee_member.in_domain("technion.ee")
        assert not ee_member.in_domain("technion.cs")

    def test_in_domain_is_segment_wise(self):
        # 'technion' must not match 'technio' as a prefix
        p = Principal("g", "technion.ee")
        assert not p.in_domain("technio")

    def test_empty_domain_matches_everything(self, ee_member):
        assert ee_member.in_domain("")

    def test_str_includes_domain(self, ee_member):
        assert str(ee_member) == "ee-member@technion.ee"


class TestEntryMatching:
    def test_star_matches_anonymous(self):
        entry = AclEntry("*", Permission.INVOKE)
        assert entry.applies_to(ANONYMOUS)

    def test_domain_entry_does_not_match_anonymous(self):
        entry = AclEntry("domain:technion", Permission.INVOKE)
        assert not entry.applies_to(ANONYMOUS)

    def test_domain_entry_matches_subdomain(self, ee_member):
        entry = AclEntry("domain:technion", Permission.INVOKE)
        assert entry.applies_to(ee_member)

    def test_principal_entry_exact(self, ee_member, cs_member):
        entry = AclEntry(ee_member.guid, Permission.INVOKE)
        assert entry.applies_to(ee_member)
        assert not entry.applies_to(cs_member)

    def test_covers_permission_flags(self):
        entry = AclEntry("*", Permission.GET | Permission.SET)
        assert entry.covers(Permission.GET)
        assert not entry.covers(Permission.INVOKE)


class TestEvaluation:
    def test_default_deny(self, ee_member):
        acl = AccessControlList()
        assert not acl.permits(ee_member, Permission.INVOKE)

    def test_default_allow(self, ee_member):
        acl = AccessControlList(default_allow=True)
        assert acl.permits(ee_member, Permission.INVOKE)

    def test_system_always_passes(self):
        assert deny_all().permits(SYSTEM, Permission.META)

    def test_deny_overrides_allow(self, ee_member):
        acl = AccessControlList(
            [
                AclEntry("domain:technion", Permission.ALL),
                AclEntry(ee_member.guid, Permission.INVOKE, Decision.DENY),
            ]
        )
        assert not acl.permits(ee_member, Permission.INVOKE)
        # deny is permission-scoped: GET still allowed
        assert acl.permits(ee_member, Permission.GET)

    def test_deny_order_does_not_matter(self, ee_member):
        acl = AccessControlList(
            [
                AclEntry(ee_member.guid, Permission.INVOKE, Decision.DENY),
                AclEntry("domain:technion", Permission.ALL),
            ]
        )
        assert not acl.permits(ee_member, Permission.INVOKE)

    def test_grant_and_revoke_chaining(self, ee_member, cs_member):
        acl = AccessControlList().grant("domain:technion", Permission.INVOKE)
        acl.revoke("domain:technion.cs", Permission.INVOKE)
        assert acl.permits(ee_member, Permission.INVOKE)
        assert not acl.permits(cs_member, Permission.INVOKE)

    def test_remove_subject(self, ee_member):
        acl = AccessControlList().grant(ee_member.guid, Permission.ALL)
        assert acl.remove_subject(ee_member.guid) == 1
        assert not acl.permits(ee_member, Permission.GET)

    def test_check_raises_with_context(self, ee_member):
        with pytest.raises(AccessDeniedError) as excinfo:
            deny_all().check(ee_member, Permission.SET, "salary")
        err = excinfo.value
        assert err.item == "salary"
        assert err.permission == "SET"


class TestFactories:
    def test_allow_all(self, ee_member):
        assert allow_all().permits(ANONYMOUS, Permission.INVOKE)
        assert allow_all().permits(ee_member, Permission.META)

    def test_owner_only(self, ee_member, cs_member):
        acl = owner_only(ee_member)
        assert acl.permits(ee_member, Permission.META)
        assert not acl.permits(cs_member, Permission.META)
        assert not acl.permits(ANONYMOUS, Permission.GET)

    def test_domain_acl(self, ee_member, cs_member):
        acl = domain_acl("technion.ee")
        assert acl.permits(ee_member, Permission.INVOKE)
        assert not acl.permits(cs_member, Permission.INVOKE)

    def test_principals_acl(self, ee_member, cs_member):
        acl = principals_acl([ee_member, cs_member], Permission.INVOKE)
        assert acl.permits(ee_member, Permission.INVOKE)
        assert not acl.permits(ee_member, Permission.SET)


class TestDescriptionRoundTrip:
    def test_round_trip_preserves_semantics(self, ee_member, cs_member):
        original = AccessControlList(
            [
                AclEntry("domain:technion", Permission.GET | Permission.INVOKE),
                AclEntry(cs_member.guid, Permission.INVOKE, Decision.DENY),
            ],
            default_allow=False,
        )
        rebuilt = AccessControlList.from_description(original.describe())
        for principal in (ee_member, cs_member, ANONYMOUS):
            for permission in (
                Permission.GET,
                Permission.SET,
                Permission.INVOKE,
                Permission.META,
            ):
                assert rebuilt.permits(principal, permission) == original.permits(
                    principal, permission
                )

    def test_describe_shape(self):
        described = owner_only(Principal("g1", "d")).describe()
        assert described["default_allow"] is False
        assert described["entries"][0]["subject"] == "g1"
        assert set(described["entries"][0]["permissions"]) == {
            "GET",
            "SET",
            "INVOKE",
            "META",
        }

    def test_copy_is_independent(self, ee_member):
        acl = deny_all()
        copied = acl.copy()
        copied.grant(ee_member.guid, Permission.GET)
        assert copied.permits(ee_member, Permission.GET)
        assert not acl.permits(ee_member, Permission.GET)


class TestDescribedEntries:
    """``from_description`` shares immutable entries through a bounded
    table; each rebuilt ACL keeps a list of its own."""

    DESCRIPTION = {
        "default_allow": False,
        "entries": [
            {"subject": "domain:technion", "permissions": ["GET", "INVOKE"],
             "decision": "allow"},
            {"subject": "mrom:obj:cs1", "permissions": ["INVOKE"], "decision": "deny"},
        ],
    }

    def test_two_acls_share_entries_but_not_edits(self, ee_member):
        outsider = Principal("mrom:obj:mit1", "mit")
        first = AccessControlList.from_description(self.DESCRIPTION)
        second = AccessControlList.from_description(self.DESCRIPTION)
        assert all(a is b for a, b in zip(first.entries(), second.entries()))
        first.grant(outsider.guid, Permission.GET)
        first.revoke(ee_member.guid, Permission.GET)
        assert len(first) == 4 and len(second) == 2
        assert first.permits(outsider, Permission.GET)
        assert not second.permits(outsider, Permission.GET)
        assert not first.permits(ee_member, Permission.GET)
        assert second.permits(ee_member, Permission.GET)
        second.remove_subject("domain:technion")
        assert first.permits(ee_member, Permission.INVOKE)
        assert not second.permits(ee_member, Permission.INVOKE)
        assert AccessControlList.from_description(self.DESCRIPTION).describe() == (
            self.DESCRIPTION
        )

    def test_the_table_stays_bounded_under_hostile_entries(self, ee_member):
        from repro.core import acl as acl_module

        cap = acl_module._DESCRIBED_ENTRIES_CAP
        for batch in range(100):
            entries = [
                {"subject": f"mrom:obj:hostile{batch}-{n}", "permissions": ["GET"],
                 "decision": "deny" if n % 2 else "allow"}
                for n in range(100)
            ]
            rebuilt = AccessControlList.from_description({"entries": entries})
            assert len(acl_module._DESCRIBED_ENTRIES) <= cap
            # an ACL built across a wholesale drop keeps every entry
            assert rebuilt.describe()["entries"] == entries
        assert not rebuilt.permits(ee_member, Permission.GET)
