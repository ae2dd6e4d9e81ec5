"""Seeded differential test of the int-mask ACL evaluation.

``AccessControlList`` evaluates on plain int masks precomputed per
entry. This file keeps a Flag-based reference — the evaluation as the
paper states it, one ``Permission`` test and one subject match per
entry, deny-overrides, SYSTEM passes — and holds every int path to it:
``permits`` for single and composite queries, ``mask_for``,
``visible_to`` and the ``describe``/``from_description`` round trip.

Hypothesis runs derandomized, so every run draws the same examples.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    ANONYMOUS,
    SYSTEM,
    AccessControlList,
    AclEntry,
    DataItem,
    Decision,
    Permission,
    Principal,
)

DIFF = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

SINGLES = (Permission.GET, Permission.SET, Permission.INVOKE, Permission.META)


# -- the reference ----------------------------------------------------------


def ref_applies(subject: str, principal: Principal) -> bool:
    if subject == "*":
        return True
    if subject.startswith("domain:"):
        return principal is not ANONYMOUS and principal.in_domain(subject[7:])
    return principal.guid == subject


def ref_permits(
    entries: list[AclEntry], default_allow: bool,
    principal: Principal, permission: Permission,
) -> bool:
    if principal.guid == SYSTEM.guid:
        return True
    allowed = default_allow
    for entry in entries:
        if not entry.permissions & permission:
            continue
        if not ref_applies(entry.subject, principal):
            continue
        if entry.decision is Decision.DENY:
            return False
        allowed = True
    return allowed


def ref_mask(entries, default_allow, principal) -> int:
    return sum(
        bit.value for bit in SINGLES
        if ref_permits(entries, default_allow, principal, bit)
    )


def ref_names(permissions: Permission) -> list[str]:
    return [bit.name for bit in SINGLES if permissions & bit]


# -- inputs -----------------------------------------------------------------

# dotted domains chosen so prefixes, near-prefixes ("a.bc" vs "a.b"),
# empty labels and the empty domain all meet
domains = st.sampled_from(["", "a", "a.b", "a.bc", "a.b.c", "b", "a.", ".a", "a..b"])
guids = st.sampled_from(["p1", "p2", "p3", SYSTEM.guid, ANONYMOUS.guid])
masks = st.integers(min_value=0, max_value=15).map(Permission)
subjects = st.one_of(
    st.just("*"),
    domains.map(lambda domain: f"domain:{domain}"),
    guids,
)
entries = st.builds(
    AclEntry, subjects, masks, st.sampled_from([Decision.ALLOW, Decision.DENY])
)
entry_lists = st.lists(entries, max_size=10)
principals = st.one_of(
    st.just(SYSTEM),
    st.just(ANONYMOUS),
    # equal guid and domain to ANONYMOUS, but not the singleton
    st.just(Principal(ANONYMOUS.guid)),
    st.builds(Principal, guids, domains),
)
queries = st.one_of(
    masks,
    st.sampled_from([Permission.NONE, Permission.DATA, Permission.ALL]),
)


class TestIntMaskEvaluation:
    @DIFF
    @given(entry_lists, st.booleans(), principals, queries)
    def test_permits_matches_the_reference(self, entries, default, principal, query):
        acl = AccessControlList(entries, default_allow=default)
        expected = ref_permits(entries, default, principal, query)
        assert acl.permits(principal, query) is expected
        assert acl.allows(principal, query.value) is expected

    @DIFF
    @given(entry_lists, st.booleans(), principals)
    def test_mask_for_holds_exactly_the_permitted_bits(self, entries, default, principal):
        acl = AccessControlList(entries, default_allow=default)
        mask = acl.mask_for(principal)
        for bit in SINGLES:
            assert bool(mask & bit.value) is acl.permits(principal, bit)
        assert mask == ref_mask(entries, default, principal)

    @DIFF
    @given(entry_lists, st.booleans(), principals)
    def test_visible_to_matches_the_reference(self, entries, default, principal):
        item = DataItem("x", 0, acl=AccessControlList(entries, default_allow=default))
        expected = any(
            ref_permits(entries, default, principal, bit)
            for bit in (Permission.GET, Permission.INVOKE, Permission.META)
        )
        assert item.visible_to(principal) is expected

    @DIFF
    @given(domains, domains, st.booleans())
    def test_domain_subjects_match_the_reference(self, pattern, domain, deny):
        # one entry per example, so every (pattern, domain) pair is
        # decided by the subject match alone
        entry = AclEntry(
            f"domain:{pattern}", Permission.ALL,
            Decision.DENY if deny else Decision.ALLOW,
        )
        principal = Principal("p1", domain)
        acl = AccessControlList([entry], default_allow=deny)
        expected = ref_permits([entry], deny, principal, Permission.GET)
        assert acl.permits(principal, Permission.GET) is expected
        assert acl.mask_for(principal) == ref_mask([entry], deny, principal)

    @DIFF
    @given(entries, principals, queries)
    def test_entry_predicates_match_the_reference(self, entry, principal, query):
        assert entry.applies_to(principal) is ref_applies(entry.subject, principal)
        assert entry.covers(query) is bool(entry.permissions & query)


class TestDescription:
    @DIFF
    @given(entry_lists, st.booleans())
    def test_describe_writes_the_reference_names(self, entries, default):
        description = AccessControlList(entries, default_allow=default).describe()
        assert description["default_allow"] is default
        assert description["entries"] == [
            {
                "subject": entry.subject,
                "permissions": ref_names(entry.permissions),
                "decision": entry.decision.value,
            }
            for entry in entries
        ]

    @DIFF
    @given(entry_lists, st.booleans(), principals, queries)
    def test_round_trip_keeps_entries_and_decisions(
        self, entries, default, principal, query
    ):
        acl = AccessControlList(entries, default_allow=default)
        rebuilt = AccessControlList.from_description(acl.describe())
        assert rebuilt.entries() == acl.entries()
        assert rebuilt.default_allow is default
        assert rebuilt.permits(principal, query) is acl.permits(principal, query)
        assert rebuilt.mask_for(principal) == acl.mask_for(principal)

    def test_describe_returns_fresh_name_lists(self):
        acl = AccessControlList([AclEntry("*", Permission.DATA)])
        acl.describe()["entries"][0]["permissions"].append("META")
        assert acl.describe()["entries"][0]["permissions"] == ["GET", "SET"]

    def test_alias_names_still_parse(self):
        acl = AccessControlList.from_description(
            {"entries": [{"subject": "*", "permissions": ["DATA", "READ_ONLY"],
                          "decision": "deny"}]}
        )
        (entry,) = acl.entries()
        assert entry.permissions == Permission.DATA
        assert entry.decision is Decision.DENY
