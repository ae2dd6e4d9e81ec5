"""Shared scaffolding for the mobility suite."""

from __future__ import annotations

import pytest

from repro.mobility import sandbox


@pytest.fixture
def verified(monkeypatch):
    """Every source text the sandbox verifies, in order, starting from an
    empty verified-code cache (and leaving one behind)."""
    sandbox._VERIFIED.clear()
    seen: list[str] = []
    real = sandbox.validate_source

    def counting(source, source_name="<portable>"):
        seen.append(source)
        return real(source, source_name)

    monkeypatch.setattr(sandbox, "validate_source", counting)
    yield seen
    sandbox._VERIFIED.clear()
