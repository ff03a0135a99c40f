"""Fixtures shared by the runtime suites."""

from __future__ import annotations

import pytest

from repro.runtime.shards import ShardStore


@pytest.fixture
def published(monkeypatch):
    """Every shard handle published during the test."""
    handles = []
    publish = ShardStore.publish

    def spy(store, payload, label="shard"):
        handles.append(publish(store, payload, label=label))
        return handles[-1]

    monkeypatch.setattr(ShardStore, "publish", spy)
    return handles
