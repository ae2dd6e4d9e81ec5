"""A bounded per-process table of results keyed by source text.

What the sandbox verifies and what the effect analysis extracts from a
method body are functions of its text, so a body that arrives again
can be a lookup. A :class:`TextCache` holds such results. It is
cleared whole when an insert would pass ``cap`` entries or
``max_chars`` retained source characters, and a source longer than
``body_max_chars`` is never kept. The caller decides what is worth
keeping (neither user keeps a refusal) and must store only values no
reader can edit. The module imports nothing of the runtime, so any
layer can use it.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable


class TextCache:
    __slots__ = ("cap", "max_chars", "body_max_chars", "_entries", "_chars", "_lock")

    def __init__(
        self, cap: int = 1024, max_chars: int = 1 << 20, body_max_chars: int = 16 * 1024
    ) -> None:
        self.cap = cap
        self.max_chars = max_chars
        self.body_max_chars = body_max_chars
        self._entries: dict[Hashable, Any] = {}
        self._chars = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value kept under *key*, or None."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any, size: int) -> None:
        """Keep *value* under *key*, which retains *size* source
        characters."""
        if size > self.body_max_chars:
            return
        with self._lock:
            if key in self._entries:
                return
            if len(self._entries) >= self.cap or self._chars + size > self.max_chars:
                self._entries.clear()
                self._chars = 0
            self._entries[key] = value
            self._chars += size

    def snapshot(self) -> tuple[int, int]:
        """(entries, retained source characters) — for the tests."""
        with self._lock:
            return len(self._entries), self._chars

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._chars = 0
