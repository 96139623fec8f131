"""Registry of externally supplied functions resolved at evaluation time."""

from __future__ import annotations

from typing import Callable, Optional

from .values import Value

# handler(evaluated args, self ad, other ad, environment handle) -> Value
Handler = Callable[[list, object, object, object], Value]


class DuplicateFunction(Exception):
    pass


class FnRegistry:
    """Name -> (arity, handler) table. Names are case-insensitive.

    Freeze the registry (stop registering) before matching starts; handlers
    must be safe to invoke concurrently.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, Handler]] = {}

    def register(self, name: str, arity: int, handler: Handler) -> "FnRegistry":
        key = name.lower()
        if key in self._entries:
            raise DuplicateFunction(name)
        self._entries[key] = (arity, handler)
        return self

    def lookup(self, name: str) -> Optional[tuple[int, Handler]]:
        return self._entries.get(name.lower())


EMPTY_REGISTRY = FnRegistry()
