"""Registry of externally supplied functions resolved at evaluation time."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .values import Value

# handler(evaluated args, self ad, other ad, environment handle) -> Value
Handler = Callable[[list, object, object, object], Value]


class DuplicateFunction(Exception):
    pass


class FnRegistry:
    """Name -> (arity, handler) table. Names are case-insensitive.

    Freeze the registry (stop registering) before matching starts; handlers
    must be safe to invoke concurrently. The handler contract: a handler's
    result may depend on its arguments, on the environment handle and on
    the ads' attributes, never on the identity of the ads it is handed,
    since the matchmaker evaluates one ad of a resource cluster (ads with
    equal bindings and gridmap) for all of them. A handler registered with
    `reads`, the names of the attributes of its SELF ad that it reads, reads
    no other attribute of either ad, so the matchmaker may judge every job
    that agrees on what an expression reads once (a job autocluster).
    `reads=None`, the default, means it may read anything: no job whose
    expression reaches it shares a verdict or a rank with another.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, Handler]] = {}
        # folded name -> the SELF attributes its handler declares it reads
        self.reads: dict[str, Optional[tuple[str, ...]]] = {}

    def register(self, name: str, arity: int, handler: Handler,
                 reads: Optional[Iterable[str]] = None) -> "FnRegistry":
        key = name.lower()
        if key in self._entries:
            raise DuplicateFunction(name)
        self._entries[key] = (arity, handler)
        self.reads[key] = None if reads is None else tuple(r.lower() for r in reads)
        return self

    def lookup(self, name: str) -> Optional[tuple[int, Handler]]:
        return self._entries.get(name.lower())


EMPTY_REGISTRY = FnRegistry()
