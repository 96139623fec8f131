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
    must be safe to invoke concurrently. Every handler declares `reads`, the
    attributes of its SELF ad that it reads, and reads nothing else of
    either ad: only its arguments, those attributes and the environment
    handle, never the identity of the ads it is handed. The sharing rule
    follows: ads that agree on every binding an evaluation can read,
    through SELF references, through the other ads' OTHER references and
    through the SELF attributes its handlers declare with `reads`, evaluate
    alike. The matchmaker judges such ads once: the slots of a resource
    cluster, and the jobs of an autocluster (`ClassAd.autocluster`).
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, Handler]] = {}
        # folded name -> the SELF attributes its handler declares it reads
        self.reads: dict[str, tuple[str, ...]] = {}

    def register(self, name: str, arity: int, handler: Handler,
                 reads: Iterable[str]) -> "FnRegistry":
        key = name.lower()
        if key in self._entries:
            raise DuplicateFunction(name)
        if isinstance(reads, str):
            raise TypeError("reads names attributes: a collection of text, not one text")
        self._entries[key] = (arity, handler)
        self.reads[key] = tuple(r.lower() for r in reads)
        return self

    def lookup(self, name: str) -> Optional[tuple[int, Handler]]:
        return self._entries.get(name.lower())


EMPTY_REGISTRY = FnRegistry()
