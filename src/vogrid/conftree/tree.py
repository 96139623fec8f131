"""Tree of named elements with distinct string attributes.

Schemas and the configurations produced from them are the same type; only
the interpretation of attribute values differs.

An element or attribute name is an ASCII letter or underscore, then any
ASCII letters, digits, underscores, dots and hyphens. Each distinct name is
matched against that rule once, through `good_name`: a memo of the verdicts
on at most NAME_MEMO_ENTRIES names (`functools.lru_cache`, as `parse_expr`
keeps its trees), dropping the least recently used, so a stream of ever new
names costs one match each and holds no more than the bound. A refused name
is kept in the memo too, and refused from it each time it is met.

This is the configuration framework's one rule for a name. Its rule for a
number written as text is `wire.number_text`, and for a prior
configuration's value, offered in place of the schema's default,
`configurator._resolve`.
"""

from __future__ import annotations

import functools
import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")

NAME_MEMO_ENTRIES = 1024


class TreeError(Exception):
    pass


@functools.lru_cache(maxsize=NAME_MEMO_ENTRIES)
def good_name(name: str) -> bool:
    """Whether `name` passes the rule."""
    return _NAME_RE.fullmatch(name) is not None


class TreeNode:
    __slots__ = ("element_name", "attributes", "children")

    def __init__(self, element_name: str, attributes: dict[str, str] | None = None,
                 children: list["TreeNode"] | None = None):
        if not good_name(element_name):
            raise TreeError(f"bad element name {element_name!r}")
        attributes = dict(attributes or {})
        for k, v in attributes.items():
            if not good_name(k):
                raise TreeError(f"bad attribute name {k!r}")
            if not isinstance(v, str):
                raise TreeError(f"attribute {k!r} value must be text")
        self.element_name = element_name
        self.attributes = attributes
        self.children = list(children or [])

    @classmethod
    def adopt(cls, element_name: str, attributes: dict[str, str],
              children: list["TreeNode"]) -> "TreeNode":
        """A node that holds `attributes` and `children` themselves, not
        copies, for a reader that hands over new ones whose names and text
        values it has already checked (names by `good_name`)."""
        node = object.__new__(cls)
        node.element_name = element_name
        node.attributes = attributes
        node.children = children
        return node

    def __eq__(self, other) -> bool:
        # attribute order is presentation, not identity; child order matters
        if not isinstance(other, TreeNode):
            return NotImplemented
        return (self.element_name == other.element_name
                and self.attributes == other.attributes
                and self.children == other.children)

    def __repr__(self):
        return (f"TreeNode({self.element_name!r}, {self.attributes!r}, "
                f"{len(self.children)} children)")

    def copy(self) -> "TreeNode":
        return TreeNode(self.element_name, dict(self.attributes),
                        [c.copy() for c in self.children])

    def descendants(self, element_name: str | None = None):
        """Yield descendants (not self) in document order, any depth."""
        for child in self.children:
            if element_name is None or child.element_name == element_name:
                yield child
            yield from child.descendants(element_name)

    def find(self, element_name: str) -> "TreeNode | None":
        for node in self.descendants(element_name):
            return node
        return None
