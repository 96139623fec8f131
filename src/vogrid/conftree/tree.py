"""Tree of named elements with distinct string attributes.

Schemas and the configurations produced from them are the same type; only
the interpretation of attribute values differs.
"""

from __future__ import annotations

import re

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class TreeError(Exception):
    pass


class TreeNode:
    __slots__ = ("element_name", "attributes", "children")

    def __init__(self, element_name: str, attributes: dict[str, str] | None = None,
                 children: list["TreeNode"] | None = None):
        if not _NAME_RE.match(element_name):
            raise TreeError(f"bad element name {element_name!r}")
        attributes = dict(attributes or {})
        for k, v in attributes.items():
            if not _NAME_RE.match(k):
                raise TreeError(f"bad attribute name {k!r}")
            if not isinstance(v, str):
                raise TreeError(f"attribute {k!r} value must be text")
        self.element_name = element_name
        self.attributes = attributes
        self.children = list(children or [])

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
