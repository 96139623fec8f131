"""Canonical XML form for configuration trees.

Reading accepts any well-formed element-only XML. Writing is canonical:
UTF-8, single-quoted attributes sorted by name, two-space indent, empty
elements self-closed. read(write(t)) == t for every tree, and
write(read(x)) is the canonical form of x.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .tree import TreeError, TreeNode

HEADER = "<?xml version='1.0'?>"


class MalformedXml(Exception):
    pass


def read_tree(xml_text: str) -> TreeNode:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    return _convert(root)


def _convert(el) -> TreeNode:
    if not isinstance(el.tag, str):
        raise MalformedXml("unsupported node kind")
    if el.text and el.text.strip():
        raise MalformedXml(f"element {el.tag!r} carries text content")
    children = []
    for sub in el:
        if sub.tail and sub.tail.strip():
            raise MalformedXml(f"element {el.tag!r} carries text content")
        children.append(_convert(sub))
    try:
        return TreeNode(el.tag, dict(el.attrib), children)
    except TreeError as exc:
        raise MalformedXml(str(exc)) from None


# for a value in single quotes; whitespace is escaped so that a read keeps it
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "'": "&apos;",
                          "\n": "&#10;", "\t": "&#9;", "\r": "&#13;"})


def write_tree(node: TreeNode) -> str:
    lines = [HEADER]
    _write(node, 0, lines)
    return "\n".join(lines) + "\n"


def _write(node: TreeNode, depth: int, lines: list[str]):
    pad = "  " * depth
    attrs = "".join(f" {k}='{node.attributes[k].translate(_ESCAPES)}'"
                    for k in sorted(node.attributes))
    if not node.children:
        lines.append(f"{pad}<{node.element_name}{attrs}/>")
        return
    lines.append(f"{pad}<{node.element_name}{attrs}>")
    for child in node.children:
        _write(child, depth + 1, lines)
    lines.append(f"{pad}</{node.element_name}>")
