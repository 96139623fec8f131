"""Canonical XML form for configuration trees.

Reading accepts any well-formed element-only XML, in one pass of the expat
parser that builds each TreeNode at its end tag. Its rules, which are
ElementTree's with a tree of named elements on top:

- a document that is not well-formed is MalformedXml with expat's message,
  as ElementTree words it;
- names are read with namespaces, and a namespaced name is spelled
  `{uri}local` and refused as a bad name, as is any name TreeNode refuses;
- comments, processing instructions and the DTD are skipped; entities
  defined in the internal subset are expanded;
- an entity in content that is neither defined nor predefined, and so
  skipped (as expat does below an external DTD), or that is external, is
  refused as undefined; such an entity in an attribute value reads as
  nothing;
- text that is not whitespace is refused, inside an element or after one;
  whitespace-only text is allowed and dropped.

When a document breaks more than one of these rules, the message is the
one ElementTree and a walk of its tree would give: a malformed document
or an undefined entity first, then in a walk from the root, each element's
text, then for each child its tail before anything inside it, then the
element's own names.

Writing is canonical: UTF-8, single-quoted attributes sorted by name,
two-space indent, empty elements self-closed. read(write(t)) == t for every
tree, and write(read(x)) is the canonical form of x.
"""

from __future__ import annotations

from xml.parsers import expat

from .tree import TreeError, TreeNode, good_name

HEADER = "<?xml version='1.0'?>"


class MalformedXml(Exception):
    pass


def read_tree(xml_text: str) -> TreeNode:
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    kids: list = []  # the children of the innermost open element
    stack = []  # (name, attributes, the parent's children) per open element
    stray = False  # whether any text is not whitespace

    def start(name, attributes):
        nonlocal kids
        stack.append((name, attributes, kids))
        kids = []

    def end(_name):
        nonlocal kids
        name, attributes, parent = stack.pop()
        parent.append(TreeNode.adopt(name, attributes, kids))
        kids = parent

    def text(data):
        # marked where it stands: before an element's first child it is the
        # element's text, after a child that child's tail
        nonlocal stray
        if not data.isspace():
            kids.append(_TEXT)
            stray = True

    def default(data):
        # expat hands on here each entity reference it did not expand
        if len(data) > 1 and data[0] == "&":
            name = data.encode()[:100].decode("utf-8", "replace")
            raise MalformedXml(f"undefined entity {name}: line {parser.ErrorLineNumber}, "
                               f"column {parser.ErrorColumnNumber}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text
    parser.DefaultHandlerExpand = default
    try:
        parser.Parse(xml_text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    [root] = kids
    # the parser's names are the document's distinct element and attribute names
    if stray or not all(map(good_name, parser.intern)):
        raise MalformedXml(_first_fault(root))
    return root


_TEXT = object()  # where a read found text that is not whitespace


def _first_fault(node: TreeNode) -> str | None:
    """The first rule that a read tree breaks, in ElementTree's order: the
    element's text, then for each child its tail before anything inside
    it, then the element's own names."""
    kids = node.children
    for kid, after in zip(kids, kids[1:] + [None]):
        if kid is _TEXT or after is _TEXT:
            return f"element {_universal(node.element_name)!r} carries text content"
        fault = _first_fault(kid)
        if fault is not None:
            return fault
    try:
        TreeNode(_universal(node.element_name),
                 {_universal(k): v for k, v in node.attributes.items()})
    except TreeError as exc:
        return str(exc)
    return None


def _universal(name: str) -> str:
    # expat joins a namespace to a local name with the separator alone;
    # ElementTree spells the pair {uri}local
    return "{" + name if "}" in name else name


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
