"""Configuration trees and their canonical XML form."""

import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vogrid.conftree import MalformedXml, TreeError, TreeNode, read_tree, tree, write_tree


def reference_read_tree(xml_text: str) -> TreeNode:
    """The reader as it was before the expat pass: ElementTree builds an
    element tree, and a walk turns it into TreeNodes."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None
    return _reference_convert(root)


def _reference_convert(el) -> TreeNode:
    if not isinstance(el.tag, str):
        raise MalformedXml("unsupported node kind")
    if el.text and el.text.strip():
        raise MalformedXml(f"element {el.tag!r} carries text content")
    children = []
    for sub in el:
        if sub.tail and sub.tail.strip():
            raise MalformedXml(f"element {el.tag!r} carries text content")
        children.append(_reference_convert(sub))
    try:
        return TreeNode(el.tag, dict(el.attrib), children)
    except TreeError as exc:
        raise MalformedXml(str(exc)) from None


def _outcome(read, xml_text):
    try:
        return read(xml_text)
    except MalformedXml as exc:
        return f"MalformedXml: {exc}"


def test_canonical_write():
    tree = TreeNode("site", {"name": "FNAL", "admin": "bob"}, [
        TreeNode("cluster", {"name": "samadams"}, [
            TreeNode("gatekeeper", {"url": "gk.fnal.gov"}),
        ]),
        TreeNode("station", {"name": "durin"}),
    ])
    assert write_tree(tree) == (
        "<?xml version='1.0'?>\n"
        "<site admin='bob' name='FNAL'>\n"
        "  <cluster name='samadams'>\n"
        "    <gatekeeper url='gk.fnal.gov'/>\n"
        "  </cluster>\n"
        "  <station name='durin'/>\n"
        "</site>\n")


def test_escaping():
    tree = TreeNode("e", {"a": "x<y>&'z", "b": "line\nbreak\ttab\rcr"})
    text = write_tree(tree)
    assert "x&lt;y&gt;&amp;&apos;z" in text
    assert "line&#10;break&#9;tab&#13;cr" in text
    back = read_tree(text)
    assert back == tree


def test_read_accepts_double_quotes_and_any_order():
    a = read_tree('<site name="FNAL" admin="bob"/>')
    b = read_tree("<site admin='bob' name='FNAL'/>")
    assert a == b


def test_read_rejects_text_content():
    with pytest.raises(MalformedXml):
        read_tree("<a>stray</a>")
    with pytest.raises(MalformedXml):
        read_tree("<a><b/>tail</a>")
    # pure whitespace between elements is fine
    read_tree("<a>\n  <b/>\n</a>")


def test_read_rejects_malformed():
    with pytest.raises(MalformedXml):
        read_tree("<a><b></a>")
    with pytest.raises(MalformedXml):
        read_tree("not xml at all")


def test_node_name_validation():
    with pytest.raises(TreeError):
        TreeNode("9starts-with-digit")
    with pytest.raises(TreeError):
        TreeNode("ok", {"bad name": "v"})
    with pytest.raises(TreeError):
        TreeNode("ok", {"a": 5})
    TreeNode("fine_one", {"x-y.z": "v"})


def test_equality_ignores_attr_order_not_child_order():
    a = TreeNode("r", {}, [TreeNode("x"), TreeNode("y")])
    b = TreeNode("r", {}, [TreeNode("y"), TreeNode("x")])
    assert a != b
    assert TreeNode("r", {"p": "1", "q": "2"}) == TreeNode("r", {"q": "2", "p": "1"})
    assert TreeNode("r") != TreeNode("s")
    assert TreeNode("r") != "r"


def test_nodes_are_not_hashable():
    with pytest.raises(TypeError):
        hash(TreeNode("r"))


def test_copy_is_deep():
    tree = TreeNode("r", {"a": "1"}, [TreeNode("c", {"b": "2"})])
    dup = tree.copy()
    assert dup == tree
    dup.children[0].attributes["b"] = "changed"
    dup.attributes["a"] = "changed"
    assert tree.attributes["a"] == "1"
    assert tree.children[0].attributes["b"] == "2"


def test_descendants_document_order():
    tree = TreeNode("r", {}, [
        TreeNode("a", {"n": "1"}, [
            TreeNode("b", {"n": "2"}),
            TreeNode("a", {"n": "3"}),
        ]),
        TreeNode("b", {"n": "4"}),
    ])
    assert [n.attributes.get("n") for n in tree.descendants()] == ["1", "2", "3", "4"]
    assert [n.attributes["n"] for n in tree.descendants("a")] == ["1", "3"]
    assert [n.attributes["n"] for n in tree.descendants("b")] == ["2", "4"]
    found = tree.find("b")
    assert found is not None and found.attributes["n"] == "2"
    assert tree.find("zzz") is None


def _random_tree(rng, depth):
    name = rng.choice(["alpha", "beta", "g.1", "d-2", "_x"])
    attrs = {}
    for _ in range(rng.randrange(3)):
        key = rng.choice(["k1", "k2", "long-name", "v.alue"])
        attrs[key] = rng.choice(["plain", "sp ace", "a<b", "q'uote", 'd"ouble',
                                 "amp&ersand", "new\nline", "tab\t"])
    kids = []
    if depth > 0:
        kids = [_random_tree(rng, depth - 1) for _ in range(rng.randrange(4))]
    return TreeNode(name, attrs, kids)


def test_round_trip_random_trees():
    rng = random.Random(2024)
    for _ in range(120):
        tree = _random_tree(rng, 3)
        text = write_tree(tree)
        assert read_tree(text) == tree
        # canonical form is a fixed point
        assert write_tree(read_tree(text)) == text


# pieces of documents for the parity property. A tame document draws only
# from the first pool of each pair, which a read accepts when the rest of
# the document allows it; a wild one draws from both: names the rule
# refuses, prefixed names bound or not, text, and entities that are
# external or undefined.
_NAMES = (["site", "cluster", "b_1", "x.y-z", "_u"],
          ["\u00e9t\u00e9", "p:q", "z:w", "xml:lang"])
_VALUES = (["v", "", "a b", "&amp;", "&#9;", "&lt;x&gt;", "&txt;", "&ws;"],
           ["&undef;", "&ext;", "&el;", "x&pent;"])
_CONTENT = (["", " ", "\n  ", "\t", "<!-- a comment -->", "<?pi data?>", "<![CDATA[  ]]>",
             "&#32;", "&#10;", "&ws;"],
            ["text", "<![CDATA[x]]>", "\u3000", "\u00a0", "&txt;", "&el;", "&ext;", "&nest;",
             "&pent;", "&undef;", "&amp;", "&#65;", "&lt;"])
_NAMESPACES = (['xmlns=""', 'xmlns:p="urn:p"'], ['xmlns="urn:x"', 'xmlns:z="urn:z"'])
_DECLS = ['<!ENTITY ws "  ">', '<!ENTITY txt "hi">', '<!ENTITY el "<b/>">',
          '<!ENTITY ext SYSTEM "ext.xml">', '<!ENTITY nest "&ws;&txt;">',
          '<!ENTITY % pe "<!ENTITY pent \'pv\'>"> %pe;', '<!ENTITY % xpe SYSTEM "p.ent"> %xpe;',
          '<!ATTLIST site dflt CDATA "d">', '<!ATTLIST cluster p:d CDATA "x">',
          "<!-- in the subset -->", "<?pi in subset?>"]


def _pool(pair, wild):
    return st.sampled_from(pair[0] + pair[1] if wild else pair[0])


@st.composite
def _elements(draw, depth, wild):
    name = draw(_pool(_NAMES, wild))
    attrs = [f'{key}="{value}"' for key, value in draw(st.dictionaries(
        _pool(_NAMES, wild), _pool(_VALUES, wild), max_size=3)).items()]
    attrs += draw(st.lists(_pool(_NAMESPACES, wild), max_size=2, unique=True))
    attrs = draw(st.permutations(attrs))
    content = _pool(_CONTENT, wild)
    parts = [draw(content)]
    if depth:
        for child in draw(st.lists(_elements(depth - 1, wild), max_size=3)):
            parts += [child, draw(content)]
    head = " ".join([name, *attrs])
    if not "".join(parts) and draw(st.booleans()):
        return f"<{head}/>"
    return f"<{head}>{''.join(parts)}</{name}>"


@st.composite
def _documents(draw):
    wild = draw(st.booleans())
    prolog = draw(st.sampled_from(["", "<?xml version='1.0'?>\n",
                                   '<?xml version="1.0" encoding="latin-1"?>']))
    prolog += draw(st.sampled_from(["", "<!-- before -->", "<?pi before?>", "\n"]))
    decls = draw(st.lists(st.sampled_from(_DECLS), max_size=5, unique=True))
    external = draw(st.sampled_from(["", ' SYSTEM "x.dtd"', ' PUBLIC "-//x//EN" "x.dtd"']))
    if decls or external:
        subset = f" [{''.join(decls)}]" if decls or not external else ""
        prolog += f"<!DOCTYPE site{external}{subset}>"
    text = prolog + draw(_elements(3, wild)) + draw(st.sampled_from(
        ["", "\n", "<!-- after -->"] + ["junk", "<after/>"] * wild))
    if wild and draw(st.integers(0, 9)) == 0:  # now and then, cut short
        text = text[:draw(st.integers(1, len(text) - 1))]
    return text


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_the_expat_reader_reads_as_the_elementtree_reader_did(text):
    # the same tree, or MalformedXml with the same message
    assert _outcome(read_tree, text) == _outcome(reference_read_tree, text)


@pytest.mark.parametrize("text, message", [
    # ElementTree refuses an entity that expat skips below an external DTD
    ('<!DOCTYPE site SYSTEM "x.dtd"><site>&foo;</site>',
     "undefined entity &foo;: line 1, column 36"),
    # a namespaced name is spelled {uri}local, as ElementTree spells it
    ('<site xmlns="urn:x"/>', "bad element name '{urn:x}site'"),
    ('<site xmlns:p="urn:p" p:a="1"/>', "bad attribute name '{urn:p}a'"),
    # a tail counts before anything inside the child it follows
    ("<a><b>x</b>y</a>", "element 'a' carries text content"),
    ("<a><b>x</b><c/>y</a>", "element 'b' carries text content"),
    # an element's text counts before the names of the elements in it
    ("<a>t<b \u00e9='1'/></a>", "element 'a' carries text content"),
    ("<a><b \u00e9='1'/>t</a>", "element 'a' carries text content"),
    ("<\u00e9t\u00e9><b>t</b></\u00e9t\u00e9>", "element 'b' carries text content"),
    # a malformed document counts before any of them
    ("<a>t<b></a>", "mismatched tag: line 1, column 9"),
])
def test_the_inputs_that_a_bare_expat_pass_reads_wrongly(text, message):
    assert _outcome(reference_read_tree, text) == f"MalformedXml: {message}"
    assert _outcome(read_tree, text) == f"MalformedXml: {message}"


def test_the_name_memo_keeps_at_most_its_bound():
    names = [f"n{k}" for k in range(tree.NAME_MEMO_ENTRIES + 50)]
    attrs = " ".join(f"{name}='v'" for name in names)
    read = read_tree(f"<site {attrs}/>")
    assert list(read.attributes) == names
    memo = tree.good_name.cache_info()
    assert memo.maxsize == tree.NAME_MEMO_ENTRIES
    assert 0 < memo.currsize <= tree.NAME_MEMO_ENTRIES
    copied = read.copy()  # the constructor's checks go through the same memo
    assert copied == read
    assert tree.good_name.cache_info().currsize <= tree.NAME_MEMO_ENTRIES


def test_a_bad_name_is_refused_after_good_ones_every_time():
    for name in ("good", "also_good", "site"):
        TreeNode(name, {name: "v"})
    for _ in range(2):
        with pytest.raises(TreeError, match="bad element name 'bad name'"):
            TreeNode("bad name")
        with pytest.raises(TreeError, match="bad attribute name '9lives'"):
            TreeNode("good", {"good": "v", "9lives": "v"})
        with pytest.raises(MalformedXml, match="bad attribute name '\u00e9t\u00e9'"):
            read_tree("<good also_good='v' \u00e9t\u00e9='v'/>")
    # a name that only looks right at the start is refused, as is one
    # ending in a line break, which written out would read back without it
    for name in ("good!", "good\n"):
        with pytest.raises(TreeError):
            TreeNode(name)
