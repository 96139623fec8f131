"""The universal configurator.

One walk over a schema tree produces a configuration tree of the same type:
control attributes (cardinalityMin/cardinalityMax) decide how many instances
of each element to emit, every other attribute value is a directive that
yields the configured value, possibly by asking the answer source.

Two element conventions make the configurator self-hosting:

  * an `elementName` attribute names the output element with its resolved
    value instead of the schema element's own name;
  * children of a reserved element `attribute` do not become child elements;
    their resolved `name` and `value` pairs are spliced into the parent
    element's attributes.

Together these let a schema describe another schema, so the built-in
meta-schema can be configured into any ordinary schema.

Each rule of the framework is stated once:

  * a number written as text is read by `wire.number_text`: here the
    cardinalities, in `session` a count, elsewhere a station's quantities
    and a cluster's slots;
  * an element or attribute name is checked by `tree`'s rule, through its
    one bounded memo;
  * a prior configuration's value is offered in place of the schema's
    default or exec command, where `_resolve` decides the default.
"""

from __future__ import annotations

from .. import wire
from .directives import Ask, Fixed, SetVar, parse_directive
from .session import ConfigureError
from .tree import TreeError, TreeNode

CONTROL_ATTRS = ("cardinalityMin", "cardinalityMax")
ELEMENT_NAME_ATTR = "elementName"
ATTRIBUTE_ELEMENT = "attribute"


class CardinalityViolation(ConfigureError):
    pass


class UnboundVar(ConfigureError):
    pass


class DuplicateAttribute(ConfigureError):
    pass


class _Instance:
    __slots__ = ("output_name", "resolved", "parent")

    def __init__(self, output_name: str, parent: "_Instance | None"):
        self.output_name = output_name
        self.resolved: dict[str, str] = {}
        self.parent = parent


def _display(inst: _Instance) -> str:
    name = inst.resolved.get("name")
    if name is not None:
        return f"{inst.output_name} '{name}'"
    parent = inst.parent
    if parent is not None and parent.resolved.get("name") is not None:
        return (f"{inst.output_name} at the "
                f"{parent.output_name} '{parent.resolved['name']}'")
    return f"the {inst.output_name}"


def _attr_prompt(attr: str, inst: _Instance, default: str | None) -> str:
    tail = f" [{default}]:" if default is not None else ""
    return f"What is the {attr} of {_display(inst)}?{tail} "


def _count_prompt(child_name: str, inst: _Instance, default: int) -> str:
    return f"How many {child_name} elements under {_display(inst)}? [{default}]: "


def _cardinality(node: TreeNode) -> tuple[int, int | None]:
    def read(attr, fallback):
        raw = node.attributes.get(attr)
        if raw is None:
            return fallback
        try:
            return wire.number_text(raw, whole=True)
        except ValueError:
            raise CardinalityViolation(
                f"{node.element_name}: {attr}={raw!r} is not a whole number") from None
    lo = read("cardinalityMin", 0)
    hi = read("cardinalityMax", None)
    if hi is not None and lo > hi:
        raise CardinalityViolation(
            f"{node.element_name}: cardinalityMin {lo} > cardinalityMax {hi}")
    return lo, hi


def _resolve(directive, attr: str, inst: _Instance, session, bindings: dict,
             prior: str | None) -> str:
    """The value of one attribute. A question offers the `prior`
    configuration's value, if there is one, in place of the schema's
    default or exec command."""
    if isinstance(directive, Fixed):
        return directive.text
    if isinstance(directive, Ask):
        default = (prior if prior is not None
                   else directive.default if directive.command is None
                   else session.exec_default(directive.command))
        return session.next_text(_attr_prompt(attr, inst, default), default)
    if isinstance(directive, SetVar):
        value = _resolve(directive.then, attr, inst, session, bindings, prior)
        bindings[directive.var] = value
        return value
    if directive.var not in bindings:  # a RefVar, the one directive left
        raise UnboundVar(f"{attr}: no value bound to {directive.var}")
    return bindings[directive.var]


def _configure_element(schema_node: TreeNode, parent: _Instance | None, session,
                       bindings: dict, prior: TreeNode | None) -> TreeNode:
    inst = _Instance(schema_node.element_name, parent)
    for aname, raw in schema_node.attributes.items():
        if aname in CONTROL_ATTRS:
            continue
        value = _resolve(parse_directive(raw), aname, inst, session, bindings,
                         prior.attributes.get(aname) if prior is not None else None)
        if aname == ELEMENT_NAME_ATTR:
            inst.output_name = value
        else:
            inst.resolved[aname] = value
    children: list[TreeNode] = []
    for child_schema in schema_node.children:
        lo, hi = _cardinality(child_schema)
        prior_kids = ([c for c in prior.children
                       if c.element_name == child_schema.element_name]
                      if prior is not None else [])
        if hi is not None and lo == hi:
            n = lo
        else:
            default = len(prior_kids) if prior is not None else lo
            default = max(lo, default) if hi is None else min(max(lo, default), hi)
            n = session.next_count(
                _count_prompt(child_schema.element_name, inst, default), default)
        if n < lo or (hi is not None and n > hi):
            raise CardinalityViolation(
                f"{child_schema.element_name}: count {n} outside [{lo}, {hi if hi is not None else 'unbounded'}]")
        for k in range(n):
            prior_kid = prior_kids[k] if k < len(prior_kids) else None
            node = _configure_element(child_schema, inst, session, bindings, prior_kid)
            if child_schema.element_name == ATTRIBUTE_ELEMENT:
                if "name" not in node.attributes or "value" not in node.attributes:
                    raise ConfigureError(
                        "attribute elements must resolve name and value")
                spliced = node.attributes["name"]
                if spliced in inst.resolved:
                    raise DuplicateAttribute(
                        f"{_display(inst)}: attribute {spliced!r} defined twice")
                inst.resolved[spliced] = node.attributes["value"]
            else:
                children.append(node)
    try:
        return TreeNode(inst.output_name, inst.resolved, children)
    except TreeError as exc:
        raise ConfigureError(str(exc)) from None


def configure(schema: TreeNode, session, prior: TreeNode | None = None) -> TreeNode:
    """Run one configuration session; exactly one root element is produced."""
    bindings: dict[str, str] = {}
    return _configure_element(schema, None, session, bindings, prior)
