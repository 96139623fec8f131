"""Resource advertisement and the pull-based information tree.

Both services are projections of the site configuration tree. Pattern
selection matches structure on the descendant axis, so a configuration that
grows new wrapper elements or extra attributes keeps advertising the same
clusters; the information tree mirrors the named elements of the
configuration as a hierarchy of dn paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import wire
from .classads import AdKind, ClassAd, ad_to_json
from .classads.exprs import Literal
from .classads.values import text
from .conftree import TreeNode

INFO_KINDS = ("site", "cluster", "station", "gatekeeper")

_CONSUMED_CLUSTER_ATTRS = ("name", "architecture", "slots")


class MissingAttribute(Exception):
    pass


class DuplicateDn(Exception):
    pass


@dataclass(frozen=True)
class Pattern:
    site_node: TreeNode
    cluster_node: TreeNode
    gatekeeper_node: TreeNode
    station_node: TreeNode


def _pick(cluster: TreeNode, kind: str) -> TreeNode | None:
    """First descendant of the kind in document order; preferred='true' wins."""
    first = None
    for node in cluster.descendants(kind):
        if node.attributes.get("preferred") == "true":
            return node
        if first is None:
            first = node
    return first


def select_patterns(config: TreeNode) -> list[Pattern]:
    """One pattern per cluster that has a gatekeeper and a station below it;
    a cluster lacking either is skipped."""
    patterns = []
    for cluster in config.descendants("cluster"):
        gatekeeper = _pick(cluster, "gatekeeper")
        station = _pick(cluster, "station")
        if gatekeeper is not None and station is not None:
            patterns.append(Pattern(site_node=config, cluster_node=cluster,
                                    gatekeeper_node=gatekeeper, station_node=station))
    return patterns


def _dn_of(pattern: Pattern, node: TreeNode, kind: str) -> str:
    site = pattern.site_node.attributes.get("name", "?")
    cluster = pattern.cluster_node.attributes.get("name", "?")
    name = node.attributes.get("name")
    leaf = f"{kind}={name}" if name else kind
    return f"site={site}/cluster={cluster}/{leaf}"


def _require(pattern: Pattern, node: TreeNode, kind: str, attr: str) -> str:
    if attr not in node.attributes:
        raise MissingAttribute(f"{_dn_of(pattern, node, kind)} has no {attr!r}")
    return node.attributes[attr]


def generate_classads_with_provenance(
        patterns: list[Pattern]) -> tuple[list[ClassAd], dict[str, dict[str, str]]]:
    """One resource ad per pattern slot, plus attribute-level provenance.

    The slots of one pattern bind the same attributes under ids `Name#1`,
    `Name#2`, ... (just `Name` for one slot)."""
    ads = []
    provenance: dict[str, dict[str, str]] = {}
    for p in patterns:
        site_name = p.site_node.attributes.get("name")
        if site_name is None:
            raise MissingAttribute("site element has no 'name'")
        cluster_name = _require(p, p.cluster_node, "cluster", "name")
        url = _require(p, p.gatekeeper_node, "gatekeeper", "url")
        station = _require(p, p.station_node, "station", "name")
        slots_raw = p.cluster_node.attributes.get("slots", "1")
        try:
            slots = wire.number_text(slots_raw, whole=True)
        except ValueError:
            slots = 0
        if slots < 1:
            raise MissingAttribute(
                f"site={site_name}/cluster={cluster_name}: "
                f"slots={slots_raw!r} is not a positive whole number")
        name = f"{site_name}/{cluster_name}"
        site_dn = f"site={site_name}"
        cluster_dn = f"{site_dn}/cluster={cluster_name}"
        attrs: dict = {"Name": Literal(text(name))}
        sources = {"Name": f"{cluster_dn}@name"}
        if "architecture" in p.cluster_node.attributes:
            attrs["Architecture"] = Literal(text(p.cluster_node.attributes["architecture"]))
            sources["Architecture"] = f"{cluster_dn}@architecture"
        attrs["Gatekeeper"] = Literal(text(url))
        sources["Gatekeeper"] = f"{_dn_of(p, p.gatekeeper_node, 'gatekeeper')}@url"
        attrs["Station_ID"] = Literal(text(station))
        sources["Station_ID"] = f"{_dn_of(p, p.station_node, 'station')}@name"
        for aname, avalue in p.cluster_node.attributes.items():
            if aname in _CONSUMED_CLUSTER_ATTRS:
                continue
            attrs[f"Site_{aname}"] = Literal(text(avalue))
            sources[f"Site_{aname}"] = f"{cluster_dn}@{aname}"
        for k in range(1, slots + 1):
            ad_id = name if slots == 1 else f"{name}#{k}"
            ads.append(ClassAd(attrs, AdKind.RESOURCE, ad_id))
            provenance[ad_id] = dict(sources)
    return ads, provenance


def generate_classads(patterns: list[Pattern]) -> list[ClassAd]:
    ads, _ = generate_classads_with_provenance(patterns)
    return ads


# -- information tree -------------------------------------------------------------

def build_info_tree(config: TreeNode) -> dict[str, dict[str, str]]:
    """A map from the dn of every named site, cluster, station and gatekeeper
    element to its attributes; DuplicateDn if two elements share a dn."""
    tree: dict[str, dict[str, str]] = {}
    _walk_info(config, "", tree)
    return tree


def _walk_info(node: TreeNode, parent_dn: str, tree: dict):
    dn = parent_dn
    if node.element_name in INFO_KINDS and "name" in node.attributes:
        component = f"{node.element_name}={node.attributes['name']}"
        dn = f"{parent_dn}/{component}" if parent_dn else component
        if dn in tree:
            raise DuplicateDn(dn)
        tree[dn] = dict(node.attributes)
    for child in node.children:
        _walk_info(child, dn, tree)


def query_info(tree: dict, prefix: str) -> list[tuple[str, dict[str, str]]]:
    """The entries at or below the prefix, sorted by dn. A prefix matches
    whole dn components only: "site=A" matches "site=A/cluster=c", never
    "site=AB"."""
    return [(dn, dict(tree[dn])) for dn in sorted(tree)
            if not prefix or dn == prefix or dn.startswith(prefix + "/")]


# -- wire services -----------------------------------------------------------------

class InfoService:
    """The INFO_QUERY handler that `vogrid info serve` runs over one
    config-derived tree: it answers with the tree's entries at or below a
    prefix (`query_info`), as the configuration states them."""

    def __init__(self, config: TreeNode):
        self.tree = build_info_tree(config)
        self.handle_message = wire.dispatcher({"INFO_QUERY": self._info_query})

    def _info_query(self, msg: dict) -> dict:
        prefix = msg.get("prefix", "")
        if not isinstance(prefix, str):
            raise wire.RequestError("malformed", "prefix must be text")
        entries = [{"dn": dn, "attributes": attrs}
                   for dn, attrs in query_info(self.tree, prefix)]
        return {"entries": entries}


def parse_gridmap(text_body: str) -> list[str]:
    """One grid subject per line; surrounding quotes optional, # comments."""
    subjects = []
    for line in text_body.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith('"') and line.endswith('"') and len(line) > 1:
            line = line[1:-1]
        subjects.append(line)
    return subjects


def advertise_once(config: TreeNode, send: Callable[[dict], dict],
                   gridmap: Iterable[str], ttl_seconds: float) -> list[str]:
    """Generate ads from the config and push each to the matchmaker.
    `send` returns a reply's result and raises on an error reply."""
    pushed = []
    for ad in generate_classads(select_patterns(config)):
        send({"type": "ADVERTISE", "ad": ad_to_json(ad),
              "gridmap": list(gridmap), "ttl": ttl_seconds})
        pushed.append(ad.ad_id)
    return pushed
