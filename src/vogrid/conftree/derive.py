"""Projection of per-service configuration from one site configuration.

Each grid service at a site consumes a slice of the same site tree; deriving
the slice is a pure function of the configuration, so re-deriving after a
re-configuration is always safe.
"""

from __future__ import annotations

from .tree import TreeNode

SUPPORTED_SCHEMA_VERSION = "v0_3"

SERVICE_KINDS = ("advertiser", "station", "monitoring")


class UnsupportedSchemaVersion(Exception):
    pass


class MissingSection(Exception):
    pass


def _check_version(config: TreeNode):
    version = config.attributes.get("schema_version")
    if version != SUPPORTED_SCHEMA_VERSION:
        raise UnsupportedSchemaVersion(
            f"schema_version {version!r}, need {SUPPORTED_SCHEMA_VERSION!r}")


def derive_service_config(config: TreeNode, service_kind: str) -> TreeNode:
    """The slice of `config` that a service of `service_kind`, one of
    SERVICE_KINDS, consumes; ValueError for any other kind."""
    if service_kind not in SERVICE_KINDS:
        raise ValueError(f"unknown service kind {service_kind!r}")
    _check_version(config)
    if service_kind == "advertiser":
        return config.copy()
    if service_kind == "monitoring":
        clusters = [TreeNode("cluster", {"name": c.attributes["name"]})
                    for c in config.descendants("cluster") if "name" in c.attributes]
        return TreeNode("site", {"name": config.attributes.get("name", "")}, clusters)
    stations: list[TreeNode] = []
    _collect_stations(config, "", stations)
    if not stations:
        raise MissingSection("configuration defines no station elements")
    return TreeNode("stations", {"site": config.attributes.get("name", "")}, stations)


def _collect_stations(node: TreeNode, cluster_name: str, out: list[TreeNode]):
    # stations are tagged with their nearest enclosing cluster's name
    for child in node.children:
        if child.element_name == "station":
            st = child.copy()
            st.attributes["cluster"] = cluster_name
            out.append(st)
            continue
        inner = child.attributes.get("name", "") \
            if child.element_name == "cluster" else cluster_name
        _collect_stations(child, inner, out)
