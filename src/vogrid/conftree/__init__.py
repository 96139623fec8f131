"""Schema-driven configuration: one tree type for schemas and configs.

The tree, XML and derivation layers load with the package; what a station
or a simulation needs ends there. The configuration session (`configurator`,
`session`, `meta`, `directives`, and `subprocess` with them) is imported from
its own modules by whoever runs a session, under the load rule of `vogrid.cli`.
"""

from .derive import (
    MissingSection,
    SERVICE_KINDS,
    SUPPORTED_SCHEMA_VERSION,
    UnsupportedSchemaVersion,
    derive_service_config,
)
from .tree import TreeError, TreeNode
from .xmlio import MalformedXml, read_tree, write_tree
