"""Schema-driven configuration: one tree type for schemas and configs.

The tree, XML and derivation layers load with the package; what a station
or a simulation needs ends there. The configuration session (`configurator`,
`session`, `meta`, `directives`, which bring `subprocess` with them) loads
on the first use of one of its names.
"""

import importlib

from .derive import (
    MissingSection,
    SERVICE_KINDS,
    SUPPORTED_SCHEMA_VERSION,
    UnsupportedSchemaVersion,
    derive_service_config,
)
from .tree import TreeError, TreeNode
from .xmlio import MalformedXml, read_tree, write_tree

# name -> the submodule that defines it, loaded on first use (PEP 562)
_LAZY = {
    "CardinalityViolation": "configurator",
    "DuplicateAttribute": "configurator",
    "UnboundVar": "configurator",
    "configure": "configurator",
    "UnknownDirective": "directives",
    "parse_directive": "directives",
    "MAX_DESIGN_DEPTH": "meta",
    "meta_schema": "meta",
    "ACCEPT_DEFAULT": "session",
    "AnswerExhausted": "session",
    "AnswerScript": "session",
    "ConfigureError": "session",
    "Count": "session",
    "InteractiveInput": "session",
    "ScriptMismatch": "session",
    "parse_answer_file": "session",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ACCEPT_DEFAULT",
    "AnswerExhausted",
    "AnswerScript",
    "CardinalityViolation",
    "ConfigureError",
    "Count",
    "DuplicateAttribute",
    "InteractiveInput",
    "MAX_DESIGN_DEPTH",
    "MalformedXml",
    "MissingSection",
    "SERVICE_KINDS",
    "SUPPORTED_SCHEMA_VERSION",
    "ScriptMismatch",
    "TreeError",
    "TreeNode",
    "UnboundVar",
    "UnknownDirective",
    "UnsupportedSchemaVersion",
    "configure",
    "derive_service_config",
    "meta_schema",
    "parse_answer_file",
    "parse_directive",
    "read_tree",
    "write_tree",
]
