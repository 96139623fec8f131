"""Advertisement expression language: values, expressions, ads, evaluation."""

from .ads import (AdKind, ClassAd, ad_from_json, ad_to_json, parse_classad,
                  symmetric_match)
from .evaluator import evaluate
from .exprs import AttrRef, Binary, Call, Expr, Literal, Scope, Unary, format_expr
from .parser import ParseError, parse_expr
from .registry import EMPTY_REGISTRY, DuplicateFunction, FnRegistry
from .values import (ERROR, FALSE, TRUE, UNDEFINED, Value, ValueKind, boolean,
                     format_value, integer, real, text)

__all__ = [
    "AdKind", "ClassAd", "ad_from_json", "ad_to_json",
    "parse_classad", "symmetric_match", "evaluate", "AttrRef", "Binary", "Call",
    "Expr", "Literal", "Scope", "Unary", "format_expr", "ParseError",
    "parse_expr", "EMPTY_REGISTRY", "DuplicateFunction", "FnRegistry",
    "ERROR", "FALSE", "TRUE", "UNDEFINED", "Value", "ValueKind", "boolean",
    "format_value", "integer", "real", "text",
]
