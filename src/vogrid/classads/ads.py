"""Classified advertisements: named attribute->expression bindings.

Ad file format: one `Name = expression` binding per line, `#` starts a
comment line, blank lines ignored. Attribute names are unique up to case
folding and keep their display spelling.
"""

from __future__ import annotations

import re
import threading
import weakref
from enum import StrEnum
from typing import Iterator, Optional

from . import values
from .evaluator import evaluate
from .exprs import AttrRef, Expr, Literal, Scope, expr_key, format_expr, references
from .parser import ParseError, parse_expr
from .registry import EMPTY_REGISTRY, FnRegistry


class AdKind(StrEnum):
    """An ad's kind, which is its own wire name (`ad_to_json`), and reads as
    that name in a message too: a refusal quotes a kind the same whether it
    came off the wire or from `ad_to_json`. A kind hashes as its name, salted
    per process, so no set of kinds may be iterated."""

    JOB = "job"
    RESOURCE = "resource"

    __repr__ = str.__repr__


# read once here: reading an enum member looks it up on its class each time
_TEXT, _UNDEFINED = values.ValueKind.TEXT, values.ValueKind.UNDEFINED

_BINDING = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+?)\s*$")


class Autocluster:
    """The identity shared by the ads that one evaluation cannot tell apart
    (`ClassAd.autocluster`). `calls` tells whether that evaluation may call
    a function, whose result may change with the environment."""

    __slots__ = ("calls", "__weakref__")

    def __init__(self, calls: bool):
        self.calls = calls


# the bindings an evaluation reads -> their autocluster; an entry lives only
# as long as something holds its autocluster
_AUTOCLUSTERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_AUTOCLUSTERS_LOCK = threading.Lock()


class ClassAd:
    """Immutable set of attribute bindings plus a kind and an identity."""

    def __init__(self, attrs: dict[str, Expr], kind: AdKind, ad_id: str = ""):
        by_folded: dict[str, Expr] = {}
        for name, expr in attrs.items():
            low = name.lower()
            if low in by_folded:
                raise ValueError(f"duplicate attribute {name!r} (case-insensitive)")
            by_folded[low] = expr
        self._attrs = dict(attrs)
        self._by_folded = by_folded
        # folded name -> self-read; (name,) -> `self_quantity`
        self._self_values: dict = {}
        self._reach: Optional[tuple[frozenset[str], bool]] = None
        # start names -> (other names, registry reads, autocluster)
        self._autoclusters: dict[tuple[str, ...], tuple] = {}
        self.kind = kind
        self.ad_id = ad_id

    def key(self) -> tuple:
        """A hashable image of the kind and bindings: ads with equal keys
        evaluate alike against any ad."""
        return (self.kind, tuple((name, expr_key(expr))
                                 for name, expr in self._attrs.items()))

    def lookup(self, name: str) -> Optional[Expr]:
        return self._by_folded.get(name.lower())

    def evaluate_self(self, name: str) -> values.Value:
        """The attribute alone: SELF is this ad, no OTHER, no functions.

        Memoized per attribute: the bindings are immutable, and a self-read
        sees nothing but them."""
        low = name.lower()
        memo = self._self_values
        value = memo.get(low)
        if value is None:
            expr = self._by_folded.get(low)
            value = (values.UNDEFINED if expr is None
                     else evaluate(expr, self, None, EMPTY_REGISTRY))
            memo[low] = value
        return value

    def self_text(self, name: str) -> Optional[str]:
        """The attribute's text, or None when it is not text."""
        v = self.evaluate_self(name)
        return v.data if v.kind is _TEXT else None

    def self_quantity(self, name: str) -> Optional[float]:
        """A finite nonnegative number, or None for Undefined; else ValueError.

        Memoized per name as given, beside the self-reads, under the key
        `(name,)`; a ValueError is raised again on every call."""
        memo = self._self_values
        key = (name,)
        x = memo.get(key, memo)  # the memo itself stands for "not kept"
        if x is memo:
            v = self.evaluate_self(name)
            if v.kind is _UNDEFINED:
                x = None
            else:
                x = v.as_real()
                if x is None or x < 0:
                    raise ValueError(
                        f"ad {self.ad_id!r}: {name} must be a nonnegative number")
            memo[key] = x
        return x

    def other_reach(self) -> tuple[frozenset[str], bool]:
        """The attributes this ad's bindings refer to through OTHER,
        case-folded, and whether they call a function. Memoized."""
        if self._reach is None:
            others, calls = set(), False
            for expr in self._by_folded.values():
                for node in references(expr):
                    if type(node) is not AttrRef:
                        calls = True
                    elif node.scope is Scope.OTHER:
                        others.add(node.name.lower())
            self._reach = (frozenset(others), calls)
        return self._reach

    def autocluster(self, start: tuple[str, ...], other_names: frozenset[str],
                    reg: FnRegistry) -> Autocluster:
        """This ad's autocluster for evaluating the attributes `start`
        (case-folded) against ads whose bindings refer through OTHER to no
        attribute outside `other_names`, calling functions from `reg`.

        The sharing rule (`FnRegistry`): ads that agree on every binding an
        evaluation can read, through SELF references, through the other
        ads' OTHER references and through the SELF attributes its handlers
        declare with `reads`, evaluate alike. Those bindings are the closure
        of `start` and `other_names` over SELF references and declared
        `reads`; every ad with equal bindings there gets the one interned
        autocluster. Memoized per `start`, for the last `other_names` and
        registry reads.
        """
        cached = self._autoclusters.get(start)
        if cached is not None and cached[0] == other_names and cached[1] == reg.reads:
            return cached[2]
        names: set[str] = set()
        todo = [*start, *other_names]
        calls = False
        while todo:
            name = todo.pop()
            if name in names:
                continue
            names.add(name)
            expr = self._by_folded.get(name)
            if expr is None:
                continue
            for node in references(expr):
                if type(node) is not AttrRef:
                    calls = True
                    todo.extend(reg.reads.get(node.fn_name.lower(), ()))  # unknown: Error
                elif node.scope is Scope.SELF:
                    todo.append(node.name.lower())
        key = tuple(sorted((name, expr_key(self._by_folded[name]))
                           for name in names if name in self._by_folded))
        with _AUTOCLUSTERS_LOCK:
            cluster = _AUTOCLUSTERS.get(key)
            if cluster is None:
                cluster = _AUTOCLUSTERS[key] = Autocluster(calls)
        self._autoclusters[start] = (other_names, dict(reg.reads), cluster)
        return cluster

    def items(self) -> Iterator[tuple[str, Expr]]:
        return iter(self._attrs.items())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._by_folded

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassAd) and self.kind == other.kind
                and self.ad_id == other.ad_id and self._attrs == other._attrs)

    def __repr__(self) -> str:
        return f"ClassAd({self.kind} {self.ad_id!r}, {len(self._attrs)} attrs)"


def parse_classad(text: str, kind: AdKind, ad_id: str = "") -> ClassAd:
    attrs: dict[str, Expr] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _BINDING.match(line)
        if not m:
            raise ParseError(f"line {lineno}: expected 'Name = expression'", 0)
        name, rhs = m.group(1), m.group(2)
        if name.lower() in (k.lower() for k in attrs):
            raise ParseError(f"line {lineno}: duplicate attribute {name!r}", 0)
        try:
            attrs[name] = parse_expr(rhs)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.offset) from None
    return ClassAd(attrs, kind, ad_id)


def ad_to_json(ad: ClassAd) -> dict:
    return {
        "id": ad.ad_id,
        "kind": ad.kind,
        "attrs": {name: format_expr(expr) for name, expr in ad.items()},
    }


def of_kind(obj: dict, kind: AdKind) -> dict:
    """`obj`, an ad in its JSON form, if its kind is `kind`: a ValueError
    naming the kind it has otherwise. A service calls it on each ad a request
    carries."""
    if obj["kind"] != kind:
        raise ValueError(f"ad kind must be {kind!r}, not {obj['kind']!r}")
    return obj


def ad_from_json(obj: dict) -> ClassAd:
    """The ad `ad_to_json` gave. An absent id is ""; one that is not text is
    a ValueError."""
    ad_id = obj.get("id", "")
    if not isinstance(ad_id, str):
        raise ValueError(f"ad id must be text, not {ad_id!r}")
    attrs = {name: parse_expr(src) for name, src in obj["attrs"].items()}
    return ClassAd(attrs, AdKind(obj["kind"]), ad_id)


_DEFAULT_REQUIREMENTS = Literal(values.TRUE)


def symmetric_match(job: ClassAd, res: ClassAd, reg: FnRegistry = EMPTY_REGISTRY,
                    env=None) -> bool:
    """Two-way Requirements check; a missing Requirements attribute is true.

    Undefined or Error on either side counts as a non-match.
    """
    job_req = job._by_folded.get("requirements", _DEFAULT_REQUIREMENTS)
    if not evaluate(job_req, job, res, reg, env).is_true():
        return False
    res_req = res._by_folded.get("requirements", _DEFAULT_REQUIREMENTS)
    return evaluate(res_req, res, job, reg, env).is_true()
