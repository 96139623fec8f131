"""Attribute directives of the configuration schema language.

A schema attribute value is a comma-separated list whose first token picks
the directive:

    inquire                     ask the user, no default
    inquire-default,TEXT        ask, offering TEXT as the default
    inquire-default,exec,CMD    ask, offering the output of CMD as the default
    set,VAR,DIRECTIVE           resolve DIRECTIVE, bind the value to VAR
    ref,VAR                     reuse the value bound to VAR, no question

Anything whose first token is none of these keywords is a fixed value copied
verbatim, commas and all. The three asking forms parse to one
`Ask(default, command)`, with at most one of the two set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_VAR_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


class UnknownDirective(Exception):
    pass


@dataclass(frozen=True)
class Fixed:
    text: str


@dataclass(frozen=True)
class Ask:
    default: str | None = None
    command: str | None = None


@dataclass(frozen=True)
class SetVar:
    var: str
    then: object


@dataclass(frozen=True)
class RefVar:
    var: str


_KEYWORDS = ("inquire", "inquire-default", "set", "ref")


def parse_directive(raw: str):
    head = raw.split(",", 1)[0]
    if head not in _KEYWORDS:
        return Fixed(raw)
    tokens = raw.split(",")
    if head == "inquire":
        if len(tokens) != 1:
            raise UnknownDirective(f"inquire takes no arguments: {raw!r}")
        return Ask()
    if head == "inquire-default":
        if len(tokens) < 2:
            raise UnknownDirective(f"inquire-default needs a default: {raw!r}")
        if tokens[1] == "exec":
            if len(tokens) < 3 or not ",".join(tokens[2:]).strip():
                raise UnknownDirective(f"exec default needs a command: {raw!r}")
            return Ask(command=",".join(tokens[2:]))
        return Ask(",".join(tokens[1:]))
    if head == "set":
        if len(tokens) < 3:
            raise UnknownDirective(f"set needs a variable and a directive: {raw!r}")
        var = tokens[1]
        if not _VAR_RE.match(var):
            raise UnknownDirective(f"bad variable name {var!r} in {raw!r}")
        return SetVar(var, parse_directive(",".join(tokens[2:])))
    if len(tokens) != 2:
        raise UnknownDirective(f"ref takes one variable: {raw!r}")
    if not _VAR_RE.match(tokens[1]):
        raise UnknownDirective(f"bad variable name {tokens[1]!r} in {raw!r}")
    return RefVar(tokens[1])
