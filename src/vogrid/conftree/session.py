"""Answer sources for configuration sessions.

AnswerScript replays a prepared list of answers (and canned command outputs)
so sessions are reproducible; InteractiveInput talks to a terminal and really
runs commands for exec defaults.
"""

from __future__ import annotations

import subprocess

from .. import wire

EXEC_TIMEOUT_SECONDS = 5.0  # how long an exec default's command may run


class ConfigureError(Exception):
    pass


class AnswerExhausted(ConfigureError):
    pass


class ScriptMismatch(ConfigureError):
    pass


class _AcceptDefault:
    def __repr__(self):
        return "AcceptDefault"


ACCEPT_DEFAULT = _AcceptDefault()


class Count:
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)

    def __repr__(self):
        return f"Count({self.n})"


class AnswerScript:
    """Strictly ordered answers: str, ACCEPT_DEFAULT, or Count(n)."""

    def __init__(self, answers: list, exec_outputs: dict[str, str] | None = None):
        self._answers = list(answers)
        self._pos = 0
        self.exec_outputs = dict(exec_outputs or {})

    def _take(self, prompt: str):
        if self._pos >= len(self._answers):
            raise AnswerExhausted(f"no answer left for: {prompt}")
        a = self._answers[self._pos]
        self._pos += 1
        return a

    def next_text(self, prompt: str, default: str | None) -> str:
        a = self._take(prompt)
        if isinstance(a, Count):
            raise ScriptMismatch(f"got {a!r} where text was expected: {prompt}")
        if a is ACCEPT_DEFAULT:
            if default is None:
                raise ScriptMismatch(f"no default to accept: {prompt}")
            return default
        return a

    def next_count(self, prompt: str, default: int) -> int:
        a = self._take(prompt)
        if a is ACCEPT_DEFAULT:
            return default
        if not isinstance(a, Count):
            raise ScriptMismatch(f"got {a!r} where a count was expected: {prompt}")
        return a.n

    def exec_default(self, command: str) -> str:
        if command not in self.exec_outputs:
            raise ScriptMismatch(f"no scripted output for command {command!r}")
        return self.exec_outputs[command]


class InteractiveInput:
    """Terminal-driven session; empty input means take the default."""

    def _ask(self, prompt: str) -> str:
        try:
            return input(prompt)
        except EOFError:
            raise AnswerExhausted(f"input closed at: {prompt}") from None

    def next_text(self, prompt: str, default: str | None) -> str:
        line = self._ask(prompt).strip()
        if not line:
            return default if default is not None else ""
        return line

    def next_count(self, prompt: str, default: int) -> int:
        while True:
            line = self._ask(prompt).strip()
            if not line:
                return default
            try:
                return wire.number_text(line, whole=True)
            except ValueError:
                print("please enter a whole number")

    def exec_default(self, command: str) -> str:
        try:
            proc = subprocess.run(command, shell=True, capture_output=True,
                                  text=True, timeout=EXEC_TIMEOUT_SECONDS)
        except (OSError, subprocess.TimeoutExpired):
            return ""
        return proc.stdout.strip() if proc.returncode == 0 else ""


def parse_answer_file(text: str) -> AnswerScript:
    """One answer per line: literal text, `@default`, `@count N`, where N
    is a whole number as `wire.number_text` reads it.

    `!exec CMD = OUTPUT` lines declare canned command outputs and may sit
    anywhere. Blank lines and `#` comments are skipped.
    """
    answers = []
    exec_outputs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("!exec "):
            body = stripped[len("!exec "):]
            if " = " not in body:
                raise ScriptMismatch(f"line {lineno}: want `!exec CMD = OUTPUT`")
            cmd, out = body.split(" = ", 1)
            exec_outputs[cmd.strip()] = out
            continue
        if stripped == "@default":
            answers.append(ACCEPT_DEFAULT)
            continue
        if stripped.startswith("@count"):
            try:
                _, n = stripped.split()
                answers.append(Count(wire.number_text(n, whole=True)))
            except ValueError:
                raise ScriptMismatch(f"line {lineno}: want `@count N`") from None
            continue
        answers.append(stripped)
    return AnswerScript(answers, exec_outputs)
