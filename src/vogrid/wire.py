"""Newline-delimited JSON over TCP.

Every request is one JSON object on one line with at least "type" and "id"
fields; every reply echoes the id. Failures come back as
{"id": ..., "error": {"code": ..., "message": ...}} and the connection stays
open, except after a line longer than MAX_LINE_BYTES: that is answered
"malformed" and the connection closed. A server constructed with a token
requires an "auth" field on every request.

Services answer through `dispatcher(handlers)`, a map from request type to a
handler that returns the result object. A request without "type" or "id" is
"malformed", one whose type has no handler (or is not text) "unsupported";
a handler's return value is sent as {"id": ..., "result": ...}, and a
`RequestError(code, message)` it raises as that error.

A client reads every reply through `reply_result`: a result, or an error
with text code and message, or a WireError.

Each kind of input has one rule. A number is what `is_number` accepts:
handlers read a number field through `number_field`, and the station's
quantities and the catalog's file sizes are checked by `is_number` too. A
number written as text, as a configuration attribute or a typed count, is
read through `number_text`: as `decode_line` reads a line, then taken only
if `is_number` takes it. A list of text is read through `text_list_field`,
a port by `is_port`, and a station's address through `address_field`.
Every line, and every JSON file the program opens (`read_json_file`), is
decoded by `decode_line`, which takes JSON only: a line with NaN, ±Infinity
or a number beyond a float's range is not JSON, so it is "malformed" and no
reply ever echoes such a value. Lines are
written through `encode_line`, which refuses to write such a line: a request
holding NaN fails in the client before it is sent, and a result that is not
JSON is answered "internal".
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import sys
import threading
import time
from typing import Callable, Mapping

# the longest request line a server reads, newline included (far above any request)
MAX_LINE_BYTES = 8 * 1024 * 1024

# how long LineServer.server_close waits for the requests in flight
CLOSE_WAIT_SECONDS = 1.0


class WireError(Exception):
    pass


class ConnectionClosed(WireError):
    """The server closed the connection before it replied."""


class ErrorReply(WireError):
    """A well-formed error reply, as `reply_result` reads it."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class RequestError(Exception):
    """Raised by a request handler; becomes an error reply with this code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def error_reply(msg_id, code: str, message: str) -> dict:
    return {"id": msg_id, "error": {"code": code, "message": message}}


def reply_result(reply: dict):
    """The result of a reply. A reply holds a "result", or an "error"
    object with text "code" and "message", which is raised as an
    ErrorReply; any other reply is a WireError."""
    if "result" in reply:
        return reply["result"]
    err = reply.get("error")
    if (isinstance(err, dict) and isinstance(err.get("code"), str)
            and isinstance(err.get("message"), str)):
        raise ErrorReply(err["code"], err["message"])
    raise WireError("reply holds neither a result nor an error with text code and message")


def is_number(value, whole: bool = False) -> bool:
    """Whether `value` is a number: a finite, nonnegative int or float, or
    with `whole` an int. JSON's true and false are not, nor are NaN,
    ±Infinity and an integer too large for a float."""
    # ints compare with the float bound exactly; NaN fails every comparison
    return (type(value) in ((int,) if whole else (int, float))
            and 0 <= value <= sys.float_info.max)


def number_field(msg: dict, field: str, default=None):
    """`msg[field]` if it is a number (`is_number`); `default` when it is
    absent or null. Anything else is "malformed"."""
    value = msg.get(field)
    if value is None:
        return default
    if not is_number(value):
        raise RequestError("malformed", f"{field} must be a finite nonnegative number")
    return value


def number_text(text: str, whole: bool = False):
    """The number that `text` spells, if `is_number` takes it (with `whole`,
    an int). The text is read as `decode_line` reads a line, so space
    around it is ignored and only JSON's spelling is taken: `1_000`,
    non-ASCII digits, a sign, a leading zero, NaN and ±Infinity are a
    ValueError, as are a negative number and, with `whole`, `1e3`."""
    try:
        value = decode_line(text.encode("utf-8"))
    except ValueError:
        value = None
    if not is_number(value, whole):
        raise ValueError(f"{text!r} is not a {'whole ' if whole else ''}number")
    return value


def text_list_field(msg: dict, field: str) -> list[str]:
    """`msg[field]` if it is a list of text; `[]` when it is absent. Anything
    else is "malformed": null, a text, and a list holding anything but text."""
    value = msg.get(field, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise RequestError("malformed", f"{field} must be a list of text")
    return value


def is_port(value) -> bool:
    """Whether `value` is a port to connect to: an int in 1-65535, not true."""
    return type(value) is int and 1 <= value <= 65535


def address_field(msg: dict, field: str) -> tuple[str, int]:
    """`msg[field]` as (host, port) if it is a list of a text host and a
    port (`is_port`). Anything else is "malformed": null, true or 70.9 as
    the port, a port out of range, and a host that is not text."""
    value = msg.get(field)
    if not (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
            and is_port(value[1])):
        raise RequestError("malformed", f"{field} must be [host, port]: a text "
                                        "host and an integer port in 1-65535")
    return value[0], value[1]


def _finite(literal: str) -> float:
    """A float literal or one of the tokens NaN and ±Infinity, if finite."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


# one decoder for every line, as the json module shares its default one
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def decode_line(line: bytes):
    """The JSON value on one UTF-8 line. Anything that is not JSON is a
    ValueError: bad UTF-8, too many digits or levels, the tokens NaN and
    ±Infinity, and a number that decodes to an infinite float."""
    try:
        return _DECODER.decode(line.decode("utf-8", "surrogatepass"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_json_file(path: str):
    """The JSON document in a file, decoded by `decode_line` as a line
    would be: NaN, ±Infinity and bad UTF-8 are ValueErrors."""
    with open(path, "rb") as fh:
        return decode_line(fh.read())


# shared, as json.dumps shares its own default encoder
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def encode_line(obj) -> bytes:
    """`obj` as one UTF-8 line of JSON, newline included. Anything JSON
    cannot hold is a ValueError: NaN, ±Infinity, a value of another type,
    and nesting too deep or circular."""
    try:
        return (_ENCODER.encode(obj) + "\n").encode("utf-8")
    except (TypeError, RecursionError) as exc:
        raise ValueError(f"not JSON: {exc}") from None


def dispatcher(handlers: Mapping[str, Callable[[dict], dict]]) -> Callable[[dict], dict]:
    """One reply per request: route by "type", wrap results and RequestErrors."""
    def dispatch(msg: dict) -> dict:
        if not isinstance(msg, dict) or "type" not in msg or "id" not in msg:
            return error_reply(msg.get("id") if isinstance(msg, dict) else None,
                               "malformed", "request needs type and id fields")
        msg_id = msg["id"]
        mtype = msg["type"]
        handler = handlers.get(mtype) if isinstance(mtype, str) else None
        if handler is None:
            return error_reply(msg_id, "unsupported", f"unknown request type {mtype!r}")
        try:
            return {"id": msg_id, "result": handler(msg)}
        except RequestError as exc:
            return error_reply(msg_id, exc.code, exc.message)
    return dispatch


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self._send(error_reply(None, "malformed", "request line too long"))
                return
            if not line or self.server.closing:
                return
            line = line.strip()
            if not line:
                continue
            try:
                msg = decode_line(line)
            except ValueError:
                self._send(error_reply(None, "malformed", "not valid JSON"))
                continue
            if not isinstance(msg, dict):
                self._send(error_reply(None, "malformed", "request must be an object"))
                continue
            token = self.server.auth_token
            if token is not None and msg.get("auth") != token:
                self._send(error_reply(msg.get("id"), "unauthorized", "bad or missing auth token"))
                continue
            try:
                reply = self.server.dispatch(msg)
            except Exception as exc:  # handler bug; keep serving
                reply = error_reply(msg.get("id"), "internal", str(exc))
            self._send(reply)

    def _send(self, reply: dict):
        try:
            data = encode_line(reply)
        except ValueError as exc:  # a handler's result that is not JSON
            data = encode_line(error_reply(reply.get("id"), "internal", str(exc)))
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass


class LineServer(socketserver.ThreadingTCPServer):
    """TCP server feeding one-line JSON requests to a dispatch callable.

    Each accepted connection is served on its own daemon thread. Besides the
    listening socket, `server_close` shuts down every accepted connection,
    so no request is dispatched after it returns, even one already read,
    and waits up to CLOSE_WAIT_SECONDS for the requests in flight; their
    replies are not sent. Call `shutdown` first if `serve_forever` runs.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, dispatch: Callable[[dict], dict],
                 auth_token: str | None = None):
        # set before binding: a failed bind calls server_close, which reads them
        self.dispatch = dispatch
        self.auth_token = auth_token
        self.closing = False
        self._lock = threading.Lock()
        self._serving: dict[socket.socket, threading.Thread] = {}
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request, client_address):
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._lock:
            closing = self.closing
            if not closing:
                self._serving[request] = thread
        if closing:
            self.shutdown_request(request)
        else:
            thread.start()

    def shutdown_request(self, request):
        with self._lock:
            self._serving.pop(request, None)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._lock:
            self.closing = True
            serving = list(self._serving.items())
        for sock, _ in serving:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # the client has gone already
                pass
        deadline = time.monotonic() + CLOSE_WAIT_SECONDS
        for _, thread in serving:
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))

    def serve_in_thread(self) -> threading.Thread:
        # tight poll so shutdown() returns promptly
        t = threading.Thread(target=lambda: self.serve_forever(poll_interval=0.05),
                             daemon=True)
        t.start()
        return t


class Connection:
    """Client side: send one request per call, read one reply line. A reply
    line that is not JSON is a ValueError (`decode_line`); one that is JSON
    but not an object, or a connection closed before it, is a WireError."""

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 auth_token: str | None = None):
        self._auth = auth_token
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def request(self, msg: dict) -> dict:
        msg = dict(msg)
        if "id" not in msg:
            self._next_id += 1
            msg["id"] = self._next_id
        if self._auth is not None:
            msg["auth"] = self._auth
        self._sock.sendall(encode_line(msg))
        line = self._rfile.readline()
        if not line:
            raise ConnectionClosed("connection closed by server")
        reply = decode_line(line)
        if not isinstance(reply, dict):
            raise WireError("reply is not a JSON object")
        if reply.get("id") != msg["id"]:
            raise WireError(f"reply id {reply.get('id')!r} does not match {msg['id']!r}")
        return reply

    def close(self):
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def send_request(host: str, port: int, msg: dict, timeout: float = 10.0,
                 auth_token: str | None = None) -> dict:
    with Connection(host, port, timeout=timeout, auth_token=auth_token) as conn:
        return conn.request(msg)
