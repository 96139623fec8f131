"""Line-delimited JSON transport."""

import json
import socket
import threading
import time

import pytest

from vogrid import wire


def _echo(msg):
    return {"id": msg.get("id"), "result": {"echo": msg.get("payload")}}


def _serve(dispatch=_echo, auth_token=None):
    server = wire.LineServer("127.0.0.1", 0, dispatch, auth_token=auth_token)
    server.serve_in_thread()
    return server


def test_request_reply_and_id_auto_increment():
    server = _serve()
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            r1 = conn.request({"type": "PING", "payload": "a"})
            r2 = conn.request({"type": "PING", "payload": "b"})
            assert (r1["id"], r2["id"]) == (1, 2)
            assert (r1["result"]["echo"], r2["result"]["echo"]) == ("a", "b")
            # an explicit id is used as-is and echoed
            r3 = conn.request({"type": "PING", "id": "custom", "payload": "c"})
            assert r3["id"] == "custom"
    finally:
        server.shutdown()
        server.server_close()


def test_port_zero_picks_a_free_port():
    server = _serve()
    try:
        assert server.port > 0
        assert wire.send_request("127.0.0.1", server.port,
                                 {"type": "P", "payload": 1})["result"]["echo"] == 1
    finally:
        server.shutdown()
        server.server_close()


def test_a_port_another_socket_listens_on_is_an_os_error():
    # the bind's own error, not one from closing a server half built
    with socket.create_server(("127.0.0.1", 0)) as busy:
        with pytest.raises(OSError):
            wire.LineServer("127.0.0.1", busy.getsockname()[1], _echo)


def test_wrong_reply_id_is_an_error():
    server = _serve(dispatch=lambda msg: {"id": "not-yours", "result": {}})
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            with pytest.raises(wire.WireError):
                conn.request({"type": "PING"})
    finally:
        server.shutdown()
        server.server_close()


def _not_json(token):
    raise AssertionError(f"reply holds {token}, which is not JSON")


def _raw_exchange(port, *lines):
    """Send raw bytes, read one reply line per input line; each reply must
    be strict JSON."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        f = sock.makefile("rwb")
        for line in lines:
            f.write(line)
            f.flush()
            replies.append(json.loads(f.readline(), parse_constant=_not_json))
    return replies


def test_malformed_lines_keep_the_connection_open():
    server = _serve()
    try:
        replies = _raw_exchange(
            server.port,
            b"this is not json\n",
            b'["an", "array"]\n',
            b"[" * 200_000 + b"\n",  # nested too deep to decode
            b'{"type": "PING", "id": ' + b"7" * 5000 + b"}\n",  # past the digit limit
            b'{"type": "PING", "id": 5, "payload": "still here"}\n')
        assert [r["error"]["code"] for r in replies[:-1]] == ["malformed"] * 4
        assert replies[-1] == {"id": 5, "result": {"echo": "still here"}}
    finally:
        server.shutdown()
        server.server_close()


def test_an_id_that_is_not_json_is_malformed_and_never_echoed():
    server = _serve(wire.dispatcher({"PING": lambda msg: {"pong": True}}))
    try:
        for mtype in ("PING", "NOPE"):
            lines = [b'{"type": "%s", "id": %s}\n' % (mtype.encode(), token)
                     for token in (b"NaN", b"Infinity", b"-Infinity", b"1e400")]
            replies = _raw_exchange(server.port, *lines, b'{"type": "PING", "id": 5}\n')
            assert [(r["id"], r["error"]["code"]) for r in replies[:-1]] == \
                [(None, "malformed")] * 4
            assert replies[-1] == {"id": 5, "result": {"pong": True}}
    finally:
        server.shutdown()
        server.server_close()


def test_a_reply_that_is_not_json_is_refused_by_the_client():
    # a LineServer writes no such reply, so a bare socket sends it
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer():
            sock, _ = listener.accept()
            with sock, sock.makefile("rwb") as f:
                f.readline()
                f.write(b'{"id":1,"result":{"score":NaN}}\n')

        server = threading.Thread(target=answer, daemon=True)
        server.start()
        with wire.Connection("127.0.0.1", listener.getsockname()[1]) as conn:
            with pytest.raises(ValueError):
                conn.request({"type": "PING"})
        server.join(5.0)
        assert not server.is_alive()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_request_that_is_not_json_fails_before_it_is_sent(value):
    received = []
    server = _serve(lambda msg: received.append(msg) or _echo(msg))
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            with pytest.raises(ValueError):
                conn.request({"type": "PING", "payload": {"x": [value]}})
            # nothing went out, so the connection is still in step
            assert conn.request({"type": "PING", "payload": "ok"}) == \
                {"id": 2, "result": {"echo": "ok"}}
        assert [m["payload"] for m in received] == ["ok"]
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("result", [float("nan"), float("-inf"), {"x": object()}])
def test_a_result_that_is_not_json_is_answered_internal(result):
    server = _serve(wire.dispatcher({"BAD": lambda msg: result,
                                     "PING": lambda msg: {"pong": True}}))
    try:
        replies = _raw_exchange(server.port, b'{"type": "BAD", "id": 3}\n',
                                b'{"type": "PING", "id": 4}\n')
        assert replies[0]["id"] == 3
        assert replies[0]["error"]["code"] == "internal"
        assert replies[1] == {"id": 4, "result": {"pong": True}}
    finally:
        server.shutdown()
        server.server_close()


def test_encode_line_writes_what_decode_line_reads():
    value = {"id": 1, "s": "é\n\u2028", "n": [0, -1.5, 10 ** 30, None, True]}
    line = wire.encode_line(value)
    assert line == json.dumps(value, separators=(",", ":")).encode() + b"\n"
    assert wire.decode_line(line) == value
    deep = []
    for _ in range(100_000):
        deep = [deep]
    for bad in (float("nan"), float("inf"), {1j}, deep):
        with pytest.raises(ValueError):
            wire.encode_line(bad)


def test_an_over_long_line_is_malformed_and_closes_the_connection():
    server = _serve()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            # exactly what the server reads, so it closes with nothing unread
            f.write(b"x" * (wire.MAX_LINE_BYTES + 1))
            f.flush()
            assert json.loads(f.readline())["error"]["code"] == "malformed"
            assert f.readline() == b""
        # a line of the longest allowed length is still read as a request
        line = b'{"type": "T", "id": 1}'.ljust(wire.MAX_LINE_BYTES - 1) + b"\n"
        reply = _raw_exchange(server.port, line)
        assert reply == [{"id": 1, "result": {"echo": None}}]
    finally:
        server.shutdown()
        server.server_close()


def test_handler_exception_becomes_internal_error():
    calls = {"n": 0}

    def flaky(msg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("first call explodes")
        return _echo(msg)

    server = _serve(dispatch=flaky)
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            reply = conn.request({"type": "PING"})
            assert reply["error"]["code"] == "internal"
            assert "explodes" in reply["error"]["message"]
            # the server keeps serving on the same connection
            assert conn.request({"type": "PING", "payload": "ok"}) \
                ["result"]["echo"] == "ok"
    finally:
        server.shutdown()
        server.server_close()


def test_auth_token_required_when_configured():
    server = _serve(auth_token="sesame")
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            assert conn.request({"type": "PING"})["error"]["code"] == "unauthorized"
        with wire.Connection("127.0.0.1", server.port,
                             auth_token="wrong") as conn:
            assert conn.request({"type": "PING"})["error"]["code"] == "unauthorized"
        with wire.Connection("127.0.0.1", server.port,
                             auth_token="sesame") as conn:
            assert "result" in conn.request({"type": "PING"})
        # servers without a token ignore stray auth fields
    finally:
        server.shutdown()
        server.server_close()


def test_server_without_token_ignores_auth_field():
    server = _serve()
    try:
        with wire.Connection("127.0.0.1", server.port,
                             auth_token="anything") as conn:
            assert "result" in conn.request({"type": "PING"})
    finally:
        server.shutdown()
        server.server_close()


def test_blank_lines_are_skipped():
    server = _serve()
    try:
        replies = _raw_exchange(server.port,
                                b"\n\n" + b'{"type": "T", "id": 1}\n')
        assert replies == [{"id": 1, "result": {"echo": None}}]
    finally:
        server.shutdown()
        server.server_close()


def test_connecting_to_a_closed_server_fails():
    server = _serve()
    port = server.port
    server.shutdown()
    server.server_close()
    with pytest.raises(OSError):
        wire.Connection("127.0.0.1", port)


def test_a_closed_server_answers_no_connection_it_had_accepted():
    server = _serve()
    conn = wire.Connection("127.0.0.1", server.port)
    try:
        assert conn.request({"type": "PING", "payload": 1})["result"]["echo"] == 1
        server.shutdown()
        server.server_close()
        with pytest.raises((wire.ConnectionClosed, OSError)):
            conn.request({"type": "PING", "payload": 2})
    finally:
        conn.close()


def test_closing_waits_for_an_in_flight_request_and_answers_no_other():
    started, release, handled = threading.Event(), threading.Event(), []

    def slow(msg):
        if msg["payload"] == "slow":
            started.set()
            release.wait(5)
        handled.append(msg["payload"])
        return {"id": msg["id"], "result": {}}

    server = _serve(slow)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        # two requests in one write: the second is read while the first runs
        sock.sendall(b'{"type": "T", "id": 1, "payload": "slow"}\n'
                     b'{"type": "T", "id": 2, "payload": "queued"}\n')
        assert started.wait(5)
        server.shutdown()
        closing = threading.Thread(target=server.server_close)
        closing.start()
        deadline = time.monotonic() + 5
        while not server.closing and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        closing.join(5)
        assert not closing.is_alive()
        assert handled == ["slow"]  # the queued request was never dispatched
        replies = b""
        while chunk := sock.recv(4096):
            replies += chunk
        assert b'"id":2' not in replies


# -- the request dispatcher shared by every service ------------------------------------

def _matchmaker(tmp_path, request):
    from vogrid.matchmaker import MatchmakerService
    service = MatchmakerService(clock=lambda: 0.0)
    return service.handle_message, {"type": "MATCH_REQUEST", "jobs": []}


def _queue(tmp_path, request):
    from vogrid.queue_server import QueueService
    service = QueueService(str(tmp_path / "journal.ndjson"))
    request.addfinalizer(service.close)
    return service.handle_message, {"type": "LIST"}


def _station(tmp_path, request):
    from vogrid.station import DatasetCatalog, StationState, handler
    catalog = DatasetCatalog({"d": [("f0", 10, "A")]})
    station = StationState("st", links={"A": 1e8})
    return handler(catalog, station), {"type": "LOOKUP", "dataset": "d"}


def _info(tmp_path, request):
    from vogrid.advertise import InfoService
    from vogrid.sim import make_site_config
    service = InfoService(make_site_config("S", "c", "st", {"A": 1e8}))
    return service.handle_message, {"type": "INFO_QUERY"}


@pytest.mark.parametrize("make_service", [_matchmaker, _queue, _station, _info],
                         ids=["mm", "q", "station", "info"])
def test_every_service_follows_the_dispatcher_contract(make_service, tmp_path, request):
    handle, valid = make_service(tmp_path, request)
    reply = handle(valid | {"id": "req-7"})
    assert reply["id"] == "req-7" and "result" in reply
    for msg, msg_id, code in [
        ({"id": 1}, 1, "malformed"),                       # missing type
        (dict(valid), None, "malformed"),                  # missing id
        ({"type": "NO_SUCH_REQUEST", "id": 2}, 2, "unsupported"),
        ({"type": ["LIST"], "id": 3}, 3, "unsupported"),   # type is not text
        ({"type": 4, "id": 4}, 4, "unsupported"),
    ]:
        reply = handle(msg)
        assert (reply["id"], reply["error"]["code"]) == (msg_id, code)
    assert handle(["not", "an", "object"])["error"]["code"] == "malformed"



def test_a_reply_holds_a_result_or_an_error_with_text_code_and_message():
    assert wire.reply_result({"id": 1, "result": {"ok": True}}) == {"ok": True}
    assert wire.reply_result({"id": 1, "result": None}) is None
    with pytest.raises(wire.ErrorReply) as exc:
        wire.reply_result(wire.error_reply(1, "unknown-job", "no job 7"))
    assert (exc.value.code, exc.value.message, str(exc.value)) == \
        ("unknown-job", "no job 7", "no job 7")
    for reply in ({"id": 1}, {"id": 1, "error": "x"}, {"id": 1, "error": None},
                  {"id": 1, "error": {"code": 3, "message": "m"}},
                  {"id": 1, "error": {"code": "c"}},
                  {"id": 1, "error": {"code": "c", "message": ["m"]}}):
        with pytest.raises(wire.WireError) as exc:
            wire.reply_result(reply)
        assert not isinstance(exc.value, wire.ErrorReply), reply
