"""Journaled queue service: the wire protocol and crash recovery."""

import json
import threading

import pytest

from vogrid import wire
from vogrid.classads import AdKind, ad_to_json, parse_classad
from vogrid.jobs import JobState
from vogrid.queue_server import (
    CorruptJournal,
    QueueService,
    replay_journal,
    submit_over_wire,
)

AD_JSON = ad_to_json(parse_classad(
    'Owner = "/C=US/O=demo/CN=alice"\nDataset = "dzero-run2"\n',
    AdKind.JOB, ad_id="j"))


def _service(tmp_path, name="queue.ndjson"):
    return QueueService(str(tmp_path / name))


def _msg(mtype, msg_id=1, **fields):
    return {"type": mtype, "id": msg_id, **fields}


# -- request handling -----------------------------------------------------------------

def test_submit_status_release_flow(tmp_path):
    service = _service(tmp_path)
    try:
        reply = service.handle_message(_msg("SUBMIT", ad=AD_JSON))
        assert reply["result"] == {"job_id": 1, "state": "Idle"}
        status = service.handle_message(_msg("STATUS", 2, job_id=1))["result"]
        assert status["state"] == "Idle"
        assert [e["state"] for e in status["history"]] == ["Submitted", "Idle"]
        # park it, then release it back to Idle over the wire
        service.queue.transition(1, JobState.HELD, detail="operator hold")
        released = service.handle_message(_msg("RELEASE", 3, job_id=1))["result"]
        assert released["state"] == "Idle"
    finally:
        service.close()


def test_error_codes(tmp_path):
    service = _service(tmp_path)
    try:
        bad_ad = {"id": "x", "kind": "job", "attrs": {"Owner": "("}}
        assert service.handle_message(_msg("SUBMIT", ad=bad_ad)) \
            ["error"]["code"] == "malformed"
        ownerless = ad_to_json(parse_classad('Dataset = "d"\n', AdKind.JOB))
        assert service.handle_message(_msg("SUBMIT", ad=ownerless)) \
            ["error"]["code"] == "rejected-ad"
        assert service.handle_message(_msg("STATUS", job_id=7)) \
            ["error"]["code"] == "unknown-job"
        assert service.handle_message(_msg("RELEASE", job_id=7)) \
            ["error"]["code"] == "unknown-job"
        assert service.handle_message(_msg("STATUS", job_id="one")) \
            ["error"]["code"] == "malformed"
        assert service.handle_message(_msg("DRAIN")) \
            ["error"]["code"] == "unsupported"
        assert service.handle_message({"type": "STATUS"}) \
            ["error"]["code"] == "malformed"
        service.handle_message(_msg("SUBMIT", ad=AD_JSON))
        assert service.handle_message(_msg("RELEASE", job_id=1)) \
            ["error"]["code"] == "illegal-transition"
    finally:
        service.close()


def test_list(tmp_path):
    service = _service(tmp_path)
    try:
        assert service.handle_message(_msg("LIST"))["result"] == {"jobs": []}
        service.handle_message(_msg("SUBMIT", ad=AD_JSON))
        service.handle_message(_msg("SUBMIT", 2, ad=AD_JSON))
        listed = service.handle_message(_msg("LIST", 3))["result"]["jobs"]
        assert listed == [{"job_id": 1, "state": "Idle"},
                          {"job_id": 2, "state": "Idle"}]
    finally:
        service.close()


def test_unjournalable_ad_is_refused_and_leaves_no_job(tmp_path):
    # parses, but formatting it for the journal exhausts the stack
    chain = " + ".join(["1"] * 3000)
    deep = {"id": "deep", "kind": "job",
            "attrs": dict(AD_JSON["attrs"], Requirements=chain)}
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    try:
        reply = service.handle_message(_msg("SUBMIT", ad=deep))
        assert reply["error"]["code"] == "rejected-ad"
        assert service.handle_message(_msg("LIST", 2))["result"] == {"jobs": []}
        reply = service.handle_message(_msg("SUBMIT", 3, ad=AD_JSON))
        assert reply["result"] == {"job_id": 1, "state": "Idle"}
        listed = service.handle_message(_msg("LIST", 4))["result"]["jobs"]
        assert listed == [{"job_id": 1, "state": "Idle"}]
    finally:
        service.close()
    assert [r["event"] for r in replay_journal(str(path))] == ["new", "state", "state"]


# -- persistence ------------------------------------------------------------------------

def test_restart_reconstructs_identical_state(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.handle_message(_msg("SUBMIT", 2, ad=AD_JSON))
    service.queue.transition(1, JobState.MATCHED, detail="FNAL/topaz")
    before = {jid: j.status_json() for jid, j in service.queue.jobs.items()}
    service.close()

    revived = QueueService(str(path))
    try:
        after = {jid: j.status_json() for jid, j in revived.queue.jobs.items()}
        assert after == before
        # ids and stamps continue from where the journal left off
        reply = revived.handle_message(_msg("SUBMIT", 9, ad=AD_JSON))
        assert reply["result"]["job_id"] == 3
    finally:
        revived.close()


def test_identical_submissions_share_one_ad(tmp_path):
    path = tmp_path / "queue.ndjson"
    other = dict(AD_JSON, id="k")
    service = QueueService(str(path))
    try:
        for n, ad in enumerate((AD_JSON, AD_JSON, other, dict(AD_JSON)), 1):
            assert service.handle_message(_msg("SUBMIT", n, ad=ad))["result"]["job_id"] == n
        ownerless = ad_to_json(parse_classad('Dataset = "d"\n', AdKind.JOB))
        service.handle_message(_msg("SUBMIT", 5, ad=ownerless))
        jobs = service.queue.jobs
        assert jobs[1].ad is jobs[2].ad is jobs[4].ad
        assert jobs[3].ad is not jobs[1].ad and jobs[3].ad.ad_id == "k"
        # the share table holds only ads that stored jobs hold
        assert len(service.queue._shared_ads) == 2
    finally:
        service.close()
    revived = QueueService(str(path))
    try:
        jobs = revived.queue.jobs
        assert jobs[1].ad is jobs[2].ad is jobs[4].ad is not jobs[3].ad
        assert jobs[1].ad == service.queue.jobs[1].ad
    finally:
        revived.close()


def test_journal_is_flat_ndjson(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.close()
    lines = path.read_text().splitlines()
    assert [json.loads(l)["event"] for l in lines] == ["new", "state", "state"]


def test_truncated_final_line_is_ignored(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.close()
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"event": "state", "job_id": 1, "sta')
    revived = QueueService(str(path))
    try:
        assert revived.queue.get(1).state.value == "Idle"
    finally:
        revived.close()


def test_corruption_before_the_end_is_fatal(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.close()
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"{garbage"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptJournal):
        QueueService(str(path))
    # a complete final line that is garbage is corruption too, not a crash tail
    path2 = tmp_path / "tail.ndjson"
    path2.write_bytes(b'{"bad json\n')
    with pytest.raises(CorruptJournal):
        replay_journal(str(path2))


def test_replay_missing_or_empty_file(tmp_path):
    assert replay_journal(str(tmp_path / "never-written.ndjson")) == []
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    assert replay_journal(str(empty)) == []
    service = QueueService(str(empty))
    try:
        assert service.queue.jobs == {}
    finally:
        service.close()


# -- over the wire ------------------------------------------------------------------------

def test_submit_over_wire(tmp_path):
    service = _service(tmp_path)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    try:
        assert submit_over_wire("127.0.0.1", server.port, AD_JSON) == 1
        assert submit_over_wire("127.0.0.1", server.port, AD_JSON) == 2
        with pytest.raises(RuntimeError):
            submit_over_wire("127.0.0.1", server.port,
                             ad_to_json(parse_classad("", AdKind.JOB)))
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_concurrent_submissions_get_unique_ids(tmp_path):
    service = _service(tmp_path)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    ids = []
    lock = threading.Lock()

    def submit_batch():
        for _ in range(10):
            job_id = submit_over_wire("127.0.0.1", server.port, AD_JSON)
            with lock:
                ids.append(job_id)

    try:
        threads = [threading.Thread(target=submit_batch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(ids) == list(range(1, 41))
    finally:
        server.shutdown()
        server.server_close()
        service.close()
