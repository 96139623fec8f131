"""Journaled queue service: the wire protocol and crash recovery."""

import json
import os
import random
import threading
import time

import pytest

from vogrid import jobs, wire
from vogrid.classads import AdKind, ad_from_json, ad_to_json, parse_classad
from vogrid.jobs import IllegalJobTransition, JobState
from vogrid.queue_server import (
    CorruptJournal,
    Journal,
    QueueService,
    replay_journal,
)

from conftest import doubling_chain

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


def test_a_doubling_chain_in_a_submit_is_answered_within_a_second(tmp_path):
    # SUBMIT reads Owner and Dataset while it holds the queue's lock
    service = _service(tmp_path)
    try:
        for text in ('Owner = A60\nDataset = "d"\n', 'Owner = "o"\nDataset = A60\n'):
            hostile = parse_classad(text + doubling_chain(60), AdKind.JOB, ad_id="j")
            start = time.perf_counter()
            reply = service.handle_message(_msg("SUBMIT", ad=ad_to_json(hostile)))
            assert time.perf_counter() - start < 1.0
            assert reply["error"]["code"] == "rejected-ad"
        assert service.handle_message(_msg("SUBMIT", ad=AD_JSON))["result"]["job_id"] == 1
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
    assert [r["event"] for r in replay_journal(str(path))] == ["submit"]


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


def test_a_restarted_queue_sends_byte_identical_status_replies(tmp_path):
    path = tmp_path / "queue.ndjson"

    def replies(service):
        return [wire.encode_line(service.handle_message(_msg("STATUS", n, job_id=n)))
                for n in (1, 2, 3)]

    service = QueueService(str(path))
    try:
        for n in (1, 2, 3):
            service.handle_message(_msg("SUBMIT", n, ad=AD_JSON))
        service.queue.transition(1, JobState.HELD, detail="operator hold")
        service.handle_message(_msg("RELEASE", 4, job_id=1))
        service.queue.transition(1, JobState.MATCHED, detail="FNAL/topaz")
        for state in ("Matched", "Staging", "Running", "Done"):
            service.queue.transition(2, JobState(state))
        before = replies(service)
    finally:
        service.close()
    # the wire form, key order included
    assert before[0] == (
        b'{"id":1,"result":{"job_id":1,"state":"Matched","detail":"FNAL/topaz",'
        b'"history":[{"state":"Submitted","stamp":1,"detail":null},'
        b'{"state":"Idle","stamp":2,"detail":null},'
        b'{"state":"Held","stamp":7,"detail":"operator hold"},'
        b'{"state":"Idle","stamp":8,"detail":null},'
        b'{"state":"Matched","stamp":9,"detail":"FNAL/topaz"}]}}\n')
    revived = QueueService(str(path))
    try:
        assert replies(revived) == before
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


def test_a_shared_ad_is_formatted_once_and_journals_what_formatting_gives(
        tmp_path, monkeypatch):
    # every SUBMIT formatted its ad for the journal, shared or not
    formatted = []

    def counting_ad_to_json(ad):
        formatted.append(ad.ad_id)
        return ad_to_json(ad)

    monkeypatch.setattr(jobs, "ad_to_json", counting_ad_to_json)
    other = dict(AD_JSON, id="k")
    # a source the queue formats otherwise ("1+2" becomes "1 + 2")
    spaced = dict(AD_JSON, id="s", attrs={**AD_JSON["attrs"], "X": "1+2"})
    sequence = [AD_JSON, AD_JSON, other, spaced, dict(AD_JSON), spaced, other, AD_JSON]
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    try:
        for n, ad in enumerate(sequence, 1):
            assert service.handle_message(_msg("SUBMIT", n, ad=ad))["result"]["job_id"] == n
        served = [service.queue.get(n).status_json() for n in range(1, len(sequence) + 1)]
    finally:
        service.close()
    assert sorted(formatted) == ["j", "k", "s"]
    # the bytes formatting each ad again gives
    assert path.read_bytes() == b"".join(
        wire.encode_line({"event": "submit", "job_id": n, "ad": ad_to_json(ad_from_json(ad, AdKind.JOB))})
        for n, ad in enumerate(sequence, 1))
    revived = QueueService(str(path))
    try:
        queue = revived.queue
        assert [queue.get(n).status_json() for n in range(1, len(sequence) + 1)] == served
        assert [queue.get(n).ad for n in range(1, len(sequence) + 1)] == [
            ad_from_json(ad, AdKind.JOB) for ad in sequence]
        assert queue.get(1).ad is queue.get(2).ad is queue.get(8).ad
    finally:
        revived.close()


def test_journal_is_flat_ndjson(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.queue.transition(1, JobState.HELD, detail="operator hold")
    service.close()
    lines = path.read_text().splitlines()
    assert [json.loads(l)["event"] for l in lines] == ["submit", "state"]


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


@pytest.mark.parametrize("tail", ["torn", "unterminated"])
def test_records_appended_after_a_crash_tail_survive_the_next_restart(tmp_path, tail):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.close()
    whole = path.read_bytes()
    if tail == "torn":  # replay drops the fragment
        path.write_bytes(whole + b'{"event":"state","job_')
    else:  # a whole record without its newline, which replay keeps
        path.write_bytes(whole[:-1])
    revived = QueueService(str(path))
    try:
        reply = revived.handle_message(_msg("SUBMIT", 2, ad=AD_JSON))
        assert reply["result"] == {"job_id": 2, "state": "Idle"}
    finally:
        revived.close()
    assert [r["job_id"] for r in replay_journal(str(path))] == [1, 2]
    again = QueueService(str(path))
    try:
        assert [j.state for j in again.queue.jobs.values()] == [JobState.IDLE] * 2
    finally:
        again.close()


def test_corruption_before_the_end_is_fatal(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.handle_message(_msg("SUBMIT", 2, ad=AD_JSON))
    service.close()
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"{garbage"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptJournal, match="line 2"):
        QueueService(str(path))
    # a complete final line that is garbage is corruption too, not a crash tail
    path2 = tmp_path / "tail.ndjson"
    path2.write_bytes(b'{"bad json\n')
    with pytest.raises(CorruptJournal):
        replay_journal(str(path2))


@pytest.mark.parametrize("number", [b"NaN", b"-Infinity", b"1e400"])
def test_a_record_that_is_not_json_is_corrupt_or_a_torn_tail(tmp_path, number):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    service.handle_message(_msg("SUBMIT", ad=AD_JSON))
    service.close()
    whole = path.read_bytes()
    record = b'{"event": "state", "job_id": 1, "stamp": %s}' % number
    path.write_bytes(whole + record + b"\n")
    with pytest.raises(CorruptJournal, match="line 2"):
        replay_journal(str(path))
    path.write_bytes(whole + record)  # without its newline: cut off at restart
    revived = QueueService(str(path))
    try:
        assert revived.queue.get(1).state is JobState.IDLE
    finally:
        revived.close()
    assert path.read_bytes() == whole


def test_the_journal_writes_no_record_that_is_not_json(tmp_path):
    path = tmp_path / "queue.ndjson"
    journal = Journal(str(path))
    try:
        for stamp in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                journal.append({"event": "state", "job_id": 1, "stamp": stamp})
        journal.append({"event": "state", "job_id": 1, "stamp": 2.5})
    finally:
        journal.close()
    assert path.read_bytes() == b'{"event":"state","job_id":1,"stamp":2.5}\n'


def test_submit_appends_one_line_with_one_append_and_one_fsync(tmp_path, monkeypatch):
    path = tmp_path / "queue.ndjson"
    appends, fsyncs = [], []
    real_append, real_fsync = Journal.append, os.fsync
    monkeypatch.setattr(Journal, "append",
                        lambda journal, record: appends.append(record) or real_append(journal, record))
    service = QueueService(str(path))
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    try:
        assert service.handle_message(_msg("SUBMIT", ad=AD_JSON))["result"]["job_id"] == 1
    finally:
        service.close()
    assert len(appends) == len(fsyncs) == 1
    assert path.read_bytes().count(b"\n") == 1


def _write_records(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_a_record_that_does_not_replay_is_corruption_named_by_line(tmp_path):
    submit = {"event": "submit", "job_id": 1, "ad": AD_JSON}
    path = tmp_path / "queue.ndjson"
    for bad, why in [
        ({"event": "new", "job_id": 1, "ad": AD_JSON},  # the older form's first record
         "older form, three records per SUBMIT"),
        (dict(submit, job_id=3), "replay gives 2 where the record holds 3"),
        ({"event": "state", "job_id": 1, "state": "Matched", "stamp": 9, "detail": None},
         "replay gives 3 where the record holds 9"),
        ({"event": "state", "job_id": 1, "state": "Done", "stamp": 3, "detail": None},
         "IllegalJobTransition"),
        ({"event": "state", "job_id": 7, "state": "Held", "stamp": 3, "detail": None},
         "UnknownJob"),
        ({"event": "state", "job_id": 1}, "KeyError"),
        ({"event": "submit", "job_id": 2, "ad": "not an ad"}, "does not replay"),
    ]:
        _write_records(path, submit, bad, submit)
        before = path.read_bytes()
        with pytest.raises(CorruptJournal, match=f"line 2 .*{why}"):
            QueueService(str(path))
        assert path.read_bytes() == before  # a journal that does not replay is left as is


_MATCHED = {"event": "state", "job_id": 1, "state": "Matched", "stamp": 3, "detail": "r"}


@pytest.mark.parametrize("records,line", [
    # the wire's job id is an int, not JSON's true: such records replayed as job 1
    ([{"event": "submit", "job_id": True, "ad": AD_JSON}], 1),
    ([_MATCHED | {"job_id": True}], 2),
    ([_MATCHED | {"job_id": 1.0}], 2),
    ([_MATCHED | {"job_id": "1"}], 2),
    # a detail is text or null: an object or a number once landed in the
    # history, and STATUS echoed it
    ([_MATCHED | {"detail": {"why": "x"}}], 2),
    ([_MATCHED | {"detail": 5}], 2),
    ([_MATCHED | {"detail": ["r"]}], 2),
    # a stamp is a number, a state a state name
    ([_MATCHED | {"stamp": True}], 2),
    ([_MATCHED | {"stamp": "3"}], 2),
    ([_MATCHED | {"stamp": None}], 2),
    ([_MATCHED | {"state": ["Matched"]}], 2),
    ([_MATCHED | {"state": "matched"}], 2),
    ([_MATCHED | {"state": None}], 2),
], ids=["submit-job-id-true", "job-id-true", "job-id-float", "job-id-text",
        "detail-object", "detail-number", "detail-list", "stamp-true", "stamp-text",
        "stamp-null", "state-list", "state-lowercase", "state-null"])
def test_a_record_field_the_wire_would_refuse_is_corruption(tmp_path, records, line):
    path = tmp_path / "queue.ndjson"
    if line > 1:
        records = [{"event": "submit", "job_id": 1, "ad": AD_JSON}, *records]
    _write_records(path, *records)
    with pytest.raises(CorruptJournal, match=f"line {line} does not replay"):
        QueueService(str(path))


@pytest.mark.parametrize("kind", ["slot", "JOB", 1, None, ["job"]])
def test_a_journal_ad_of_an_unknown_kind_is_corruption(tmp_path, kind):
    # the kind is looked up in a table, not by `AdKind(kind)`, and keeps its text
    path = tmp_path / "queue.ndjson"
    _write_records(path, {"event": "submit", "job_id": 1, "ad": AD_JSON | {"kind": kind}})
    with pytest.raises(CorruptJournal) as caught:
        QueueService(str(path))
    assert str(caught.value) == \
        f"line 1 does not replay: ValueError({f'{kind!r} is not a valid AdKind'!r})"
    with pytest.raises(ValueError) as direct:
        AdKind(kind)
    assert str(direct.value) == f"{kind!r} is not a valid AdKind"


def test_a_journal_that_holds_a_resource_ad_is_corruption(tmp_path):
    # replay once took it: job 1 held a resource ad, and STATUS answered Idle,
    # though SUBMIT refuses such an ad as malformed
    path = tmp_path / "queue.ndjson"
    resource = {"id": "x", "kind": "resource",
                "attrs": {"Owner": '"a"', "Dataset": '"d"'}}
    _write_records(path, {"event": "submit", "job_id": 1, "ad": resource})
    before = path.read_bytes()
    with pytest.raises(CorruptJournal) as caught:
        QueueService(str(path))
    assert str(caught.value) == ("line 1 does not replay: ValueError(\"ad kind must be "
                                 "'job', not 'resource'\")")
    assert path.read_bytes() == before
    fresh = QueueService(str(tmp_path / "fresh.ndjson"))
    try:
        reply = fresh.handle_message(_msg("SUBMIT", 1, ad=resource))
    finally:
        fresh.close()
    assert reply["error"] == {"code": "malformed",
                              "message": "ad kind must be 'job', not 'resource'"}


def test_every_replayed_history_entry_holds_a_state_a_number_and_text_or_null(tmp_path):
    path = tmp_path / "queue.ndjson"
    _write_records(path, {"event": "submit", "job_id": 1, "ad": AD_JSON}, _MATCHED,
                   _MATCHED | {"state": "Held", "stamp": 4, "detail": None})
    service = QueueService(str(path))
    try:
        for state, stamp, detail in service.queue.get(1).history:
            assert type(state) is JobState and wire.is_number(stamp)
            assert detail is None or type(detail) is str
    finally:
        service.close()


def test_a_submit_of_a_resource_ad_is_malformed_and_not_journaled(tmp_path):
    # such an ad, with text Owner and Dataset, was once queued and journaled
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    try:
        reply = service.handle_message(_msg("SUBMIT", ad=AD_JSON | {"kind": "resource"}))
        assert reply["error"]["code"] == "malformed"
        assert "'resource'" in reply["error"]["message"]
        assert service.queue.jobs == {}
    finally:
        service.close()
    assert path.read_bytes() == b""


@pytest.mark.parametrize("ad_id", [5, True, None, [], {}])
def test_a_submit_whose_ad_id_is_not_text_is_malformed_and_not_journaled(tmp_path, ad_id):
    # such SUBMITs were once stored and journaled
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    try:
        reply = service.handle_message(_msg("SUBMIT", ad=AD_JSON | {"id": ad_id}))
        assert reply["error"]["code"] == "malformed"
        assert service.queue.jobs == {}
    finally:
        service.close()
    assert path.read_bytes() == b""
    # a journal that holds one anyway does not replay
    _write_records(path, {"event": "submit", "job_id": 1, "ad": AD_JSON | {"id": ad_id}})
    with pytest.raises(CorruptJournal, match="line 1 does not replay"):
        QueueService(str(path))


def test_a_finished_job_in_a_journal_cannot_be_held(tmp_path):
    path = tmp_path / "queue.ndjson"
    service = QueueService(str(path))
    try:
        service.handle_message(_msg("SUBMIT", ad=AD_JSON))
        for state in ("Matched", "Staging", "Running", "Done"):
            service.queue.transition(1, JobState(state))
    finally:
        service.close()
    done = replay_journal(str(path))
    # a journal that holds the edge anyway was not written by this queue
    _write_records(path, *done, {"event": "state", "job_id": 1, "state": "Held",
                                 "stamp": 7, "detail": None})
    with pytest.raises(CorruptJournal, match="line 6 .*Done -> Held"):
        QueueService(str(path))


def _snapshot(queue):
    return {job_id: job.status_json() for job_id, job in queue.jobs.items()}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_journal_cut_anywhere_replays_an_acknowledged_state(tmp_path, seed):
    """Drive a queue through random calls, then cut its journal at every record
    boundary and at random bytes: each cut replays to the state the calls up
    to its last whole record left, and the revived queue answers LIST and
    STATUS."""
    rng = random.Random(seed)
    path = tmp_path / "queue.ndjson"
    ownerless = ad_to_json(parse_classad('Dataset = "d"\n', AdKind.JOB))
    service = QueueService(str(path))
    order = list(JobState)  # Submitted to Done, then Held
    acked = {0: {}}  # journal size after a call -> the state it acknowledged
    try:
        for n in range(60):
            jobs = list(service.queue.jobs)
            roll = rng.random()
            if not jobs or roll < 0.3:
                service.handle_message(_msg("SUBMIT", n, ad=ownerless if roll < 0.05 else AD_JSON))
            elif roll < 0.5:
                service.handle_message(_msg("RELEASE", n, job_id=rng.choice(jobs)))
            else:  # mostly the next step or a hold, sometimes a refused move
                job = service.queue.get(rng.choice(jobs))
                step = JobState.IDLE if job.state is JobState.HELD else \
                    order[order.index(job.state) + 1]
                try:
                    service.queue.transition(
                        job.job_id, rng.choice([step, step, JobState.HELD, rng.choice(order)]),
                        detail=rng.choice([None, "why"]))
                except IllegalJobTransition:
                    pass
            acked[path.stat().st_size] = _snapshot(service.queue)
    finally:
        service.close()
    whole = path.read_bytes()
    assert len(acked) > 30
    assert any(job["state"] == "Held" for state in acked.values() for job in state.values())
    boundaries = [i + 1 for i, b in enumerate(whole) if b == ord("\n")]
    cut_path = tmp_path / "cut.ndjson"
    for cut in sorted({0, *boundaries, *rng.sample(range(len(whole)), 40)}):
        cut_path.write_bytes(whole[:cut])
        revived = QueueService(str(cut_path))
        try:
            # a record that lacks only its newline is whole
            last = max(size for size in acked if size <= cut + 1)
            assert _snapshot(revived.queue) == acked[last], cut
            listed = revived.handle_message(_msg("LIST"))["result"]["jobs"]
            assert [j["job_id"] for j in listed] == list(acked[last])
            for job_id in acked[last]:
                status = revived.handle_message(_msg("STATUS", job_id=job_id))
                assert status["result"] == acked[last][job_id]
        finally:
            revived.close()
        if cut == 0 or cut in boundaries:  # replay appends nothing
            assert cut_path.read_bytes() == whole[:cut]


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

def _submit(port, ad_json):
    """The job id the queue gave, or the error code of its reply."""
    reply = wire.send_request("127.0.0.1", port, {"type": "SUBMIT", "ad": ad_json})
    return reply["result"]["job_id"] if "result" in reply else reply["error"]["code"]


def test_submit_over_wire(tmp_path):
    service = _service(tmp_path)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    try:
        assert _submit(server.port, AD_JSON) == 1
        assert _submit(server.port, AD_JSON) == 2
        assert _submit(server.port, ad_to_json(parse_classad("", AdKind.JOB))) \
            == "rejected-ad"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def test_a_job_id_that_is_not_an_integer_is_malformed_over_the_wire(tmp_path):
    # JSON's true once read as job 1
    service = _service(tmp_path)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    try:
        assert _submit(server.port, AD_JSON) == 1
        with wire.Connection("127.0.0.1", server.port) as conn:
            for mtype in ("STATUS", "RELEASE"):
                for job_id in (True, False, 1.0, "1", None):
                    reply = conn.request({"type": mtype, "job_id": job_id})
                    assert reply["error"]["code"] == "malformed", (mtype, job_id)
                    json.dumps(reply, allow_nan=False)
            assert conn.request({"type": "STATUS", "job_id": 1})["result"]["state"] \
                == "Idle"
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
            job_id = _submit(server.port, AD_JSON)
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
