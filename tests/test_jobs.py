"""Job records, legal lifecycles, and the in-process queue."""

import itertools
import random

import pytest

from vogrid.classads import UNDEFINED, AdKind, integer, parse_classad
from vogrid.jobs import (
    HistoryEntry,
    IllegalJobTransition,
    JobQueue,
    JobRecord,
    JobState,
    RejectedAd,
    UnknownJob,
    output_bytes,
    run_seconds,
    validate_job_ad,
)

AD = parse_classad('Owner = "/C=US/O=demo/CN=alice"\nDataset = "dzero-run2"\n',
                   AdKind.JOB, ad_id="j")


def _job():
    return JobRecord(1, AD)


def test_job_ad_field():
    assert AD.self_text("Owner") == "/C=US/O=demo/CN=alice"
    assert AD.self_text("Missing") is None
    numeric = parse_classad("Owner = 5\n", AdKind.JOB)
    assert numeric.self_text("Owner") is None


def test_evaluate_self_reads_absent_as_undefined():
    assert AD.evaluate_self("Missing") is UNDEFINED
    ad = parse_classad("A = B + 1\nB = 2\nC = OTHER.X\n", AdKind.JOB)
    assert ad.evaluate_self("A") == integer(3)
    assert ad.evaluate_self("C") is UNDEFINED


@pytest.mark.parametrize("src,n_bytes,seconds", [
    (None, None, 0.0), ("undefined", None, 0.0), ("0", 0, 0.0),
    ("1000", 1000, 1000.0), ("2.9", 2, 2.9),
])
def test_output_bytes_and_run_seconds(src, n_bytes, seconds):
    def ad(attr):
        return parse_classad(f"{attr} = {src}\n" if src else "", AdKind.JOB)
    assert output_bytes(ad("OutputBytes")) == n_bytes
    assert run_seconds(ad("RunSeconds")) == seconds


def test_validate_job_ad():
    assert validate_job_ad(AD) == ("/C=US/O=demo/CN=alice", "dzero-run2")
    with pytest.raises(RejectedAd):
        validate_job_ad(parse_classad('Dataset = "d"\n', AdKind.JOB))
    with pytest.raises(RejectedAd):
        validate_job_ad(parse_classad('Owner = "o"\n', AdKind.JOB))
    with pytest.raises(RejectedAd):
        validate_job_ad(parse_classad('Owner = "o"\nDataset = 7\n', AdKind.JOB))


FORWARD = [JobState.SUBMITTED, JobState.IDLE, JobState.MATCHED,
           JobState.STAGING, JobState.RUNNING, JobState.DONE]


def test_full_forward_lifecycle():
    job = _job()
    for stamp, state in enumerate(FORWARD):
        job.advance(state, float(stamp))
    assert job.state is JobState.DONE
    assert [e.state for e in job.history] == FORWARD


def test_transition_legality_matrix():
    # brute-force every ordered pair: only documented edges are accepted
    allowed = {
        (None, JobState.SUBMITTED),
        (JobState.SUBMITTED, JobState.IDLE),
        (JobState.IDLE, JobState.MATCHED),
        (JobState.MATCHED, JobState.STAGING),
        (JobState.STAGING, JobState.RUNNING),
        (JobState.RUNNING, JobState.DONE),
        (JobState.HELD, JobState.IDLE),
    }
    allowed |= {(s, JobState.HELD) for s in JobState if s is not JobState.HELD}

    def fresh_in(state):
        job = _job()
        if state is None:
            return job
        path = {None: [], **{s: FORWARD[:i + 1] for i, s in enumerate(FORWARD)}}
        if state is JobState.HELD:
            job.advance(JobState.SUBMITTED, 0.0)
            job.advance(JobState.HELD, 0.0)
            return job
        for i, s in enumerate(path[state]):
            job.advance(s, float(i))
        return job

    for cur, nxt in itertools.product([None] + list(JobState), JobState):
        job = fresh_in(cur)
        if (cur, nxt) in allowed:
            job.advance(nxt, 99.0)
            assert job.state is nxt
        else:
            with pytest.raises(IllegalJobTransition):
                job.advance(nxt, 99.0)


def test_done_has_no_forward_edges():
    job = _job()
    for stamp, state in enumerate(FORWARD):
        job.advance(state, float(stamp))
    for nxt in (JobState.IDLE, JobState.MATCHED, JobState.RUNNING, JobState.DONE):
        with pytest.raises(IllegalJobTransition):
            job.advance(nxt, 10.0)
    # an administrative hold is the one thing a finished job still accepts
    job.advance(JobState.HELD, 10.0)
    assert job.state is JobState.HELD


def test_stamps_must_be_monotone():
    job = _job()
    job.advance(JobState.SUBMITTED, 5.0)
    with pytest.raises(IllegalJobTransition):
        job.advance(JobState.IDLE, 4.9)
    job.advance(JobState.IDLE, 5.0)  # equal stamps are fine


def test_matched_resource_reads_latest_match():
    job = _job()
    for stamp, (state, detail) in enumerate([
            (JobState.SUBMITTED, None), (JobState.IDLE, None),
            (JobState.MATCHED, "FNAL/samadams#1"), (JobState.HELD, "lost claim"),
            (JobState.IDLE, None), (JobState.MATCHED, "FNAL/topaz")]):
        job.advance(state, float(stamp), detail)
    assert job.matched_resource() == "FNAL/topaz"
    assert _job().matched_resource() is None


def test_status_json():
    job = _job()
    job.advance(JobState.SUBMITTED, 1.0)
    job.advance(JobState.IDLE, 2.0)
    assert job.status_json() == {
        "job_id": 1,
        "state": "Idle",
        "detail": None,
        "history": [{"state": "Submitted", "stamp": 1.0, "detail": None},
                    {"state": "Idle", "stamp": 2.0, "detail": None}],
    }
    assert HistoryEntry(JobState.HELD, 3, "why").to_json() == \
        {"state": "Held", "stamp": 3, "detail": "why"}


# -- the queue -----------------------------------------------------------------------

def test_submit_assigns_sequential_ids_and_lands_idle():
    q = JobQueue()
    j1, j2 = q.submit(AD), q.submit(AD)
    assert (j1.job_id, j2.job_id) == (1, 2)
    assert j1.state is JobState.IDLE
    assert [e.state for e in j1.history] == [JobState.SUBMITTED, JobState.IDLE]
    # logical stamps increase across the whole queue, not per job
    assert j2.history[0].stamp > j1.history[-1].stamp


def test_submit_validates():
    q = JobQueue()
    with pytest.raises(RejectedAd):
        q.submit(parse_classad('Owner = "o"\n', AdKind.JOB))
    assert q.jobs == {}


def test_queue_transition_and_release():
    q = JobQueue()
    job = q.submit(AD)
    q.transition(job.job_id, JobState.MATCHED, detail="FNAL/topaz")
    q.transition(job.job_id, JobState.HELD, detail="no route")
    assert job.state is JobState.HELD and job.detail == "no route"
    q.release(job.job_id)
    assert job.state is JobState.IDLE
    with pytest.raises(IllegalJobTransition):
        q.release(job.job_id)  # only held jobs release
    with pytest.raises(UnknownJob):
        q.transition(99, JobState.IDLE)
    with pytest.raises(UnknownJob):
        q.get(99)


def test_in_state():
    q = JobQueue()
    a, b = q.submit(AD), q.submit(AD)
    q.transition(b.job_id, JobState.MATCHED)
    assert [j.job_id for j in q.in_state(JobState.IDLE)] == [a.job_id]
    assert [j.job_id for j in q.in_state(JobState.MATCHED)] == [b.job_id]
    assert q.in_state(JobState.DONE) == []


def test_in_state_index_matches_a_full_scan():
    def check(queue):
        for state in JobState:
            scan = sorted((j for j in queue.jobs.values() if j.state is state),
                          key=lambda j: j.job_id)
            assert queue.in_state(state) == scan

    forward = [JobState.IDLE, JobState.MATCHED, JobState.STAGING,
               JobState.RUNNING, JobState.DONE]
    rng = random.Random(5)
    records = []
    q = JobQueue(journal_sink=records.append)
    for _ in range(400):
        if not q.jobs or rng.random() < 0.1:
            q.submit(AD)
            check(q)
            continue
        job = q.jobs[rng.choice(list(q.jobs))]
        try:
            if job.state is JobState.HELD:
                q.release(job.job_id)
            elif job.state is not JobState.DONE and rng.random() < 0.8:
                q.transition(job.job_id, forward[forward.index(job.state) + 1])
            else:
                q.transition(job.job_id, rng.choice(list(JobState)), detail="x")
        except IllegalJobTransition:
            pass  # a refused move must leave the index as it was
        check(q)
    assert q.in_state(JobState.HELD) and q.in_state(JobState.DONE)
    clone = JobQueue()
    for record in records:
        clone.apply_journal_record(record)
        check(clone)
    for state in JobState:
        assert [j.job_id for j in clone.in_state(state)] == \
            [j.job_id for j in q.in_state(state)]


def test_journal_sink_records_every_mutation():
    records = []
    q = JobQueue(journal_sink=records.append)
    job = q.submit(AD)
    q.transition(job.job_id, JobState.MATCHED, detail="r1")
    assert [r["event"] for r in records] == ["new", "state", "state", "state"]
    assert records[0]["job_id"] == job.job_id
    assert records[0]["ad"]["id"] == "j"
    assert records[-1] == {"event": "state", "job_id": job.job_id,
                           "state": "Matched", "stamp": 3, "detail": "r1"}


def test_replay_from_journal_records_reproduces_queue():
    records = []
    q = JobQueue(journal_sink=records.append)
    j1 = q.submit(AD)
    j2 = q.submit(AD)
    q.transition(j1.job_id, JobState.MATCHED, detail="FNAL/topaz")
    q.transition(j2.job_id, JobState.HELD, detail="stuck")

    clone = JobQueue()
    for record in records:
        clone.apply_journal_record(record)
    assert set(clone.jobs) == set(q.jobs)
    for job_id, original in q.jobs.items():
        assert clone.jobs[job_id].status_json() == original.status_json()
    # replay restores the counters too: new work continues, never collides
    j3 = clone.submit(AD)
    assert j3.job_id == 3
    assert j3.history[0].stamp > clone.jobs[2].history[-1].stamp


def test_records_and_history_entries_have_no_instance_dict():
    job = JobQueue().submit(AD)
    assert not hasattr(job, "__dict__")
    assert not hasattr(job.history[0], "__dict__")


def test_apply_journal_record_rejects_unknown_events():
    with pytest.raises(ValueError):
        JobQueue().apply_journal_record({"event": "explode"})
