"""Job records, legal lifecycles, and the in-process queue."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vogrid import wire
from vogrid.classads import UNDEFINED, AdKind, ad_to_json, integer, parse_classad
from vogrid.jobs import (
    IllegalJobTransition,
    JobQueue,
    JobState,
    RejectedAd,
    UnknownJob,
    output_bytes,
    run_seconds,
    validate_job_ad,
)

AD = parse_classad('Owner = "/C=US/O=demo/CN=alice"\nDataset = "dzero-run2"\n',
                   AdKind.JOB, ad_id="j")


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


@pytest.mark.parametrize("src", ["-1", '"1000"', "true", "error", "1e308 * 10",
                                 "9" * 400, "-" + "9" * 400])
def test_a_quantity_that_is_not_a_finite_nonnegative_number_is_value_error(src):
    # a 400-digit Integer once raised OverflowError, which no caller expects
    for attr, read in (("OutputBytes", output_bytes), ("RunSeconds", run_seconds)):
        ad = parse_classad(f"{attr} = {src}\n", AdKind.JOB, ad_id="j")
        with pytest.raises(ValueError):
            ad.self_quantity(attr)
        with pytest.raises(ValueError):
            read(ad)


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


def _stored(stamp=0.0):
    """A queue holding one Idle job submitted at `stamp`, and the job."""
    q = JobQueue()
    return q, q.submit(AD, stamp=stamp)


def test_full_forward_lifecycle():
    q, job = _stored()
    for stamp, state in enumerate(FORWARD[2:], 2):
        q.transition(job.job_id, state, float(stamp))
    assert job.state is JobState.DONE
    assert [state for state, _, _ in job.history] == FORWARD
    assert [stamp for _, stamp, _ in job.history] == [0.0, 0.0, 2.0, 3.0, 4.0, 5.0]


def test_transition_legality_matrix():
    # brute-force every state a stored job can be in against every target:
    # only documented edges are accepted. A stored job is never in Submitted
    # or in no state, since `submit` takes both of those steps itself
    allowed = {
        (JobState.IDLE, JobState.MATCHED),
        (JobState.MATCHED, JobState.STAGING),
        (JobState.STAGING, JobState.RUNNING),
        (JobState.RUNNING, JobState.DONE),
        (JobState.HELD, JobState.IDLE),
    }
    allowed |= {(s, JobState.HELD) for s in JobState
                if s not in (JobState.HELD, JobState.DONE)}

    def fresh_in(state):
        q, job = _stored()
        path = [JobState.HELD] if state is JobState.HELD else \
            FORWARD[2:FORWARD.index(state) + 1]
        for i, s in enumerate(path, 1):
            q.transition(job.job_id, s, float(i))
        assert job.state is state
        return q, job

    reachable = [s for s in JobState if s is not JobState.SUBMITTED]
    for cur, nxt in itertools.product(reachable, JobState):
        q, job = fresh_in(cur)
        if (cur, nxt) in allowed:
            q.transition(job.job_id, nxt, 99.0)
            assert job.state is nxt
        else:
            with pytest.raises(IllegalJobTransition):
                q.transition(job.job_id, nxt, 99.0)
            assert job.state is cur


def test_done_has_no_forward_edges():
    q, job = _stored()
    for stamp, state in enumerate(FORWARD[2:], 2):
        q.transition(job.job_id, state, float(stamp))
    # not even a hold: a held job can be released, and a finished one must
    # not run again
    for nxt in (JobState.IDLE, JobState.MATCHED, JobState.RUNNING, JobState.DONE,
                JobState.HELD):
        with pytest.raises(IllegalJobTransition):
            q.transition(job.job_id, nxt, 10.0)
    assert job.state is JobState.DONE


def test_stamps_must_be_monotone():
    q, job = _stored(5.0)
    with pytest.raises(IllegalJobTransition):
        q.transition(job.job_id, JobState.MATCHED, 4.9)
    q.transition(job.job_id, JobState.MATCHED, 5.0)  # equal stamps are fine
    # a queue stamp is checked too: 1 comes before the job's 5.0
    with pytest.raises(IllegalJobTransition):
        q.transition(job.job_id, JobState.STAGING)
    assert [stamp for _, stamp, _ in job.history] == [5.0, 5.0, 5.0] and q._seq == 0


def test_status_json():
    q, job = _stored(1.0)
    q.transition(job.job_id, JobState.MATCHED, 2.0, "FNAL/topaz")
    assert job.status_json() == {
        "job_id": 1,
        "state": "Matched",
        "detail": "FNAL/topaz",
        "history": [{"state": "Submitted", "stamp": 1.0, "detail": None},
                    {"state": "Idle", "stamp": 1.0, "detail": None},
                    {"state": "Matched", "stamp": 2.0, "detail": "FNAL/topaz"}],
    }


def test_status_json_through_every_reachable_state():
    # the STATUS form of each step: a hold with its reason, a release, then
    # every forward state to Done; the reply's state and detail are the last
    # entry's
    q = JobQueue()
    job = q.submit(AD)
    steps = [(JobState.HELD, "why"), (JobState.IDLE, None),
             (JobState.MATCHED, "FNAL/topaz"), (JobState.STAGING, None),
             (JobState.RUNNING, None), (JobState.DONE, None)]
    want = [{"state": "Submitted", "stamp": 1, "detail": None},
            {"state": "Idle", "stamp": 2, "detail": None}]
    for stamp, (state, detail) in enumerate(steps, 3):
        if state is JobState.IDLE:
            q.release(job.job_id)
        else:
            q.transition(job.job_id, state, detail=detail)
        want.append({"state": state.value, "stamp": stamp, "detail": detail})
        assert job.status_json() == {"job_id": 1, "state": state.value,
                                     "detail": detail, "history": want}


# -- the queue -----------------------------------------------------------------------

def test_submit_assigns_sequential_ids_and_lands_idle():
    q = JobQueue()
    j1, j2 = q.submit(AD), q.submit(AD)
    assert (j1.job_id, j2.job_id) == (1, 2)
    assert j1.state is JobState.IDLE
    assert [state for state, _, _ in j1.history] == [JobState.SUBMITTED, JobState.IDLE]
    # logical stamps increase across the whole queue, not per job
    (_, first, _), (_, last, _) = j2.history[0], j1.history[-1]
    assert first > last


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
    assert job.history[-1] == (JobState.HELD, 4, "no route")
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


def test_a_journal_replay_rebuilds_every_state_in_job_id_order():
    def check(queue):
        for state in JobState:
            scan = sorted((j for j in queue.jobs.values() if j.state is state),
                          key=lambda j: j.job_id)
            assert queue.in_state(state) == scan

    forward = [JobState.IDLE, JobState.MATCHED, JobState.STAGING,
               JobState.RUNNING, JobState.DONE]
    rng = random.Random(5)
    records = []
    released_out_of_order = 0
    q = JobQueue(journal_sink=records.append)
    for _ in range(400):
        if not q.jobs or rng.random() < 0.1:
            q.submit(AD)
            check(q)
            continue
        job = q.jobs[rng.choice(list(q.jobs))]
        roll = rng.random()
        try:
            if job.state is JobState.HELD and roll < 0.3:
                idle = [j.job_id for j in q.jobs.values() if j.state is JobState.IDLE]
                q.release(job.job_id)
                released_out_of_order += job.job_id < max(idle, default=0)
            elif job.state in forward[:-1] and roll < 0.6:
                q.transition(job.job_id, forward[forward.index(job.state) + 1])
            elif roll < 0.8:  # refused for a held or finished job
                q.transition(job.job_id, JobState.HELD, detail="x")
            else:
                q.transition(job.job_id, rng.choice(list(JobState)), detail="x")
        except IllegalJobTransition:
            pass  # a refused move must leave the job as it was
        check(q)
    assert q.in_state(JobState.HELD) and q.in_state(JobState.DONE)
    assert released_out_of_order  # a release re-idled a job behind a later id
    clone = JobQueue()
    for record in records:
        clone.apply_journal_record(record)
        check(clone)
    for state in JobState:
        assert [j.job_id for j in clone.in_state(state)] == \
            [j.job_id for j in q.in_state(state)]


def test_a_refused_step_takes_no_stamp():
    q = JobQueue()
    job = q.submit(AD)
    with pytest.raises(IllegalJobTransition):
        q.transition(job.job_id, JobState.DONE)
    with pytest.raises(IllegalJobTransition):
        q.release(job.job_id)
    q.transition(job.job_id, JobState.MATCHED)
    assert [stamp for _, stamp, _ in job.history] == [1, 2, 3]


def test_a_failing_journal_sink_leaves_the_step_unapplied():
    # the record goes to the sink before the step: a sink that raises (a
    # full disk) leaves the job and the stamps as they were, so the journal
    # still replays to the queue in memory
    records, failing = [], []

    def sink(record):
        if failing:
            raise OSError("disk full")
        records.append(record)

    q = JobQueue(journal_sink=sink)
    job = q.submit(AD)
    history, seq = list(job.history), q._seq
    failing.append(True)
    with pytest.raises(OSError):
        q.transition(job.job_id, JobState.HELD, detail="x")
    assert job.history == history and q._seq == seq
    assert q.in_state(JobState.IDLE) == [job] and q.in_state(JobState.HELD) == []
    failing.clear()
    with pytest.raises(IllegalJobTransition):
        q.release(job.job_id)  # the hold never happened
    q.transition(job.job_id, JobState.HELD, detail="y")
    q.release(job.job_id)
    clone = JobQueue()
    for record in records:
        clone.apply_journal_record(record)
    assert clone.get(job.job_id).status_json() == job.status_json()


def test_journal_sink_records_every_mutation():
    records = []
    q = JobQueue(journal_sink=records.append)
    job = q.submit(AD)
    q.transition(job.job_id, JobState.MATCHED, detail="r1")
    assert [r["event"] for r in records] == ["submit", "state"]
    assert records[0] == {"event": "submit", "job_id": job.job_id, "ad": ad_to_json(AD)}
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
    (_, first, _), (_, last, _) = j3.history[0], clone.jobs[2].history[-1]
    assert first > last


# the step rule as the queue stated it before `transition` took it over:
# the one successor of each state and of None (a job not yet submitted), or
# Held from any state but None, Held and Done, at a stamp no earlier than the last
_MODEL_NEXT = {None: JobState.SUBMITTED, JobState.SUBMITTED: JobState.IDLE,
               JobState.IDLE: JobState.MATCHED, JobState.MATCHED: JobState.STAGING,
               JobState.STAGING: JobState.RUNNING, JobState.RUNNING: JobState.DONE,
               JobState.DONE: None, JobState.HELD: JobState.IDLE}


# the wire form, spelled out: each state's name on the wire, and AD's form
_WIRE_NAME = {JobState.SUBMITTED: "Submitted", JobState.IDLE: "Idle",
              JobState.MATCHED: "Matched", JobState.STAGING: "Staging",
              JobState.RUNNING: "Running", JobState.DONE: "Done", JobState.HELD: "Held"}
_AD_FORM = {"id": "j", "kind": "job",
            "attrs": {"Owner": '"/C=US/O=demo/CN=alice"', "Dataset": '"dzero-run2"'}}


def _status_line(job_id, history) -> bytes:
    """The STATUS reply line of a job with `history`."""
    state, _, detail = history[-1]
    return wire.encode_line({
        "job_id": job_id, "state": _WIRE_NAME[state], "detail": detail,
        "history": [{"state": _WIRE_NAME[s], "stamp": stamp, "detail": d}
                    for s, stamp, d in history]})


class _ModelQueue:
    """A reference queue: histories of (state, stamp, detail), a stamp
    counter and the journal lines, stepped one entry at a time by the rule
    above."""

    def __init__(self):
        self.histories: dict[int, list[tuple]] = {}
        self.seq = 0
        self.journal: list[bytes] = []

    def step(self, job_id, state, stamp, detail=None, journal=True):
        """Take the step, or raise as the queue would, changing nothing."""
        if job_id not in self.histories:
            raise UnknownJob(job_id)
        history = self.histories[job_id]
        cur = history[-1][0] if history else None
        at = self.seq + 1 if stamp is None else stamp
        if state is JobState.HELD:
            legal = cur not in (None, JobState.HELD, JobState.DONE)
        else:
            legal = state is _MODEL_NEXT[cur]
        if not legal or (history and at < history[-1][1]):
            raise IllegalJobTransition(job_id)
        if stamp is None:
            self.seq += 1
        history.append((state, at, detail))
        if journal:
            self.journal.append(wire.encode_line({
                "event": "state", "job_id": job_id, "state": _WIRE_NAME[state],
                "stamp": at, "detail": detail}))

    def submit(self, stamp):
        job_id = len(self.histories) + 1
        self.histories[job_id] = []
        self.journal.append(wire.encode_line(
            {"event": "submit", "job_id": job_id, "ad": _AD_FORM}))
        self.step(job_id, JobState.SUBMITTED, stamp, journal=False)
        self.step(job_id, JobState.IDLE, stamp, journal=False)

    def release(self, job_id):
        if job_id not in self.histories:
            raise UnknownJob(job_id)
        if self.histories[job_id][-1][0] is not JobState.HELD:
            raise IllegalJobTransition(job_id)
        self.step(job_id, JobState.IDLE, None)


_STAMPS = st.none() | st.sampled_from([0.0, 1, 2.0, 3.5, 4, 8.0, 50.0])
# (call, job id, state, stamp, detail); a submit reads only the stamp and a
# release only the job id, and "next" steps to the model's successor (Held
# from Done), so that runs reach Running and Done; Held is drawn twice as
# often as another state, so that a held job is held again
_OPS = st.lists(st.tuples(
    st.sampled_from(["submit", "release", *["transition"] * 6]), st.integers(1, 3),
    st.sampled_from([*JobState, JobState.HELD, *["next"] * 7]), _STAMPS,
    st.sampled_from([None, "r"])), max_size=80)


@settings(max_examples=300, deadline=None)
@given(caller_stamps=st.booleans(), ops=_OPS)
def test_the_queue_steps_as_the_reference_rule_does(caller_stamps, ops):
    # a refused call leaves the histories, the stamp counter and the journal
    # as they were; after every call, each job's STATUS line and the journal
    # lines are the bytes the reference spells out; a run on queue stamps
    # alone replays from its journal
    records = []
    q, model = JobQueue(journal_sink=records.append), _ModelQueue()
    for call, job_id, state, stamp, detail in ops:
        stamp = stamp if caller_stamps else None
        if call == "submit":
            calls = (lambda: q.submit(AD, stamp=stamp), lambda: model.submit(stamp))
        elif call == "release":
            calls = (lambda: q.release(job_id), lambda: model.release(job_id))
        else:
            if state == "next":
                history = model.histories.get(job_id)
                state = (history and _MODEL_NEXT[history[-1][0]]) or JobState.HELD
            calls = (lambda: q.transition(job_id, state, stamp, detail),
                     lambda: model.step(job_id, state, stamp, detail))
        before = ({i: list(j.history) for i, j in q.jobs.items()}, q._seq, list(records))
        try:
            calls[1]()
        except (UnknownJob, IllegalJobTransition) as refusal:
            with pytest.raises(type(refusal)):
                calls[0]()
            assert ({i: list(j.history) for i, j in q.jobs.items()}, q._seq,
                    records) == before
        else:
            calls[0]()
        assert {i: [tuple(e) for e in j.history] for i, j in q.jobs.items()} == \
            model.histories
        assert q._seq == model.seq
        assert {i: wire.encode_line(j.status_json()) for i, j in q.jobs.items()} == \
            {i: _status_line(i, history) for i, history in model.histories.items()}
        assert [wire.encode_line(record) for record in records] == model.journal
    if not caller_stamps:
        clone = JobQueue()
        for record in records:
            clone.apply_journal_record(record)
        assert {i: j.status_json() for i, j in clone.jobs.items()} == \
            {i: j.status_json() for i, j in q.jobs.items()}


def test_records_and_history_entries_have_no_instance_dict():
    job = JobQueue().submit(AD)
    assert not hasattr(job, "__dict__")
    assert not hasattr(job.history[0], "__dict__")


def test_apply_journal_record_rejects_unknown_events():
    with pytest.raises(ValueError):
        JobQueue().apply_journal_record({"event": "explode"})
