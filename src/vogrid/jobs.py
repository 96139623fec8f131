"""Job records and the submission queue.

A job's life is Submitted, Idle, Matched, Staging, Running, Done; a job not
yet done or held may instead be parked in Held with a reason, and releasing
it re-queues it as Idle. `JobQueue.transition` states the step rule and is
the one place that takes a step. A job's history is a list of plain
(state, stamp, detail) triples, one per step; its STATUS form
(`JobRecord.status_json`) is a list of {"state", "stamp", "detail"}
objects, as it always was. Stamps are logical and only need to be
monotone: the queue hands out sequence numbers, the simulator passes its
own clock. A queue hands its journal sink one record per call and replays
a record by making that call again; a refused call takes no stamp.

A state is its own wire name: `JobState` is a `StrEnum`, so a STATUS reply,
a journal record and a report hold the member itself, and `JobState(name)`
gives the member of a name. This module's names `SUBMITTED` ... `HELD` are
the hot-path spelling: a read through the class takes the enum metaclass's
slow attribute path (its `__getattr__` hook) every time. A state hashes as
its name, and str hashes are salted per process, so no set of states may
be iterated (its order varies from run to run).
"""

from __future__ import annotations

import json
from enum import StrEnum
from typing import Callable

from . import wire
from .classads import ClassAd, ad_from_json, ad_to_json
from .classads import evaluate  # noqa: F401  bench/run.py wraps jobs.evaluate by name


class JobState(StrEnum):
    SUBMITTED = "Submitted"
    IDLE = "Idle"
    MATCHED = "Matched"
    STAGING = "Staging"
    RUNNING = "Running"
    DONE = "Done"
    HELD = "Held"


SUBMITTED, IDLE, MATCHED, STAGING, RUNNING, DONE, HELD = JobState

# the one successor of each state
_NEXT = {SUBMITTED: IDLE, IDLE: MATCHED, MATCHED: STAGING, STAGING: RUNNING,
         RUNNING: DONE, DONE: None, HELD: IDLE}


class RejectedAd(Exception):
    pass


class UnknownJob(Exception):
    pass


class IllegalJobTransition(Exception):
    pass


def validate_job_ad(ad: ClassAd) -> tuple[str, str]:
    owner = ad.self_text("Owner")
    dataset = ad.self_text("Dataset")
    if owner is None:
        raise RejectedAd("job ad must define Owner as text")
    if dataset is None:
        raise RejectedAd("job ad must define Dataset as text")
    return owner, dataset


def output_bytes(ad: ClassAd) -> int | None:
    """The job's OutputBytes; None (absent or Undefined) means the station's
    default. Raises ValueError unless it is a finite nonnegative number."""
    n = ad.self_quantity("OutputBytes")
    return None if n is None else int(n)


def run_seconds(ad: ClassAd) -> float:
    """The job's RunSeconds, 0 when absent or Undefined; ValueError as above."""
    return ad.self_quantity("RunSeconds") or 0.0


class JobRecord:
    """A stored job: its ad and its history, a list of (state, stamp, detail)
    triples, oldest first. `JobQueue` makes each one with its first two."""

    __slots__ = ("job_id", "ad", "history")

    def __init__(self, job_id: int, ad: ClassAd, history: list[tuple]):
        self.job_id = job_id
        self.ad = ad
        self.history = history

    @property
    def state(self) -> JobState:
        return self.history[-1][0]

    def status_json(self) -> dict:
        state, _, detail = self.history[-1]
        return {
            "job_id": self.job_id,
            "state": state,
            "detail": detail,
            "history": [{"state": s, "stamp": stamp, "detail": d}
                        for s, stamp, d in self.history],
        }


class _SharedAd:
    """A job ad that the jobs given as identical ad JSON share, and its
    journal form (`ad_to_json`) once a journal has needed it. The journal
    form is handed to the sink in every submit record of the ad, so a sink
    must not change it."""

    __slots__ = ("ad", "journal_form")

    def __init__(self, ad: ClassAd):
        self.ad = ad
        self.journal_form: dict | None = None


class JobQueue:
    """Ordered job records; each call that changes them hands a journal sink
    one record before it changes anything: `submit` a "submit" record (job
    id and ad), `transition` (and so `release`) a "state" record with the
    stamp the step will take. A refused step, or a sink that raises, leaves
    the queue as it was.

    The records are kept by job id, in id order, and indexed by nothing
    else: `in_state` scans them all. A reader that pulls the jobs of one
    state often keeps its own worklist, since the order it pulls them in is
    its policy: the simulator never calls `in_state`, and pulls and holds
    its idle jobs from its own (`sim.GridWorld`).

    Jobs given as identical ad JSON, by `submit_json` or by journal replay,
    share one ClassAd; ads are immutable. They share its journal form too,
    formatted once: a SUBMIT of a shared ad journals the same record as
    formatting the ad again would.
    """

    def __init__(self, journal_sink: Callable[[dict], None] | None = None):
        self.jobs: dict[int, JobRecord] = {}
        # ad JSON text -> the ad some stored job holds
        self._shared_ads: dict[str, _SharedAd] = {}
        self._next_id = 1
        self._seq = 0
        self.journal_sink = journal_sink

    def submit(self, ad: ClassAd, stamp: float | None = None) -> JobRecord:
        """Store a new job and move it to Idle. Raises RejectedAd, storing
        nothing, for an invalid ad or one the journal cannot hold."""
        return self._submit(ad, stamp, None)

    def _submit(self, ad: ClassAd, stamp: float | None,
                shared: _SharedAd | None) -> JobRecord:
        """`submit`; the journal form of a `shared` ad is formatted once."""
        validate_job_ad(ad)
        job_id = self._next_id
        if self.journal_sink is not None:  # the ad's source text is only built for a journal
            form = shared and shared.journal_form
            if form is None:
                try:
                    form = ad_to_json(ad)
                except RecursionError:
                    raise RejectedAd("job ad is nested too deeply to journal") from None
                if shared is not None:
                    shared.journal_form = form
            self.journal_sink({"event": "submit", "job_id": job_id, "ad": form})
        self._next_id += 1
        first = last = stamp
        if stamp is None:
            first, last = self._seq + 1, self._seq + 2
            self._seq = last
        job = self.jobs[job_id] = JobRecord(
            job_id, ad, [(SUBMITTED, first, None), (IDLE, last, None)])
        return job

    def submit_json(self, obj: dict) -> JobRecord:
        """`submit` for an ad in its JSON form. RejectedAd as there; any
        other exception means `obj` is not an ad."""
        key = json.dumps(obj, separators=(",", ":"))
        shared = self._shared_ads.get(key)
        if shared is None:
            shared = _SharedAd(ad_from_json(obj))
        job = self._submit(shared.ad, None, shared)
        self._shared_ads.setdefault(key, shared)
        return job

    def transition(self, job_id: int, state: JobState,
                   stamp: float | None = None, detail: str | None = None) -> JobRecord:
        """Step a stored job to `state` at `stamp`, or at the queue's next
        stamp when `stamp` is None. A step is legal to the state's successor
        in `_NEXT`, or to Held from any state but Held and Done, at a stamp no
        earlier than the job's last. A legal step is handed to the journal
        sink and applied once the sink returns. Raises UnknownJob or
        IllegalJobTransition, and a refused step changes nothing."""
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no job {job_id}")
        cur, last, _ = job.history[-1]
        if state is not _NEXT[cur] and (state is not HELD or cur is HELD or cur is DONE):
            raise IllegalJobTransition(f"job {job_id}: {cur} -> {state}")
        at = self._seq + 1 if stamp is None else stamp
        if at < last:
            raise IllegalJobTransition(f"job {job_id}: stamp {at} goes backwards")
        if self.journal_sink is not None:
            self.journal_sink({"event": "state", "job_id": job.job_id, "state": state,
                               "stamp": at, "detail": detail})
        if stamp is None:
            self._seq = at
        job.history.append((state, at, detail))
        return job

    def release(self, job_id: int) -> JobRecord:
        job = self.get(job_id)
        if job.state is not HELD:
            raise IllegalJobTransition(f"job {job_id} is not held")
        return self.transition(job_id, IDLE)

    def get(self, job_id: int) -> JobRecord:
        if job_id not in self.jobs:
            raise UnknownJob(f"no job {job_id}")
        return self.jobs[job_id]

    def in_state(self, state: JobState) -> list[JobRecord]:
        """The jobs now in `state`, in job id order, by a scan of every job."""
        return [job for job in self.jobs.values() if job.state is state]

    def apply_journal_record(self, record: dict):
        """Replay one journal record by making its call again, with the queue's
        own stamps, on a queue without a sink. Its fields are read by the
        wire's rules: a job id is an int (not JSON's true), a stamp a number
        (`wire.is_number`), a state a state name and a detail text or null.
        ValueError for any other field, if the call gives another job id or
        stamp than the record holds, or if the event is unknown."""
        event = record["event"]
        if event not in ("submit", "state"):  # the older form began with "new"
            raise ValueError(f"unknown journal event {event!r}; journals of the "
                             "older form, three records per SUBMIT, are not read")
        job_id = record["job_id"]
        if type(job_id) is not int:
            raise ValueError(f"job_id {job_id!r} is not an integer")
        if event == "submit":
            got, want = self.submit_json(record["ad"]).job_id, job_id
        else:
            name, want, detail = record["state"], record["stamp"], record["detail"]
            if not isinstance(name, str):  # a record built in-process holds the member
                raise ValueError(f"state {name!r} is not a state name")
            state = JobState(name)  # ValueError if no state has the name
            if not wire.is_number(want):
                raise ValueError(f"stamp {want!r} is not a number")
            if detail is not None and type(detail) is not str:
                raise ValueError(f"detail {detail!r} is neither text nor null")
            got = self.transition(job_id, state, detail=detail).history[-1][1]
        if got != want:
            raise ValueError(f"replay gives {got!r} where the record holds {want!r}")
