"""Job records and the submission queue.

A job's life is Submitted, Idle, Matched, Staging, Running, Done, and any
non-terminal step may instead park it in Held with a reason; releasing a held
job re-queues it as Idle. History entries carry logical stamps, which only
need to be monotone: the queue hands out sequence numbers, the simulator
passes its own clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .classads import ClassAd, ad_from_json, ad_to_json
from .classads import evaluate  # noqa: F401  bench/run.py wraps jobs.evaluate by name


class JobState(Enum):
    SUBMITTED = "Submitted"
    IDLE = "Idle"
    MATCHED = "Matched"
    STAGING = "Staging"
    RUNNING = "Running"
    DONE = "Done"
    HELD = "Held"


_NEXT = {
    JobState.SUBMITTED: {JobState.IDLE},
    JobState.IDLE: {JobState.MATCHED},
    JobState.MATCHED: {JobState.STAGING},
    JobState.STAGING: {JobState.RUNNING},
    JobState.RUNNING: {JobState.DONE},
    JobState.DONE: set(),
    JobState.HELD: {JobState.IDLE},
}

REQUIRED_JOB_ATTRS = ("Owner", "Dataset")


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


@dataclass(frozen=True, slots=True)
class HistoryEntry:
    state: JobState
    stamp: float
    detail: str | None = None

    def to_json(self) -> dict:
        return {"state": self.state.value, "stamp": self.stamp, "detail": self.detail}


class JobRecord:
    __slots__ = ("job_id", "ad", "history")

    def __init__(self, job_id: int, ad: ClassAd):
        self.job_id = job_id
        self.ad = ad
        self.history: list[HistoryEntry] = []

    @property
    def state(self) -> JobState | None:
        return self.history[-1].state if self.history else None

    @property
    def detail(self) -> str | None:
        return self.history[-1].detail if self.history else None

    def advance(self, state: JobState, stamp: float, detail: str | None = None):
        cur = self.state
        if cur is None:
            legal = state is JobState.SUBMITTED
        elif state is JobState.HELD:
            legal = cur is not JobState.HELD
        else:
            legal = state in _NEXT[cur]
        if not legal:
            raise IllegalJobTransition(
                f"job {self.job_id}: {cur.value if cur else 'new'} -> {state.value}")
        if self.history and stamp < self.history[-1].stamp:
            raise IllegalJobTransition(
                f"job {self.job_id}: stamp {stamp} goes backwards")
        self.history.append(HistoryEntry(state, stamp, detail))

    def matched_resource(self) -> str | None:
        for entry in reversed(self.history):
            if entry.state is JobState.MATCHED:
                return entry.detail
        return None

    def status_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state.value if self.state else None,
            "detail": self.detail,
            "history": [e.to_json() for e in self.history],
        }


class JobQueue:
    """Ordered job records; every mutation can be mirrored to a journal sink.

    Records are also indexed by state, so listing the jobs in one state
    costs only those jobs. The index follows every change the queue makes;
    a record advanced behind the queue's back is not reindexed.

    Jobs given as identical ad JSON, by `submit_json` or by journal replay,
    share one ClassAd; ads are immutable.
    """

    def __init__(self, journal_sink: Callable[[dict], None] | None = None):
        self.jobs: dict[int, JobRecord] = {}
        self._by_state: dict[JobState, dict[int, JobRecord]] = {s: {} for s in JobState}
        # ad JSON text -> the ad some stored job holds
        self._shared_ads: dict[str, ClassAd] = {}
        self._next_id = 1
        self._seq = 0
        self._sink = journal_sink

    def set_journal_sink(self, sink: Callable[[dict], None] | None):
        self._sink = sink

    def _stamp(self) -> int:
        self._seq += 1
        return self._seq

    def _advance(self, job: JobRecord, state: JobState, stamp: float,
                 detail: str | None):
        before = job.state
        job.advance(state, stamp, detail)
        if before is not None:
            del self._by_state[before][job.job_id]
        self._by_state[state][job.job_id] = job

    def _add(self, job: JobRecord):
        old = self.jobs.get(job.job_id)
        if old is not None and old.state is not None:
            del self._by_state[old.state][job.job_id]
        self.jobs[job.job_id] = job

    def _shared_ad(self, obj: dict) -> tuple[str, ClassAd]:
        key = json.dumps(obj, separators=(",", ":"))
        ad = self._shared_ads.get(key)
        return key, ad if ad is not None else ad_from_json(obj)

    def submit(self, ad: ClassAd, stamp: float | None = None) -> JobRecord:
        """Store a new job and move it to Idle. Raises RejectedAd, storing
        nothing, for an invalid ad or one the journal cannot hold."""
        validate_job_ad(ad)
        if self._sink is not None:  # the ad's source text is only built for a journal
            try:
                ad_json = ad_to_json(ad)
            except RecursionError:
                raise RejectedAd("job ad is nested too deeply to journal") from None
            self._sink({"event": "new", "job_id": self._next_id, "ad": ad_json})
        job = JobRecord(self._next_id, ad)
        self._next_id += 1
        self._add(job)
        for state in (JobState.SUBMITTED, JobState.IDLE):
            self.transition(job.job_id, state, stamp=stamp)
        return job

    def submit_json(self, obj: dict, stamp: float | None = None) -> JobRecord:
        """`submit` for an ad in its JSON form. RejectedAd as there; any
        other exception means `obj` is not an ad."""
        key, ad = self._shared_ad(obj)
        job = self.submit(ad, stamp)
        self._shared_ads.setdefault(key, ad)
        return job

    def transition(self, job_id: int, state: JobState,
                   stamp: float | None = None, detail: str | None = None) -> JobRecord:
        job = self.get(job_id)
        self._advance(job, state, self._stamp() if stamp is None else stamp, detail)
        entry = job.history[-1]
        if self._sink is not None:
            self._sink({"event": "state", "job_id": job_id, "state": state.value,
                    "stamp": entry.stamp, "detail": detail})
        return job

    def release(self, job_id: int) -> JobRecord:
        job = self.get(job_id)
        if job.state is not JobState.HELD:
            raise IllegalJobTransition(f"job {job_id} is not held")
        return self.transition(job_id, JobState.IDLE)

    def get(self, job_id: int) -> JobRecord:
        if job_id not in self.jobs:
            raise UnknownJob(f"no job {job_id}")
        return self.jobs[job_id]

    def in_state(self, state: JobState) -> list[JobRecord]:
        """The jobs now in `state`, in job id order."""
        bucket = self._by_state[state]
        return [bucket[job_id] for job_id in sorted(bucket)]

    def apply_journal_record(self, record: dict):
        """Replay one journal record; stamps and ids come from the record."""
        event = record["event"]
        if event == "new":
            key, ad = self._shared_ad(record["ad"])
            job = JobRecord(int(record["job_id"]), ad)
            self._add(job)
            self._shared_ads.setdefault(key, ad)
            self._next_id = max(self._next_id, job.job_id + 1)
        elif event == "state":
            job = self.get(int(record["job_id"]))
            self._advance(job, JobState(record["state"]), record["stamp"],
                          record.get("detail"))
            if isinstance(record["stamp"], int):
                self._seq = max(self._seq, record["stamp"])
        else:
            raise ValueError(f"unknown journal event {event!r}")
