"""Journaled job queue service.

Every accepted mutation is appended to a newline-delimited JSON journal and
fsynced before the reply goes out, so a killed server restarted on the same
journal file reconstructs identical job states and histories. A trailing
partial line (a crash mid-write) is ignored on replay; corruption anywhere
else is an error.
"""

from __future__ import annotations

import json
import os
import threading

from . import wire
from .jobs import (
    IllegalJobTransition,
    JobQueue,
    RejectedAd,
    UnknownJob,
)


class CorruptJournal(Exception):
    pass


class Journal:
    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "ab")

    def append(self, record: dict):
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        self._fh.close()


def replay_journal(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        raw = fh.read()
    records = []
    lines = raw.split(b"\n")
    complete = raw.endswith(b"\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if not complete and i == len(lines) - 1:  # interrupted final write
                break
            raise CorruptJournal(f"{path}: bad record on line {i + 1}") from None
    return records


class QueueService:
    """SUBMIT / STATUS / RELEASE / LIST handler backed by a journal file."""

    def __init__(self, journal_path: str):
        self._lock = threading.Lock()
        self.queue = JobQueue(journal_sink=None)
        for record in replay_journal(journal_path):
            self.queue.apply_journal_record(record)
        self.journal = Journal(journal_path)
        self.queue.set_journal_sink(self.journal.append)
        self._dispatch = wire.dispatcher({
            "SUBMIT": self._submit,
            "STATUS": lambda msg: self._job_request(msg, self.queue.get),
            "RELEASE": lambda msg: self._job_request(msg, self.queue.release),
            "LIST": self._list,
        })

    def close(self):
        self.journal.close()

    def handle_message(self, msg: dict) -> dict:
        with self._lock:
            return self._dispatch(msg)

    def _submit(self, msg: dict) -> dict:
        try:
            job = self.queue.submit_json(msg["ad"])
        except RejectedAd as exc:
            raise wire.RequestError("rejected-ad", str(exc)) from None
        except Exception as exc:
            raise wire.RequestError("malformed", str(exc)) from None
        return {"job_id": job.job_id, "state": job.state.value}

    def _job_request(self, msg: dict, action) -> dict:
        """STATUS and RELEASE: apply the action to the named job, reply its status."""
        job_id = msg.get("job_id")
        if not isinstance(job_id, int):
            raise wire.RequestError("malformed", "job_id must be an integer")
        try:
            return action(job_id).status_json()
        except UnknownJob as exc:
            raise wire.RequestError("unknown-job", str(exc)) from None
        except IllegalJobTransition as exc:
            raise wire.RequestError("illegal-transition", str(exc)) from None

    def _list(self, msg: dict) -> dict:
        return {"jobs": [{"job_id": j.job_id, "state": j.state.value}
                         for j in self.queue.jobs.values()]}


def submit_over_wire(host: str, port: int, ad_json: dict,
                     auth_token: str | None = None) -> int:
    reply = wire.send_request(host, port, {"type": "SUBMIT", "ad": ad_json},
                              auth_token=auth_token)
    if "error" in reply:
        raise RuntimeError(f"{reply['error']['code']}: {reply['error']['message']}")
    return reply["result"]["job_id"]
