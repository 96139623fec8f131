"""Journaled job queue service.

Each accepted call that changes the queue appends one record, one line of
newline-delimited JSON, and fsyncs it before the reply goes out. A killed
server restarted on the same journal makes each recorded call again, so it
reconstructs identical job states and histories. A trailing partial line (a
call never acknowledged) is ignored on replay and cut off before the next
append. Any other bad line, one holding a field the wire would refuse (see
`JobQueue.apply_journal_record`), or one whose call fails or gives another
job id or stamp, is a CorruptJournal naming the line; so is the older
journal form.
"""

from __future__ import annotations

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
        fh = self._fh = open(path, "a+b")
        # a final line lacking its newline is a whole record (replay keeps it:
        # add the newline) or a torn write (replay drops it: cut it off)
        fh.seek(0)
        raw = fh.read()
        tail = raw[raw.rfind(b"\n") + 1:]
        if tail:
            try:
                wire.decode_line(tail)
                fh.write(b"\n")
            except ValueError:
                fh.truncate(len(raw) - len(tail))
            fh.flush()
            os.fsync(fh.fileno())

    def append(self, record: dict):
        self._fh.write(wire.encode_line(record))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        self._fh.close()


def replay_journal(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        raw = fh.read()
    records = []  # the Journal writes no blank line: record i is line i + 1
    lines = raw.split(b"\n")
    for i, line in enumerate(lines):
        try:
            records.append(wire.decode_line(line))
        except ValueError:
            if i == len(lines) - 1:  # no newline after it: an interrupted write
                break
            raise CorruptJournal(f"bad record on line {i + 1}") from None
    return records


class QueueService:
    """SUBMIT / STATUS / RELEASE / LIST handler backed by a journal file."""

    def __init__(self, journal_path: str):
        self._lock = threading.Lock()
        self.queue = JobQueue()  # no sink yet: replaying a call journals nothing
        for line, record in enumerate(replay_journal(journal_path), 1):
            try:
                self.queue.apply_journal_record(record)
            except Exception as exc:
                raise CorruptJournal(f"line {line} does not replay: {exc!r}") from None
        # opened only once replay succeeds: a journal that does not replay is left as is
        self.journal = Journal(journal_path)
        self.queue.journal_sink = self.journal.append
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
        return {"job_id": job.job_id, "state": job.state}

    def _job_request(self, msg: dict, action) -> dict:
        """STATUS and RELEASE: apply the action to the named job, reply its status."""
        job_id = msg.get("job_id")
        if type(job_id) is not int:  # JSON's true is no job id
            raise wire.RequestError("malformed", "job_id must be an integer")
        try:
            return action(job_id).status_json()
        except UnknownJob as exc:
            raise wire.RequestError("unknown-job", str(exc)) from None
        except IllegalJobTransition as exc:
            raise wire.RequestError("illegal-transition", str(exc)) from None

    def _list(self, msg: dict) -> dict:
        return {"jobs": [{"job_id": j.job_id, "state": j.state}
                         for j in self.queue.jobs.values()]}

