"""Simulated data-handling station.

A station knows which files of the shared catalog it holds locally, how deep
its input/output request queues are, and the bandwidth of its links to other
sites. It answers preference queries with an estimated total data latency:

    input_transfer = sum over missing files of size / link(source)
    input_wait     = input_queue_depth * mean_service_seconds
    output         = expected_output_bytes / link(output_destination)
                     + output_queue_depth * mean_service_seconds
    score          = -(input_transfer + input_wait + output)

Higher scores are preferred. Transfers are modeled as sequential; link
speeds are static configuration values supplied by the site, not measured.

The input transfer is one rule, `shortfall`: the files a dataset lacks
here, their transfer seconds and their bytes, as a plain triple. It reads
only the catalog, the cached files and the links, so each state keeps its
answers, keyed by (catalog, dataset), and walks a dataset's files once
while its cache stays the same. Only answers are kept: an unknown dataset
or a missing route raises again on every question, so a station server's
memo never outgrows its catalog, whatever its clients ask. A memo write is
one dict store, atomic under the interpreter lock, so two server threads
asking at once at worst both compute the same answer.

A staging changes a station in two counted steps (`apply_event`): its
files' requests join the input queue when it starts, and they leave it,
each file joining the cache, when it ends. A step is one copy of the
state, however many files it counts; the copy keeps the memo unless the
cache grew, when it starts an empty one. `copy_state` gives a copy an
empty one of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from . import wire


class UnknownDataset(Exception):
    pass


class NoRouteToSource(Exception):
    pass


class IllegalTransition(Exception):
    pass


class ScoreOverflow(Exception):
    """The score is past a float's range, so it ranks nothing: a job staged
    by it would never finish staging."""


class FileEntry(NamedTuple):
    file_name: str
    size_bytes: int
    source_site: str


class DatasetCatalog:
    """Named datasets, each an ordered tuple of files with sizes and sources.
    ValueError unless each file's name and source are text and its size a
    whole number above 0 that a float can hold, and no name repeats within
    a dataset."""

    def __init__(self, datasets: Mapping[str, Iterable[tuple]]):
        self._datasets: dict[str, tuple[FileEntry, ...]] = {}
        for name, entries in datasets.items():
            files = tuple(FileEntry(*e) for e in entries)
            seen = set()
            for f in files:
                if not (isinstance(f.file_name, str) and isinstance(f.source_site, str)):
                    raise ValueError(f"dataset {name!r}: file {f.file_name!r} name "
                                     "and source must be text")
                if f.file_name in seen:
                    raise ValueError(f"dataset {name!r}: duplicate file {f.file_name!r}")
                if not (wire.is_number(f.size_bytes, whole=True) and f.size_bytes > 0):
                    raise ValueError(f"dataset {name!r}: file {f.file_name!r} size must "
                                     "be an integer above 0 that a float can hold")
                seen.add(f.file_name)
            self._datasets[name] = files

    def files(self, dataset: str) -> tuple[FileEntry, ...]:
        """The dataset's files, as the catalog stores them: a tuple, which
        no caller can change."""
        files = self._datasets.get(dataset)
        if files is None:
            raise UnknownDataset(dataset)
        return files


@dataclass(frozen=True)
class StationState:
    station_id: str
    cached_files: frozenset[str] = frozenset()
    input_queue_depth: int = 0
    output_queue_depth: int = 0
    mean_service_seconds: float = 1.0
    links: Mapping[str, float] = None  # site name -> bytes/second
    output_destination: str = ""
    expected_output_bytes: int = 0

    def __post_init__(self):
        """ValueError unless the cached files are a collection of text, not
        one text, and every quantity the score reads is a number
        (`wire.is_number`), an integer for the queue depths and the output
        bytes, and each bandwidth above 0: the score of any other would be
        NaN, could fall as a queue grows, or a fractional depth could step
        below zero. The mean service time is kept as a float."""
        cached = frozenset(self.cached_files)
        if isinstance(self.cached_files, str) or not all(isinstance(f, str) for f in cached):
            raise ValueError(f"station {self.station_id!r}: cached_files must be file names")
        object.__setattr__(self, "cached_files", cached)
        object.__setattr__(self, "links", dict(self.links or {}))
        for site, bw in self.links.items():
            if not (wire.is_number(bw) and bw > 0):
                raise ValueError(f"station {self.station_id!r}: link {site!r} "
                                 "bandwidth must be a finite number above 0")
        for name, whole in (("input_queue_depth", True), ("output_queue_depth", True),
                            ("expected_output_bytes", True), ("mean_service_seconds", False)):
            if not wire.is_number(getattr(self, name), whole):
                raise ValueError(f"station {self.station_id!r}: {name} must be a finite "
                                 f"nonnegative {'integer' if whole else 'number'}")
        # a float, so that a wait past a float's range is infinite, not an
        # OverflowError: an integer product can be too large for a float
        object.__setattr__(self, "mean_service_seconds", float(self.mean_service_seconds))
        if self.output_destination and self.output_destination not in self.links:
            raise ValueError(f"station {self.station_id!r}: output destination "
                             f"{self.output_destination!r} has no link")
        object.__setattr__(self, "_shortfalls", {})  # not a field: see `shortfall`


class PreferenceReport(NamedTuple):
    score: float
    missing_bytes: int
    input_transfer_seconds: float
    input_wait_seconds: float
    output_seconds: float


# what a NamedTuple's generated __new__ calls: a report built through it
# skips that Python-level call
_new = tuple.__new__


def lookup_dataset(cat: DatasetCatalog, st: StationState,
                   dataset: str) -> tuple[list[FileEntry], list[FileEntry]]:
    """Partition a dataset's files into (cached here, missing here), in catalog order."""
    present, missing = [], []
    for f in cat.files(dataset):
        (present if f.file_name in st.cached_files else missing).append(f)
    return present, missing


def shortfall(cat: DatasetCatalog, st: StationState,
              dataset: str) -> tuple[tuple[FileEntry, ...], float, int]:
    """The dataset's files missing here, in catalog order, and what fetching
    them costs, as a plain (missing, transfer seconds, missing bytes)
    triple: each file in turn over the link to its source. Kept on `st` once
    answered (see the module docstring); UnknownDataset and NoRouteToSource
    are not."""
    key = (cat, dataset)
    found = st._shortfalls.get(key)
    if found is None:
        cached, links = st.cached_files, st.links
        missing = []
        transfer = 0.0
        missing_bytes = 0
        # totalled file by file, never by builtin sum(): CPython 3.12 sums
        # floats with Neumaier compensation, so on 3.11 and 3.12 (both
        # supported) the scores, and so the reports, would differ in bits
        for f in cat.files(dataset):
            name, size, source = f
            if name in cached:
                continue
            bw = links.get(source)
            if bw is None:
                raise NoRouteToSource(f"station {st.station_id!r}: no link to {source!r}")
            missing.append(f)
            transfer += size / bw
            missing_bytes += size
        found = st._shortfalls[key] = (tuple(missing), transfer, missing_bytes)
    return found


def get_preference(cat: DatasetCatalog, st: StationState, dataset: str,
                   output_bytes: int | None = None) -> PreferenceReport:
    """Estimated data latency for running this dataset here, as a preference score.

    output_bytes overrides the station's per-job default when given. A score
    past a float's range raises ScoreOverflow.
    """
    _, transfer, missing_bytes = shortfall(cat, st, dataset)
    wait = st.input_queue_depth * st.mean_service_seconds
    out_bytes = st.expected_output_bytes if output_bytes is None else output_bytes
    output = st.output_queue_depth * st.mean_service_seconds
    if out_bytes:
        if not st.output_destination:
            raise NoRouteToSource(
                f"station {st.station_id!r}: output bytes but no output destination")
        output += out_bytes / st.links[st.output_destination]
    score = -(transfer + wait + output)
    if not math.isfinite(score):
        raise ScoreOverflow(f"station {st.station_id!r}: score of {dataset!r} overflows")
    return _new(PreferenceReport, (score, missing_bytes, transfer, wait, output))


# -- state transitions ---------------------------------------------------------

def copy_state(st: StationState) -> StationState:
    """A copy of `st` with an empty shortfall memo of its own. It equals
    what `dataclasses.replace` builds, but skips `StationState.__post_init__`:
    every field was checked when `st` was built."""
    copy = object.__new__(StationState)
    fields = copy.__dict__  # frozen: filled in directly, as __init__ would
    fields.update(vars(st))
    fields["_shortfalls"] = {}
    return copy


def apply_event(st: StationState, enqueued: int = 0, dequeued: int = 0,
                cached: Collection[str] = ()) -> StationState:
    """One counted step, as one copy of the state: `enqueued` input
    requests join the queue, then `dequeued` leave it, then the files named
    in `cached` join the cache; every other field is unchanged. It equals
    taking those steps one at a time. A count that is not a nonnegative
    integer, or more dequeued than the queue then holds, raises
    IllegalTransition, so the depth stays a nonnegative integer. Caching a
    file again changes nothing, and the copy shares `st`'s shortfall memo
    unless its cache changed. Like `copy_state`, it skips
    `StationState.__post_init__`."""
    if type(enqueued) is not int or type(dequeued) is not int or enqueued < 0 or dequeued < 0:
        raise IllegalTransition(f"step counts must be nonnegative integers, not "
                                f"{enqueued!r} and {dequeued!r}")
    in_depth = st.input_queue_depth + enqueued - dequeued
    if in_depth < 0:
        raise IllegalTransition("input queue is empty")
    successor = object.__new__(StationState)
    fields = successor.__dict__
    fields.update(st.__dict__)  # the memo too: the same cache, the same answers
    fields["input_queue_depth"] = in_depth
    if cached:
        grown = st.cached_files.union(cached)
        if len(grown) != len(st.cached_files):
            fields["cached_files"] = grown
            fields["_shortfalls"] = {}
    return successor


# -- wire handling ---------------------------------------------------------------

def _file_entry_json(f: FileEntry) -> dict:
    return {"file": f.file_name, "size": f.size_bytes, "source": f.source_site}


def _answer(cat: DatasetCatalog, st: StationState, msg: dict) -> dict:
    dataset = msg.get("dataset")
    if not isinstance(dataset, str):
        raise wire.RequestError("malformed", "dataset field must be a string")
    try:
        if msg["type"] == "LOOKUP":
            present, missing = lookup_dataset(cat, st, dataset)
            return {"present": [_file_entry_json(f) for f in present],
                    "missing": [_file_entry_json(f) for f in missing]}
        report = get_preference(cat, st, dataset, wire.number_field(msg, "output_bytes"))
    except UnknownDataset:
        raise wire.RequestError("unknown-dataset", f"no dataset named {dataset!r}") from None
    except NoRouteToSource as exc:
        raise wire.RequestError("no-route", str(exc)) from None
    except ScoreOverflow as exc:  # JSON has no Infinity
        raise wire.RequestError("malformed", str(exc)) from None
    return report._asdict()


def handler(cat: DatasetCatalog, st: StationState) -> Callable[[dict], dict]:
    """The request handler of a station serving `st`: it answers GET_PREFERENCE
    and LOOKUP requests, one reply each. Queries never mutate state."""
    answer = partial(_answer, cat, st)
    return wire.dispatcher({"GET_PREFERENCE": answer, "LOOKUP": answer})


def _attribute(element, name: str, default=None, whole: bool | None = None):
    """An attribute of a configuration element: its text, or if `whole` is
    given the number it spells (`wire.number_text`). ValueError naming the
    element and the attribute if it is missing or spells no such number."""
    raw = element.attributes.get(name, default)
    if raw is None:
        raise ValueError(f"<{element.element_name}> has no {name!r}")
    if whole is None:
        return raw
    try:
        return wire.number_text(raw, whole)
    except ValueError as exc:  # worded "'abc' is not a number"
        raise ValueError(f"<{element.element_name}> {name}={exc}") from None


def config_fields(node) -> dict:
    """The constructor fields a station's site-configuration element gives.

    The element carries name and optional mean_service_seconds,
    output_destination and expected_output_bytes attributes; `link` children
    carry to= and bandwidth_bytes_per_second=. ValueError if a required
    attribute is missing or a number is not one `wire.number_text` reads;
    the values themselves are checked by `StationState`.
    """
    links = {}
    for child in node.children:
        if child.element_name == "link":
            links[_attribute(child, "to")] = _attribute(
                child, "bandwidth_bytes_per_second", whole=False)
    return {
        "station_id": _attribute(node, "name"),
        "mean_service_seconds": _attribute(node, "mean_service_seconds", "1.0", whole=False),
        "output_destination": _attribute(node, "output_destination", ""),
        "expected_output_bytes": _attribute(node, "expected_output_bytes", "0", whole=True),
        "links": links,
    }


def station_from_config(node, fixture: dict | None = None) -> StationState:
    """Build a station from its site-configuration element (`config_fields`).

    A fixture dict (scenario runtime state) overrides or extends any of the
    constructor fields; its links extend the config's, overriding a link to
    the same site.
    """
    fields = config_fields(node)
    fixture = fixture or {}
    return StationState(**{**fields, **fixture,
                           "links": {**fields["links"], **fixture.get("links", {})}})
