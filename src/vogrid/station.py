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
here, their bytes and their transfer seconds. It reads only the catalog,
the cached files and the links, so each state keeps its answers, keyed by
(catalog, dataset), and walks a dataset's files once while its cache
stays the same. `apply_event` hands that memo on to the successor unless
a `CacheAdd` changes the cache, which starts an empty one; `copy_state`
gives a copy an empty one of its own. Only answers are kept: an unknown
dataset or a missing route raises again on every question, so a station
server's memo never outgrows its catalog, whatever its clients ask. A
memo write is one dict store, atomic under the interpreter lock, so two
server threads asking at once at worst both compute the same answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple

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
    """Named datasets, each an ordered tuple of files with sizes and sources."""

    def __init__(self, datasets: Mapping[str, Iterable[tuple]]):
        self._datasets: dict[str, tuple[FileEntry, ...]] = {}
        for name, entries in datasets.items():
            files = tuple(FileEntry(*e) for e in entries)
            seen = set()
            for f in files:
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


def lookup_dataset(cat: DatasetCatalog, st: StationState,
                   dataset: str) -> tuple[list[FileEntry], list[FileEntry]]:
    """Partition a dataset's files into (cached here, missing here), in catalog order."""
    present, missing = [], []
    for f in cat.files(dataset):
        (present if f.file_name in st.cached_files else missing).append(f)
    return present, missing


class Shortfall(NamedTuple):
    missing: tuple[FileEntry, ...]  # in catalog order
    transfer_seconds: float
    missing_bytes: int


def shortfall(cat: DatasetCatalog, st: StationState, dataset: str) -> Shortfall:
    """The dataset's files missing here and what fetching them costs, each
    file in turn over the link to its source. Kept on `st` once answered
    (see the module docstring); UnknownDataset and NoRouteToSource are not."""
    key = (cat, dataset)
    found = st._shortfalls.get(key)
    if found is None:
        cached, links = st.cached_files, st.links
        missing = []
        transfer = 0.0
        missing_bytes = 0
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
        found = st._shortfalls[key] = Shortfall(tuple(missing), transfer, missing_bytes)
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
    return PreferenceReport(score, missing_bytes, transfer, wait, output)


# -- state transitions ---------------------------------------------------------

@dataclass(frozen=True)
class EnqueueInput:
    pass


@dataclass(frozen=True)
class DequeueInput:
    pass


@dataclass(frozen=True)
class CacheAdd:
    file_name: str


def copy_state(st: StationState) -> StationState:
    """A copy of `st` with an empty shortfall memo of its own. It equals
    what `dataclasses.replace` builds, but skips `StationState.__post_init__`:
    every field was checked when `st` was built."""
    copy = object.__new__(StationState)
    fields = copy.__dict__  # frozen: filled in directly, as __init__ would
    fields.update(vars(st))
    fields["_shortfalls"] = {}
    return copy


def apply_event(st: StationState, *events) -> StationState:
    """Input queue and cache steps, in order, folded into one copy of the
    state (`copy_state`); every other field is unchanged. A step that would
    empty the input queue below zero, or an unknown event, raises
    IllegalTransition; an event is known by its exact type, so a subclass of
    one is unknown; these checks keep the depth nonnegative. Adding a cached
    file again changes nothing, and the copy shares `st`'s shortfall memo
    unless its cache changed."""
    in_depth = st.input_queue_depth
    added = []
    for ev in events:
        kind = type(ev)
        if kind is EnqueueInput:
            in_depth += 1
        elif kind is DequeueInput:
            if in_depth == 0:
                raise IllegalTransition("input queue is empty")
            in_depth -= 1
        elif kind is CacheAdd:
            added.append(ev.file_name)
        else:
            raise IllegalTransition(f"unknown event {ev!r}")
    successor = copy_state(st)
    fields = successor.__dict__
    fields["input_queue_depth"] = in_depth
    cached = st.cached_files.union(added) if added else st.cached_files
    if len(cached) == len(st.cached_files):
        fields["_shortfalls"] = st._shortfalls  # the same cache: the same answers
    else:
        fields["cached_files"] = cached
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


def station_from_config(node, fixture: dict | None = None) -> StationState:
    """Build a station from its site-configuration element.

    The element carries name and optional mean_service_seconds,
    output_destination and expected_output_bytes attributes; `link` children
    carry to= and bandwidth_bytes_per_second=. A fixture dict (scenario
    runtime state) overrides or extends any of the constructor fields; its
    links extend the config's, overriding a link to the same site.
    """
    attrs = node.attributes
    fixture = fixture or {}
    links = {}
    for child in node.children:
        if child.element_name == "link":
            links[child.attributes["to"]] = float(child.attributes["bandwidth_bytes_per_second"])
    return StationState(**{
        "station_id": attrs["name"],
        "mean_service_seconds": float(attrs.get("mean_service_seconds", 1.0)),
        "output_destination": attrs.get("output_destination", ""),
        "expected_output_bytes": int(attrs.get("expected_output_bytes", 0)),
        **fixture,
        "links": {**links, **fixture.get("links", {})},
    })
