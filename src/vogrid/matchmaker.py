"""Matchmaking service.

Resources advertise themselves with classads and a gridmap (the set of grid
subjects allowed to run there); jobs are matched against the unexpired ads in
FIFO order. For each job the pipeline is:

    free ads -> symmetric Requirements -> gridmap pre-authorization
    -> choose

The free ads are the visible ones not yet claimed. Each ad can be claimed
once per cycle, and a claimed ad is invisible to later jobs in the same
cycle. `match_jobs` runs the pipeline lazily and stops as soon as no ad is
free, so a cycle over a long backlog costs only the jobs that can still
match; `run_match_cycle` is the same pass with one decision for every job,
the unreached ones getting no-candidates.

The default chooser is the Rank argmax: it evaluates the job's Rank against
each authorized ad (external functions query stations now). Ranks that come
back Undefined or Error drop the candidate rather than demoting it. Ties on
rank break by resource Name (byte order), then ad id.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping

from . import wire
from .classads import (
    ClassAd,
    FnRegistry,
    Value,
    ValueKind,
    ad_from_json,
    evaluate,
    real,
    symmetric_match,
)
from .classads.exprs import Literal
from .jobs import output_bytes

log = logging.getLogger("vogrid.matchmaker")

QUERY_TIMEOUT_SECONDS = 2.0

REQUIRED_AD_ATTRS = ("Name", "Gatekeeper", "Station_ID")

_ZERO_RANK = Literal(real(0.0))


class IncompleteAd(Exception):
    pass


@dataclass(frozen=True)
class StoredAd:
    ad: ClassAd
    received_at: float
    ttl_seconds: float
    name: str
    station_id: str


@dataclass(frozen=True)
class MatchDecision:
    job_id: str
    resource_id: str | None = None
    rank: float | None = None
    reason: str | None = None

    @property
    def matched(self) -> bool:
        return self.resource_id is not None

    @classmethod
    def match(cls, job_id: str, resource_id: str, rank: float) -> "MatchDecision":
        if not math.isfinite(rank):
            raise ValueError("matched rank must be finite")
        return cls(job_id, resource_id=resource_id, rank=rank)

    @classmethod
    def no_match(cls, job_id: str, reason: str) -> "MatchDecision":
        return cls(job_id, reason=reason)

    def to_json(self) -> dict:
        if self.matched:
            return {"job_id": self.job_id, "outcome": "matched",
                    "resource_id": self.resource_id, "rank": self.rank}
        return {"job_id": self.job_id, "outcome": "no-match", "reason": self.reason}


class AdStore:
    """Resource ads keyed by ad id, each with an expiry and a gridmap.

    Thread-safe: upserts and removals may run while another thread matches.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ads: dict[str, StoredAd] = {}
        self._gridmaps: dict[str, frozenset[str]] = {}

    def collect_ad(self, ad: ClassAd, gridmap: Iterable[str], ttl_seconds: float,
                   now: float) -> None:
        """Upsert one advertisement; its gridmap is replaced in the same step."""
        for attr in REQUIRED_AD_ATTRS:
            if attr not in ad:
                raise IncompleteAd(f"ad {ad.ad_id!r} lacks {attr}")
        name = ad.self_text("Name")
        station_id = ad.self_text("Station_ID")
        if name is None or station_id is None:
            raise IncompleteAd(f"ad {ad.ad_id!r}: Name and Station_ID must be text")
        stored = StoredAd(ad, now, float(ttl_seconds), name, station_id)
        subjects = frozenset(gridmap)
        with self._lock:
            self._ads[ad.ad_id] = stored
            self._gridmaps[ad.ad_id] = subjects

    def remove(self, ad_id: str) -> None:
        with self._lock:
            self._ads.pop(ad_id, None)
            self._gridmaps.pop(ad_id, None)

    def snapshot(self, now: float) -> list[StoredAd]:
        """Unexpired ads in insertion order. ttl 0 means never visible."""
        with self._lock:
            return [s for s in self._ads.values()
                    if now < s.received_at + s.ttl_seconds]

    def gridmap(self, ad_id: str) -> frozenset[str]:
        return self._gridmaps.get(ad_id, frozenset())


def preauthorize(store: AdStore, job: ClassAd, resource_id: str) -> bool:
    """True iff the job Owner's grid subject is in the resource's gridmap."""
    owner = job.self_text("Owner")
    if owner is None:
        log.warning("job %s has no usable Owner; unauthorized everywhere", job.ad_id)
        return False
    return owner in store.gridmap(resource_id)


# -- match-time ranking ---------------------------------------------------------

StationQuery = Callable[[str, str, int | None], float]
# (dataset, station_id, output_bytes override) -> preference score


def _fun_handler(args: list, self_ad, other_ad, env) -> Value:
    """fun(dataset, station_id): ask that station how it likes this dataset."""
    if env is None or "station_query" not in env:
        raise RuntimeError("no station query configured")
    dataset, station = args
    if dataset.kind is not ValueKind.TEXT or station.kind is not ValueKind.TEXT:
        raise TypeError("fun() wants two text arguments")
    score = env["station_query"](dataset.data, station.data,
                                 output_bytes(self_ad))
    return real(float(score))


def standard_registry() -> FnRegistry:
    reg = FnRegistry()
    reg.register("fun", 2, _fun_handler)
    return reg


def directory_query(directory: Mapping[str, tuple[str, int]],
                    timeout: float = QUERY_TIMEOUT_SECONDS,
                    auth_token: str | None = None) -> StationQuery:
    """Station query that resolves Station_ID through a host:port directory."""
    def query(dataset: str, station_id: str, output_bytes: int | None) -> float:
        host, port = directory[station_id]
        msg = {"type": "GET_PREFERENCE", "dataset": dataset}
        if output_bytes is not None:
            msg["output_bytes"] = output_bytes
        reply = wire.send_request(host, port, msg, timeout=timeout,
                                  auth_token=auth_token)
        if "error" in reply:
            raise wire.WireError(reply["error"].get("message", "station error"))
        return float(reply["result"]["score"])
    return query


def rank_resources(job: ClassAd, candidates: list[StoredAd], reg: FnRegistry,
                   env: dict | None) -> list[tuple[str, Value]]:
    """Evaluate the job's Rank against each candidate, in candidate order."""
    rank_expr = job.lookup("Rank") if "Rank" in job else _ZERO_RANK
    out = []
    for cand in candidates:
        out.append((cand.ad.ad_id, evaluate(rank_expr, job, cand.ad, reg, env)))
    return out


def choose_by_rank(job: ClassAd, authorized: list[StoredAd], reg: FnRegistry,
                   env: dict | None) -> tuple[str, float] | None:
    """Rank argmax as (ad id, rank); non-numeric and non-finite ranks drop out."""
    best = best_key = None
    for cand, (ad_id, value) in zip(authorized,
                                    rank_resources(job, authorized, reg, env)):
        if not value.is_numeric() or not math.isfinite(value.as_real()):
            continue
        rank = value.as_real()
        key = (-rank, cand.name.encode("utf-8"), ad_id.encode("utf-8"))
        if best_key is None or key < best_key:
            best, best_key = (ad_id, rank), key
    return best


def match_jobs(store: AdStore, jobs: Iterable[ClassAd], reg: FnRegistry,
               env: dict | None, now: float = 0.0,
               claimed: Collection[str] | None = None,
               choose=choose_by_rank) -> Iterator[MatchDecision]:
    """Lazy FIFO pass: one decision per job, while any visible ad is free.

    The free ads are the visible ones whose ids are not in `claimed`; a
    claim removes its ad from them. Once none is left the pass stops and
    pulls no further job from `jobs`. `choose(job, authorized ads, reg,
    env)` returns the (ad id, rank) to claim, or None, which leaves the job
    with reason all-rank-error.
    """
    claimed = claimed or ()
    free = [s for s in store.snapshot(now) if s.ad.ad_id not in claimed]
    if not free:
        return
    for job in jobs:
        candidates = [s for s in free if symmetric_match(job, s.ad, reg, env)]
        if not candidates:
            yield MatchDecision.no_match(job.ad_id, "no-candidates")
            continue
        authorized = [s for s in candidates if preauthorize(store, job, s.ad.ad_id)]
        if not authorized:
            yield MatchDecision.no_match(job.ad_id, "unauthorized-everywhere")
            continue
        pick = choose(job, authorized, reg, env)
        if pick is None:
            yield MatchDecision.no_match(job.ad_id, "all-rank-error")
            continue
        yield MatchDecision.match(job.ad_id, *pick)
        free = [s for s in free if s.ad.ad_id != pick[0]]
        if not free:
            return


def run_match_cycle(store: AdStore, jobs: list[ClassAd], reg: FnRegistry,
                    env: dict | None, now: float = 0.0,
                    claimed: Collection[str] | None = None,
                    choose=choose_by_rank) -> list[MatchDecision]:
    """`match_jobs` run to the end, with one decision for every job: those
    it did not reach, because no ad was left free, get no-candidates."""
    decisions = list(match_jobs(store, jobs, reg, env, now, claimed, choose))
    decisions.extend(MatchDecision.no_match(job.ad_id, "no-candidates")
                     for job in jobs[len(decisions):])
    return decisions


# -- wire service ----------------------------------------------------------------

class MatchmakerService:
    """Stateful ADVERTISE / MATCH_REQUEST handler for one matchmaking loop."""

    def __init__(self, station_query: StationQuery | None = None,
                 clock: Callable[[], float] | None = None):
        self.store = AdStore()
        self.registry = standard_registry()
        self.env = {"station_query": station_query} if station_query else {}
        self.clock = clock or time.monotonic
        self.handle_message = wire.dispatcher({"ADVERTISE": self._advertise,
                                               "MATCH_REQUEST": self._match_request})

    def _advertise(self, msg: dict) -> dict:
        try:
            ad = ad_from_json(msg["ad"])
            gridmap = msg.get("gridmap", [])
            ttl = float(msg.get("ttl", 0))
            if not isinstance(gridmap, list):
                raise TypeError("gridmap must be a list")
        except Exception as exc:
            raise wire.RequestError("malformed", str(exc)) from None
        try:
            self.store.collect_ad(ad, gridmap, ttl, self.clock())
        except IncompleteAd as exc:
            raise wire.RequestError("incomplete-ad", str(exc)) from None
        return {"ok": True, "ad_id": ad.ad_id}

    def _match_request(self, msg: dict) -> dict:
        try:
            jobs = [ad_from_json(j) for j in msg["jobs"]]
        except Exception as exc:
            raise wire.RequestError("malformed", str(exc)) from None
        decisions = run_match_cycle(self.store, jobs, self.registry,
                                    self.env, self.clock())
        return {"decisions": [d.to_json() for d in decisions]}
