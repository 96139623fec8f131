"""Matchmaking service.

Resources advertise themselves with classads and a gridmap (the set of grid
subjects allowed to run there); jobs are matched against the unexpired ads in
FIFO order. For each job the pipeline is:

    free ads -> gridmap pre-authorization -> symmetric Requirements
    -> choose

The free ads are kept as an index (`free_index`) of `StoredAd` records,
which the caller of `match_jobs` holds: `run_match_cycle`, and so every
MATCH_REQUEST, builds a fresh one from the store's snapshot, while the
simulator keeps one index alive for a whole run. Its layout is this
module's alone: a claim (`_claim`) takes its ad out of the index, so each
ad is claimed once and is invisible to later jobs in the same cycle, and
`release` puts a claimed ad back. Authorization is judged on the record's
gridmap, never on the live store, which an ADVERTISE may change mid-cycle.
`match_jobs` reads a job's Owner once per pass and hands it down to each
pre-authorization (`preauthorize`), one per resource cluster judged.
`match_jobs` runs the pipeline lazily and stops as soon as no ad is free,
so a cycle over a long backlog pulls no job after the one that took the
last free ad;
`run_match_cycle` is the same pass with one decision for every job, the
unreached ones getting no-candidates. Requirements are evaluated on the
authorized ads; those of the others only when no authorized ad passes, and
only to tell no-candidates (no ad passes) from unauthorized-everywhere.

With `choose` None, the chooser is the Rank argmax: it evaluates the job's
Rank against the authorized ads (external functions query stations now);
the simulator's baselines pass a chooser of their own. Ranks that are
not a finite number (Undefined, Error, non-numeric, or too large for a Real)
drop the candidate rather than demoting it. Ties on rank break by resource
Name, then ad id, both in UTF-8 byte order.

Resource clusters. The stored ads of equal kind, equal attribute bindings
and equal gridmap form one resource cluster (`StoredAd.cluster`); the slots
of one site cluster are advertised that way. The free index maps each
cluster to its free members, in ad id order, so a job's cost follows the
clusters, not the slots. Every stage judges a cluster on its first free
member and applies the verdict to all of them: pre-authorization and
Requirements once per cluster among the free ones, and the chooser gets
the passing clusters' member lists. The Rank argmax evaluates Rank once per
cluster, and a cluster competes with its lowest ad id: its members share
Name and rank, so the tie-break picks that one, as it would among all of
them. This relies on a contract of the function registry: a handler's
result may depend on the ads' attributes and on `env`, never on which ad
object, or which ad id, it was handed. `fun` meets it.

Job autoclusters. Jobs are grouped the same way, once per expression, as
HTCondor's schedd groups them by their significant attributes. The sharing
rule (`FnRegistry`): ads that agree on every binding an evaluation can read,
through SELF references, through the other ads' OTHER references and
through the SELF attributes its handlers declare with `reads`, evaluate
alike. So two jobs share an autocluster (`ClassAd.autocluster`) for the
verdict (pre-authorization and Requirements) when they agree on that
closure of Owner and Requirements, and for the rank on that of Rank; `fun`
declares OutputBytes. A pass given a `Verdicts` judges each verdict
autocluster once, for all its jobs, until a cluster leaves the index, and
ranks the jobs of one rank autocluster once per resource cluster; that
class states which verdicts outlive the pass and the skip rule. The
simulator builds one per cycle over the verdict table it keeps for a run;
a MATCH_REQUEST (`run_match_cycle`) builds none and judges each job on its
own. Its jobs are fresh ads that die with the request, so a `Verdicts`
would compute autoclusters no later pass reuses: built per request, it
cost about a quarter more opcodes per one-job request and about 9% of
`grid-wire`'s rate (CPython 3.11, 2 CPUs). A job computes its autoclusters when a
pass first needs them and keeps them, as it keeps its self-reads.

Station connections. `DirectoryQuery`, the station query of `vogrid mm
serve`, keeps one connection per station and reuses it across queries and
MATCH_REQUESTs, so a query costs a send and a read; it retries once, on a
fresh connection, when the station has closed the one it reused.
"""

from __future__ import annotations

import bisect
import logging
import math
import threading
import time
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

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
from .classads.ads import AdKind, of_kind
from .classads.exprs import Literal
from .jobs import output_bytes

log = logging.getLogger("vogrid.matchmaker")

QUERY_TIMEOUT_SECONDS = 2.0

REQUIRED_AD_ATTRS = ("Name", "Gatekeeper", "Station_ID")

_ZERO_RANK = Literal(real(0.0))


class IncompleteAd(Exception):
    pass


class ResourceCluster:
    """The identity shared by the stored ads of one resource cluster."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True)
class StoredAd:
    ad: ClassAd
    received_at: float
    ttl_seconds: float
    name: str
    station_id: str
    gridmap: frozenset[str]
    cluster: ResourceCluster


class MatchDecision(NamedTuple):
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
    """Resource ads keyed by ad id, each with an expiry, a gridmap and a
    resource cluster.

    A snapshot drops the ads that have expired by its `now`, so the store
    holds only ads still to be seen, and an expired ad's cluster leaves the
    cluster table with it. Callers' clocks never run backwards.

    Thread-safe: upserts may run while another thread matches.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ads: dict[str, StoredAd] = {}
        # (gridmap, ClassAd.key()) -> cluster; an entry lives only as long
        # as some StoredAd holds its cluster
        self._clusters: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def collect_ad(self, ad: ClassAd, gridmap: Iterable[str], ttl_seconds: float,
                   now: float) -> StoredAd:
        """Upsert one ad and its gridmap in one step; returns the stored record."""
        for attr in REQUIRED_AD_ATTRS:
            if attr not in ad:
                raise IncompleteAd(f"ad {ad.ad_id!r} lacks {attr}")
        name = ad.self_text("Name")
        station_id = ad.self_text("Station_ID")
        if name is None or station_id is None:
            raise IncompleteAd(f"ad {ad.ad_id!r}: Name and Station_ID must be text")
        subjects = frozenset(gridmap)
        key = (subjects, ad.key())
        with self._lock:
            cluster = self._clusters.get(key)
            if cluster is None:
                cluster = self._clusters[key] = ResourceCluster()
            stored = self._ads[ad.ad_id] = StoredAd(
                ad, now, float(ttl_seconds), name, station_id, subjects, cluster)
        return stored

    def snapshot(self, now: float) -> list[StoredAd]:
        """Unexpired ads in insertion order, forgetting the expired ones.
        ttl 0 means never visible."""
        with self._lock:
            live = [s for s in self._ads.values() if now < s.received_at + s.ttl_seconds]
            if len(live) < len(self._ads):
                self._ads = {s.ad.ad_id: s for s in live}
            return live


def preauthorize(owner: str | None, stored: StoredAd) -> bool:
    """True iff `owner`, the job's Owner as `match_jobs` read it, is a grid
    subject in the stored ad's gridmap; a job whose Owner is not text (None)
    is authorized nowhere."""
    return owner is not None and owner in stored.gridmap


# -- match-time ranking ---------------------------------------------------------

StationQuery = Callable[[str, str, int | None], float]
# (dataset, station_id, output_bytes override) -> preference score

# read once here: reading an enum member looks it up on its class each time
_TEXT, _REAL = ValueKind.TEXT, ValueKind.REAL


def _fun_handler(args: list, self_ad, other_ad, env) -> Value:
    """fun(dataset, station_id): ask that station how it likes this dataset."""
    if env is None or "station_query" not in env:
        raise RuntimeError("no station query configured")
    dataset, station = args
    if dataset.kind is not _TEXT or station.kind is not _TEXT:
        raise TypeError("fun() wants two text arguments")
    score = env["station_query"](dataset.data, station.data,
                                 output_bytes(self_ad))
    return Value(_REAL, float(score))  # real(score), less a call


def standard_registry() -> FnRegistry:
    reg = FnRegistry()
    reg.register("fun", 2, _fun_handler, reads=("OutputBytes",))
    return reg


# what a reused connection raises when the station closed it, as a restart does
_STALE = (wire.ConnectionClosed, ConnectionResetError, BrokenPipeError)


def _ask(conn: wire.Connection, msg: dict) -> dict:
    """One round trip; a connection that raised is closed, never reused: after
    a timeout a late reply may still arrive on it."""
    try:
        return conn.request(msg)
    except BaseException:
        conn.close()
        raise


class DirectoryQuery:
    """Station query (a `StationQuery`) that resolves Station_ID through a
    host:port directory, over at most one idle connection per station.

    A query takes its station's idle connection, or opens a fresh one when
    another query holds it, and puts it back afterwards; if the station has
    an idle connection again by then, it closes its own instead. So two
    threads never share a connection, a query never waits for another, and
    each station keeps at most one connection open between queries. An error
    reply leaves the connection usable and raises WireError. A reused
    connection that the station has closed (an empty read, ECONNRESET or
    EPIPE) is retried once on a fresh one, which is safe because a query
    never changes station state; a timeout, or any failure of a fresh
    connection, propagates. A reply is read by `wire.reply_result`, so one
    of any other shape is a WireError too. `close` closes the idle connections.
    """

    def __init__(self, directory: Mapping[str, tuple[str, int]],
                 auth_token: str | None = None):
        self._directory = directory
        self._auth_token = auth_token
        self._lock = threading.Lock()
        self._idle: dict[str, wire.Connection] = {}

    def __call__(self, dataset: str, station_id: str, output_bytes: int | None) -> float:
        host, port = self._directory[station_id]
        msg = {"type": "GET_PREFERENCE", "dataset": dataset}
        if output_bytes is not None:
            msg["output_bytes"] = output_bytes
        with self._lock:
            conn = self._idle.pop(station_id, None)
        if conn is not None:
            try:
                reply = _ask(conn, msg)
            except _STALE:
                conn = None
        if conn is None:
            conn = wire.Connection(host, port, timeout=QUERY_TIMEOUT_SECONDS,
                                   auth_token=self._auth_token)
            reply = _ask(conn, msg)
        with self._lock:
            spare = station_id in self._idle
            if not spare:
                self._idle[station_id] = conn
        if spare:
            conn.close()
        return float(wire.reply_result(reply)["score"])

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for conn in idle.values():
            conn.close()


def rank_resources(job: ClassAd, clusters: list[list[StoredAd]], reg: FnRegistry,
                   env: dict | None) -> list[Value]:
    """The job's Rank against each resource cluster, given as its member
    list: evaluated once per cluster, against its first member."""
    rank_expr = job.lookup("Rank") or _ZERO_RANK
    return [evaluate(rank_expr, job, members[0].ad, reg, env) for members in clusters]


def _argmax(clusters: list[list[StoredAd]],
            ranks: list[float | None]) -> tuple[str, float] | None:
    """The Rank argmax as (ad id, rank), given each cluster's rank as
    `Value.as_real` reads it; ranks that are not finite numbers drop out.

    Ties break by Name, then ad id. Code point order of text is its UTF-8
    byte order. The members of a cluster share Name and rank, so each
    cluster competes with its lowest ad id, its first member.
    """
    best = best_key = None
    for members, rank in zip(clusters, ranks):
        if rank is None:
            continue
        first = members[0]
        key = (-rank, first.name, first.ad.ad_id)
        if best_key is None or key < best_key:
            best, best_key = (first.ad.ad_id, rank), key
    return best


FreeIndex = dict[ResourceCluster, list[StoredAd]]

_AD_ID = attrgetter("ad.ad_id")


def free_index(ads: Iterable[StoredAd]) -> FreeIndex:
    """The free ads as an index from resource cluster to its members among
    `ads`, each list in ad id order."""
    index: FreeIndex = {}
    for s in sorted(ads, key=_AD_ID):
        index.setdefault(s.cluster, []).append(s)
    return index


def _claim(index: FreeIndex, offered: list[list[StoredAd]], ad_id: str) -> None:
    """Take the picked ad out of the free index, found by bisecting each
    offered member list, which is in ad id order."""
    for members in offered:
        k = bisect.bisect_left(members, ad_id, key=_AD_ID)
        if k < len(members) and members[k].ad.ad_id == ad_id:
            stored = members.pop(k)
            if not members:
                del index[stored.cluster]
            return


def release(index: FreeIndex, stored: StoredAd) -> None:
    """Put a claimed ad back in the free index, among its cluster's free
    members in ad id order; a cluster that had none goes to the end."""
    bisect.insort(index.setdefault(stored.cluster, []), stored, key=_AD_ID)


# what a job is judged on against a cluster: its Owner and Requirements for
# the verdict, its Rank for the rank (`ClassAd.autocluster`)
_VERDICT_READS = ("requirements", "owner")
_RANK_READS = ("rank",)
_NOTHING: frozenset[str] = frozenset()


class Verdicts:
    """The verdict and rank tables of one `match_jobs` pass over `index`,
    keyed by job autocluster, with `kept`, the verdict table its caller
    keeps across passes (a simulator run keeps one).

    A job's autoclusters are taken against the names the free clusters'
    bindings refer to through OTHER (`ClassAd.other_reach`), once for the
    pass. A verdict row maps each resource cluster to [authorized, passes]:
    pre-authorization and the symmetric Requirements, judged on the
    cluster's first free member, with passes None until judged; a rank row
    maps it to the job's Rank there, as `Value.as_real` reads it. A verdict
    calls no function when neither the job's verdict autocluster nor any
    free cluster's bindings do; then it holds as long as the ads and the
    registry do, so its row goes in `kept`. Every other verdict row, and
    every rank row, belongs to the pass.

    One judgement per group (`judge`): each verdict autocluster is judged
    (`_judge`) once, and its passing member lists, or its no-match reason,
    serve the group's later jobs in the pass until a cluster leaves the
    index. A claim only takes members out, and the member lists are the
    index's own, so while the number of clusters is the same, so is the
    judgement; a group whose verdict calls a function is no exception, as
    every verdict, kept or not, holds for the whole pass.

    The skip rule (`refuses`): a job whose verdict row in `kept` holds a
    verdict for every free cluster, none of them authorized and passing,
    would get a no-match decision and call no chooser, so a caller that
    drops such decisions may pass over it unjudged; claims only shrink the
    index, so it stays refused for the rest of the pass. It never applies
    to a verdict that calls a function, as none is kept.
    """

    __slots__ = ("_index", "_reg", "_others", "_kept", "_fresh", "_ranks", "_size",
                 "_judged")

    def __init__(self, index: FreeIndex, kept: dict, reg: FnRegistry):
        others, called = _NOTHING, False
        for members in index.values():
            names, calls = members[0].ad.other_reach()
            if names:
                others = others | names
            called |= calls
        self._index, self._reg, self._others = index, reg, others
        self._fresh: dict = {}
        self._kept = self._fresh if called else kept
        self._ranks: dict = {}
        # verdict autocluster -> `_judge`'s answer, while the index holds
        # `_size` clusters
        self._size, self._judged = len(index), {}

    def judge(self, job: ClassAd, owner: str | None,
              env: dict | None) -> list[list[StoredAd]] | str:
        """`_judge`'s answer for the job, whose Owner is `owner`, judged once
        per group while the index keeps its clusters."""
        group = job.autocluster(_VERDICT_READS, self._others, self._reg)
        if len(self._index) != self._size:  # a cluster left: judge afresh
            self._size, self._judged = len(self._index), {}
        judged = self._judged.get(group)
        if judged is None:
            row = (self._fresh if group.calls else self._kept).setdefault(group, {})
            judged = self._judged[group] = _judge(job, owner, self._index, row, self._reg, env)
        return judged

    def rank_row(self, job: ClassAd) -> dict:
        """The job's rank row, for `_ranks` to read and fill."""
        group = job.autocluster(_RANK_READS, self._others, self._reg)
        return self._ranks.setdefault(group, {})

    def refuses(self, job: ClassAd) -> bool:
        """The skip rule: whether the kept verdicts refuse the job on every
        cluster now free."""
        if self._kept is self._fresh:
            return False
        row = self._kept.get(job.autocluster(_VERDICT_READS, self._others, self._reg))
        if row is None:
            return False
        for members in self._index.values():
            verdict = row.get(members[0].cluster)
            if verdict is None or verdict[0] and verdict[1]:
                return False
        return True


def _ranks(row: dict | None, job: ClassAd, clusters: list[list[StoredAd]],
           reg: FnRegistry, env: dict | None) -> list[float | None]:
    """`rank_resources` as `Value.as_real` reads it. With `row`, the job's
    rank row (`Verdicts`), it is evaluated only for the clusters the row
    lacks."""
    if row is None:
        return [v.as_real() for v in rank_resources(job, clusters, reg, env)]
    unranked = [members for members in clusters if members[0].cluster not in row]
    if unranked:
        for members, value in zip(unranked, rank_resources(job, unranked, reg, env)):
            row[members[0].cluster] = value.as_real()
    return [row[members[0].cluster] for members in clusters]


def _judge(job: ClassAd, owner: str | None, index: FreeIndex, row: dict,
           reg: FnRegistry, env: dict | None) -> list[list[StoredAd]] | str:
    """The member lists of the free clusters that the job, whose Owner is
    `owner`, may use and whose Requirements pass, or, if there are none,
    the reason: unauthorized-everywhere if a refused cluster passes, else
    no-candidates. Reads and fills `row`, the job's verdict row
    (`Verdicts`), so each verdict missing from it is judged once."""
    passing, refused = [], []
    for members in index.values():
        first = members[0]
        verdict = row.get(first.cluster)
        if verdict is None:
            verdict = row[first.cluster] = [preauthorize(owner, first), None]
            if verdict[0]:
                verdict[1] = symmetric_match(job, first.ad, reg, env)
        if not verdict[0]:
            refused.append((verdict, first))
        elif verdict[1]:
            passing.append(members)
    if passing:
        return passing
    for verdict, first in refused:
        if verdict[1] is None:
            verdict[1] = symmetric_match(job, first.ad, reg, env)
        if verdict[1]:
            return "unauthorized-everywhere"
    return "no-candidates"


def match_jobs(index: FreeIndex, jobs: Iterable[ClassAd], reg: FnRegistry,
               env: dict | None, choose=None,
               verdicts: Verdicts | None = None) -> Iterator[MatchDecision]:
    """Lazy FIFO pass: one decision per job, while any ad in `index` is free.

    `index` (see `free_index`) belongs to the caller, and a claim takes its
    ad out of it, deleting a cluster whose last free member it was; a caller
    that keeps the index puts an ad back with `release`. Once the index is
    empty the pass stops and pulls no further job from `jobs`.
    Pre-authorization and then Requirements are judged once per cluster, on
    its first free member; the Requirements of a cluster the job may not use
    are evaluated only when no authorized cluster passes, to tell
    no-candidates from unauthorized-everywhere. The chooser gets the member
    lists of the authorized clusters that pass and picks the (ad id, rank)
    to claim, or None, which leaves the job with reason all-rank-error. With
    `choose` None it is the Rank argmax, which evaluates the job's Rank once
    per passing cluster (`rank_resources`). Any other `choose(job, clusters,
    reg, env)` gets those lists, which are the index's own and must not be
    changed, in no particular order, and must return one of their members.
    A job whose Owner is not text is logged once per pass, however many
    clusters refuse it.

    With `verdicts`, built over `index` for this pass, each verdict is
    judged once per (job autocluster, resource cluster), a job's group's
    judgement serves it while no cluster has left the index
    (`Verdicts.judge`), and the Rank argmax reads each rank through the
    pass's rank table, once per (job autocluster, resource cluster).
    Without it, each job is judged and ranked on its own, as a MATCH_REQUEST
    is (`run_match_cycle`): its jobs are fresh ads, so autoclusters would
    cost more than they share (see the module docstring).
    """
    if not index:
        return
    for job in jobs:
        owner = job.self_text("Owner")
        if owner is None:
            log.warning("job %s has no usable Owner; unauthorized everywhere", job.ad_id)
        passing = (_judge(job, owner, index, {}, reg, env) if verdicts is None
                   else verdicts.judge(job, owner, env))
        if isinstance(passing, str):
            yield MatchDecision.no_match(job.ad_id, passing)
            continue
        if choose is None:
            row = None if verdicts is None else verdicts.rank_row(job)
            pick = _argmax(passing, _ranks(row, job, passing, reg, env))
        else:
            pick = choose(job, passing, reg, env)
        if pick is None:
            yield MatchDecision.no_match(job.ad_id, "all-rank-error")
            continue
        yield MatchDecision.match(job.ad_id, *pick)
        _claim(index, passing, pick[0])
        if not index:
            return


def run_match_cycle(store: AdStore, jobs: list[ClassAd], reg: FnRegistry,
                    env: dict | None, now: float = 0.0) -> list[MatchDecision]:
    """One Rank argmax pass over a fresh index of the ads visible at `now`,
    with one decision for every job: those `match_jobs` did not reach,
    because no ad was left free, get no-candidates. It builds no `Verdicts`,
    so each job is judged on its own."""
    index = free_index(store.snapshot(now))
    decisions = list(match_jobs(index, jobs, reg, env))
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
        ttl = wire.number_field(msg, "ttl", 0)
        try:
            ad = ad_from_json(of_kind(msg["ad"], AdKind.RESOURCE))
        except Exception as exc:
            raise wire.RequestError("malformed", str(exc)) from None
        gridmap = wire.text_list_field(msg, "gridmap")
        try:
            self.store.collect_ad(ad, gridmap, ttl, self.clock())
        except IncompleteAd as exc:
            raise wire.RequestError("incomplete-ad", str(exc)) from None
        return {"ok": True, "ad_id": ad.ad_id}

    def _match_request(self, msg: dict) -> dict:
        try:
            jobs = [ad_from_json(of_kind(j, AdKind.JOB)) for j in msg["jobs"]]
        except Exception as exc:
            raise wire.RequestError("malformed", str(exc)) from None
        decisions = run_match_cycle(self.store, jobs, self.registry,
                                    self.env, self.clock())
        return {"decisions": [d.to_json() for d in decisions]}
