"""Deterministic grid simulator.

A scenario bundles site configurations, station runtime fixtures, gridmaps,
a dataset catalog, and a list of job ads. The run submits every job at time
zero and then alternates match cycles with clock advances until nothing is
left to do. Staging a matched job takes exactly the negated preference score
its chosen station reported, so the quantity the ranking minimizes is the
quantity the report measures.

Scoring and staging both use the station states as they were when the cycle
started, and each distinct (dataset, station, output bytes) preference is
asked once per cycle; queue and cache updates land on the live stations and
are visible from the next cycle on. A staging is two counted station steps
(`station.apply_event`), whatever its number of files: its files' requests
join the input queue as it starts, and leave it, the files joining the
cache, as it ends. Each station walks a dataset's files once per cache
state (`station.shortfall`), and each run starts from its own copies of the
scenario's station states, so no run reads another's answers.

All policies share `match_jobs` and differ only in the chooser, which gets
the authorized resource clusters as lists of their free slots: `data-aware`
passes none, so it takes the Rank argmax, evaluating Rank once per cluster
through the cycle's rank table; `random` and `round-robin` pick, without
ranking, among all the authorized slots one whose station can stage the
job, and record rank 0. A cycle pulls idle
jobs lazily, in job id order, from the run's own idle worklist, and only
until every ad is busy or claimed; it stages and holds after the pass. A
cycle that began with some event pending holds no job, so it drops the
decision of every job that does not match; its pull passes over,
unjudged, the jobs that the skip rule names (`matchmaker.Verdicts`), which
calls no chooser and so changes no draw and no rotation. A cycle that
began with nothing pending judges every job it pulls, since its holds need
each job's reason. So a cycle judges the jobs it pulls that may still
match, but it steps over every idle job ahead of the last one it pulls, a
few dict reads each for a refused one; that part grows with the backlog.
Within a cycle, the jobs of one verdict autocluster share one judgement
until a cluster leaves the free index (`Verdicts.judge`), so judging a job
whose group was judged before costs a few dict reads too.

The worklist is a dict from job id to record, built in job id order after
the submits. A run never releases a job, so the worklist only shrinks: the
two steps out of Idle, staging (`_start_staging`) and holding (`_hold`),
each drop the job from it there. CPython does not compact a dict on
deletion, so a fresh iterator also steps over the holes that dropped jobs
leave ahead of the first job still idle.

A scenario derives its stations and collects its slots once, the first
time a run is built from it (`Scenario.grid`); a run copies only the station
states, each with an empty memo, and never changes the shared slot records.
The free slots are one index for the whole run, kept up to date as slots are
claimed and freed, never rebuilt from a snapshot: a cycle's claims take slots
out of it and a finished job puts its slot back (`matchmaker.release`), so
only the matchmaker knows the index's layout. Each cluster's members stay
in ad id order, but a cluster that empties and frees again goes to the
end, and the clusters may come in another order than a fresh `free_index`
would give. No decision depends on that order: the Rank argmax breaks
ties totally (rank, Name, ad id), `random` sorts its candidates by (Name,
ad id) before drawing, and `round-robin` looks them up by ad id. Every
slot is collected at time 0 with the scenario's one TTL, so all of them
are visible exactly while the clock is below it.

A run also keeps a verdict table, which each cycle reads and fills through
a `matchmaker.Verdicts`, by that class's rules: a kept verdict depends only
on bindings, gridmaps and the registry, none of which a run changes, so it
is judged once per run. The table belongs to the run, never to the
`Scenario`: every run judges afresh, as a run of a freshly loaded scenario
would. Each job ad keeps its autoclusters across the runs that share it,
computed on its first cycle, never at load.

The work in flight lives only in the event heap. A match pushes the event
that ends the job's staging, which pushes the one that ends its run; each
carries the job's record and slot, and the first also the names of the
files it fetches. So a slot is busy exactly while one event of its job is
pending, and no slot is busy exactly when the heap is empty.

A cycle runs at the start and after each event batch that leaves a slot
free; with every slot busy it could change nothing (`GridWorld.run` gives
the argument). A batch that completes a job frees that job's slot. A
batch that only ends stagings frees none, but it changes what Rank and
Requirements read through fun(), the stations' queues and caches, so it is
not enough that a batch frees no slot: a job refused while a slot was free
may pass once files are cached.

Job ads are checked once, when the scenario loads: Owner and Dataset must be
text, and OutputBytes and RunSeconds usable quantities (see `jobs`). The
scenario reads each kind of input by the rule the servers use: a scenario
file is read by `wire.read_json_file`, a site's gridmap is read by
`wire.text_list_field`, the catalog and station fixtures are checked by
`DatasetCatalog` and `StationState`, and every expression source goes
through `parse_expr`, whose memo gives equal sources one tree, across loads
too.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import cached_property

from . import wire
from .advertise import MissingAttribute, generate_classads, select_patterns
from .classads import AdKind, ClassAd, parse_expr
from .conftree import (MissingSection, TreeNode, UnsupportedSchemaVersion,
                       derive_service_config, read_tree)
from .jobs import (DONE, HELD, MATCHED, RUNNING, STAGING, SUBMITTED, JobQueue,
                   output_bytes, run_seconds, validate_job_ad)
from .matchmaker import (
    AdStore,
    FreeIndex,
    MatchDecision,
    StoredAd,
    Verdicts,
    free_index,
    match_jobs,
    release,
    standard_registry,
)
# bench/run.py wraps these by name in this module; nothing here calls them
from .classads import evaluate, symmetric_match  # noqa: F401
from .matchmaker import preauthorize, run_match_cycle  # noqa: F401
from .station import (
    DatasetCatalog,
    NoRouteToSource,
    ScoreOverflow,
    StationState,
    UnknownDataset,
    apply_event,
    copy_state,
    get_preference,
    shortfall,
    station_from_config,
)

POLICIES = ("data-aware", "random", "round-robin")

EVENT_CAP = 10 ** 6

DEFAULT_TTL = 10.0 ** 9


class ScenarioParseError(Exception):
    pass


class NonQuiescent(Exception):
    pass


@dataclass
class SiteSpec:
    config: TreeNode
    station_fixtures: dict[str, dict]
    gridmap: list[str]


@dataclass(frozen=True)
class Scenario:
    name: str
    catalog: DatasetCatalog
    sites: list[SiteSpec]
    job_ads: list[ClassAd]
    ttl: float = DEFAULT_TTL

    @cached_property
    def grid(self) -> tuple[dict[str, StationState], dict[str, StoredAd]]:
        """The stations by id and the slot records by ad id, derived and
        collected the first time a run is built. Every run shares them and
        changes neither. A grid that fails to build, as one does from a site
        configuration whose stations cannot be derived or whose slots cannot
        be advertised, is not kept, so every run raises its
        ScenarioParseError."""
        stations: dict[str, StationState] = {}
        slots: dict[str, StoredAd] = {}
        store = AdStore()  # gives equal slot ads one resource cluster
        for site in self.sites:
            try:
                derived = derive_service_config(site.config, "station")
                ads = generate_classads(select_patterns(site.config))
            except (UnsupportedSchemaVersion, MissingSection, MissingAttribute) as exc:
                raise ScenarioParseError(f"bad site configuration: {exc}") from exc
            for node in derived.children:
                try:
                    st = station_from_config(
                        node, site.station_fixtures.get(node.attributes["name"]))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ScenarioParseError(f"bad station: {exc!r}") from exc
                if st.station_id in stations:
                    raise ScenarioParseError(
                        f"station {st.station_id!r} defined twice")
                stations[st.station_id] = st
            for ad in ads:
                if ad.ad_id in slots:
                    raise ScenarioParseError(f"slot {ad.ad_id!r} defined twice")
                slots[ad.ad_id] = store.collect_ad(ad, site.gridmap, self.ttl, now=0.0)
        unknown = {s.station_id for s in slots.values()} - set(stations)
        if unknown:
            raise ScenarioParseError(
                f"ads reference undefined stations {sorted(unknown)}")
        return stations, slots


_DEFAULT_RANK_SOURCE = "fun(Dataset, OTHER.Station_ID)"


def load_scenario(doc: dict) -> Scenario:
    try:
        catalog = DatasetCatalog(doc["catalog"])
        sites = []
        for site_doc in doc["sites"]:
            sites.append(SiteSpec(
                config=read_tree(site_doc["config_xml"]),
                station_fixtures=dict(site_doc.get("stations", {})),
                gridmap=list(wire.text_list_field(site_doc, "gridmap")),
            ))
        job_ads = []
        job_ids = set()
        for job_doc in doc["jobs"]:
            attrs = dict(job_doc["ad"])
            attrs.setdefault("Rank", _DEFAULT_RANK_SOURCE)
            ad = ClassAd({name: parse_expr(src) for name, src in attrs.items()},
                         AdKind.JOB, ad_id=str(job_doc["id"]))
            if ad.ad_id in job_ids:
                raise ScenarioParseError(f"job {ad.ad_id!r} defined twice")
            job_ids.add(ad.ad_id)
            # a value the run could not use fails here, not partway through
            validate_job_ad(ad)
            output_bytes(ad)
            run_seconds(ad)
            job_ads.append(ad)
        return Scenario(name=doc.get("name", "scenario"), catalog=catalog,
                        sites=sites, job_ads=job_ads,
                        ttl=wire.number_field(doc, "ttl", DEFAULT_TTL))
    except ScenarioParseError:
        raise
    except Exception as exc:
        raise ScenarioParseError(f"bad scenario document: {exc}") from exc


def load_scenario_file(path: str) -> Scenario:
    """The scenario in a JSON file, read by `wire.read_json_file`. A file
    that is not JSON is a ScenarioParseError, as a bad document is."""
    try:
        doc = wire.read_json_file(path)
    except ValueError as exc:
        raise ScenarioParseError(f"not JSON: {exc}") from None
    return load_scenario(doc)


def make_site_config(site: str, cluster: str, station: str,
                     links: dict[str, float], slots: int = 1,
                     architecture: str = "Linux",
                     mean_service_seconds: float = 1.0) -> TreeNode:
    """Convenience builder for the site trees scenarios embed."""
    link_nodes = [
        TreeNode("link", {"to": to, "bandwidth_bytes_per_second": repr(float(bw))})
        for to, bw in sorted(links.items())
    ]
    station_node = TreeNode("station", {
        "name": station,
        "mean_service_seconds": repr(float(mean_service_seconds)),
    }, link_nodes)
    gatekeeper_node = TreeNode("gatekeeper", {
        "url": f"gram://{cluster}.{site}.example:2119",
        "jobmanager": "fork",
    })
    cluster_node = TreeNode("cluster", {
        "name": cluster,
        "architecture": architecture,
        "slots": str(slots),
    }, [gatekeeper_node, station_node])
    return TreeNode("site", {"name": site, "schema_version": "v0_3"},
                    [cluster_node])


class _CycleScores:
    """The station query (`StationQuery`) of a run's match cycles: the
    stations' scores at the cycle's start, each distinct (dataset, station,
    output bytes) asked of `get_preference` once per cycle. It refers to no
    world, so a run that has finished is freed with its last reference."""

    __slots__ = ("catalog", "snapshot", "scores")

    def __init__(self, catalog: DatasetCatalog):
        self.catalog = catalog
        self.snapshot: dict[str, StationState] = {}
        self.scores: dict[tuple, float] = {}

    def start_cycle(self, stations: dict[str, StationState]) -> None:
        self.snapshot = dict(stations)
        self.scores = {}

    def __call__(self, dataset: str, station_id: str, output_bytes: int | None) -> float:
        key = (dataset, station_id, output_bytes)
        score = self.scores.get(key)
        if score is None:
            # by this module's name, which a tracer may rebind
            score = self.scores[key] = get_preference(
                self.catalog, self.snapshot[station_id], dataset, output_bytes).score
        return score


class GridWorld:
    """One run of a scenario: its station states, free slots, job queue, idle
    worklist and clock."""

    def __init__(self, scenario: Scenario, policy: str, seed: int):
        if policy not in POLICIES:
            raise ScenarioParseError(f"unknown policy {policy!r}")
        self.scenario = scenario
        self.policy = policy
        self.rng = random.Random(seed)
        self.seed = seed
        self.clock = 0.0
        self.catalog = scenario.catalog
        self.registry = standard_registry()
        # shared by every run of the scenario: the slot records (by ad id)
        # are only read; the station states are copied, as a run replaces
        # them and fills their memos
        stations, self.slots = scenario.grid
        self.stations = {sid: copy_state(st) for sid, st in stations.items()}
        self.event_log: list[dict] = []
        self.events_processed = 0
        self._heap: list = []
        self._heap_seq = 0
        self._rr_ptr = 0
        self.queue = JobQueue()
        self._query = _CycleScores(self.catalog)
        self._env = {"station_query": self._query}
        self._rr_order = sorted(self.slots)
        # the slots with no event pending, kept up to date across the run
        self._free: FreeIndex = free_index(self.slots.values())
        # the verdict table kept for the run (`Verdicts`)
        self._verdicts: dict = {}
        for ad in scenario.job_ads:
            self.queue.submit(ad, stamp=self.clock)
            self.event_log.append({"t": self.clock, "event": "submit", "job": ad.ad_id})
        # the idle worklist: every job, as all are idle now, by job id
        self._idle = dict(self.queue.jobs)

    # -- plumbing ---------------------------------------------------------

    def _push(self, at: float, action, *args):
        """Schedule `action(*args)` at time `at`, where `args[0]` is the job's
        record; events at one time run in the order they were pushed. A time
        that is not finite is NonQuiescent: no later event could ever run."""
        if not math.isfinite(at):
            raise NonQuiescent(f"job {args[0].ad.ad_id}: event time {at!r} is not finite")
        self._heap_seq += 1
        heapq.heappush(self._heap, (at, self._heap_seq, action, args))

    # -- one scheduling pass ----------------------------------------------

    def _choose_baseline(self, job: ClassAd, clusters: list[list[StoredAd]],
                         reg, env) -> tuple[str, float] | None:
        """The random and round-robin chooser: no ranking, rank 0.

        It draws from every member of the authorized clusters, not one per
        cluster, since the random draw and the rotation are over ads. It
        picks only an ad whose station can stage the job, since staging
        anywhere else fails; the data-aware Rank drops the others as rank
        errors. A station can stage a job when it can score it: it has a
        route for every file the job lacks and for its output, and the score
        is one a float can hold. With none, it picks nothing, which leaves
        the job with all-rank-error, as under data-aware. Random draws again
        without an ad that cannot stage, so it picks uniformly among those
        that can; round-robin passes over such ads in its rotation."""
        authorized = [s for members in clusters for s in members]
        dataset, out_bytes = job.self_text("Dataset"), output_bytes(job)

        def can_stage(stored: StoredAd) -> bool:
            try:
                self._query(dataset, stored.station_id, out_bytes)
            except (NoRouteToSource, UnknownDataset, ScoreOverflow):
                return False
            return True

        if self.policy == "random":
            ordered = sorted(authorized, key=lambda s: (s.name, s.ad.ad_id))
            while ordered:
                pick = self.rng.choice(ordered)
                if can_stage(pick):
                    return pick.ad.ad_id, 0.0
                ordered.remove(pick)
            return None
        by_id = {s.ad.ad_id: s for s in authorized}
        n = len(self._rr_order)
        for k in range(n):
            pick = by_id.get(self._rr_order[(self._rr_ptr + k) % n])
            if pick is not None and can_stage(pick):
                self._rr_ptr = (self._rr_ptr + k + 1) % n
                return pick.ad.ad_id, 0.0
        return None

    def _match_cycle(self) -> None:
        """Match the idle jobs once.

        `match_jobs` pulls idle records lazily, in job id order, from the
        idle worklist `self._idle`, and stops once no ad is left free; the
        jobs it did not reach count as having no candidates. Its free ads
        are the live index `self._free`. The TTL is tested here only: `run`
        calls a cycle whenever a slot is free, also after the TTL has
        passed, and then the pass gets an empty index.

        A cycle that began with an event pending pulls only the jobs that
        the skip rule (`Verdicts.refuses`) does not pass over: the others
        would get a no-match decision that this cycle drops.

        The pass changes neither the queue nor the stations: it reads only
        the index it claims from and the cycle's snapshot. So its
        transitions and staging land after it, in the order it decided them,
        which is what applying each one at once would give.

        A job that failed to match while every visible ad was free (no event
        pending as the cycle started, no ad claimed earlier in its own
        cycle) can never match later, so it is held; otherwise it stays idle
        for the next cycle. If no job matched either, nothing is pending and
        no slot can free again, so the jobs the pass did not reach are held
        too, with no candidates.
        """
        idle = self._idle.values()
        if not idle:
            return
        self._query.start_cycle(self.stations)
        saw_everything = not self._heap  # no slot busy as the cycle starts
        choose = None if self.policy == "data-aware" else self._choose_baseline
        index = self._free if self.clock < self.scenario.ttl else {}
        verdicts = Verdicts(index, self._verdicts, self.registry)
        refused = None if saw_everything else verdicts.refuses
        pulled = []

        def pull():
            for record in idle:
                if refused is None or not refused(record.ad):
                    pulled.append(record)
                    yield record.ad

        decisions = list(match_jobs(index, pull(), self.registry, self._env,
                                    choose=choose, verdicts=verdicts))
        for record, decision in zip(pulled, decisions):
            if decision.matched:
                saw_everything = False
                self._start_staging(record, decision)
            elif saw_everything:
                self._hold(record, decision.reason)
        if saw_everything:
            for record in list(idle):
                self._hold(record, "no-candidates")

    def _hold(self, record, reason: str):
        self.queue.transition(record.job_id, HELD, stamp=self.clock, detail=reason)
        del self._idle[record.job_id]
        self.event_log.append({"t": self.clock, "event": "held", "job": record.ad.ad_id,
                               "reason": reason})

    def _start_staging(self, record, decision: MatchDecision):
        slot = self.slots[decision.resource_id]
        dataset = record.ad.self_text("Dataset")
        # the same query the data-aware Rank made, so staging == -rank
        staging = -self._query(dataset, slot.station_id, output_bytes(record.ad))
        self.queue.transition(record.job_id, MATCHED, stamp=self.clock, detail=slot.ad.ad_id)
        self.queue.transition(record.job_id, STAGING, stamp=self.clock)
        del self._idle[record.job_id]
        missing = shortfall(self.catalog, self._query.snapshot[slot.station_id],
                            dataset).missing
        self.stations[slot.station_id] = apply_event(
            self.stations[slot.station_id], len(missing))
        self.event_log.append({"t": self.clock, "event": "match", "job": decision.job_id,
                               "resource": slot.ad.ad_id, "rank": decision.rank,
                               "staging_seconds": staging})
        self._push(self.clock + staging, self._finish_staging, record, slot,
                   [f.file_name for f in missing])

    def _finish_staging(self, record, slot: StoredAd, files: list[str]):
        self.stations[slot.station_id] = apply_event(
            self.stations[slot.station_id], 0, len(files), files)
        self.queue.transition(record.job_id, RUNNING, stamp=self.clock)
        self.event_log.append({"t": self.clock, "event": "running", "job": record.ad.ad_id})
        self._push(self.clock + run_seconds(record.ad), self._finish_run, record, slot)

    def _finish_run(self, record, slot: StoredAd):
        self.queue.transition(record.job_id, DONE, stamp=self.clock)
        release(self._free, slot)
        self.event_log.append({"t": self.clock, "event": "done", "job": record.ad.ad_id,
                               "resource": slot.ad.ad_id})

    # -- main loop ----------------------------------------------------------

    def run(self):
        """Alternate match cycles with event batches until nothing is left.

        A cycle runs at the start and after any batch that leaves a slot
        free (`self._free` is not empty); a batch that completes a job puts
        its slot back there. With every slot busy a cycle is skipped,
        because it could change nothing: `match_jobs` gets an empty index,
        so it pulls no job and calls no chooser; no job moves, nothing is
        logged and no random draw is made; and no job is held, since a busy
        slot's job has an event pending.

        After the TTL has passed, a free slot still calls a cycle, and
        `_match_cycle` gives it an empty index. After a batch that only ends
        stagings, such a cycle changes nothing: each staged job still holds
        its slot, and the event that ends its run is pending, so no job is
        held.
        """
        can_place = True
        while True:
            if can_place:
                self._match_cycle()
            if not self._heap:
                return  # idle jobs only survive a cycle if something is pending
            batch_time = self._heap[0][0]
            self.clock = batch_time
            while self._heap and self._heap[0][0] == batch_time:
                _, _, action, args = heapq.heappop(self._heap)
                self.events_processed += 1
                if self.events_processed > EVENT_CAP:
                    raise NonQuiescent(f"more than {EVENT_CAP} events")
                action(*args)
            can_place = bool(self._free)

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """The run's outcome, job by job. Each job's history is read once:
        the first stamp of each state it reached, the resource of its latest
        match and, for a held job, the reason it was held (its last detail)."""
        jobs = []
        staging_times = []
        for job in self.queue.jobs.values():
            stamps = {}
            resource = None
            for state, stamp, detail in job.history:
                if state not in stamps:
                    stamps[state] = stamp
                if state is MATCHED:
                    resource = detail
            # the loop leaves the last entry's state and detail behind
            staging = running = total = None
            done = stamps.get(DONE)
            start = stamps.get(RUNNING)
            if start is not None:
                staged = stamps.get(STAGING)
                if staged is not None:
                    staging = start - staged
                    staging_times.append(staging)
                if done is not None:
                    running = done - start
            if done is not None:
                total = done - stamps[SUBMITTED]
            jobs.append({"job": job.ad.ad_id, "state": state, "resource": resource,
                         "staging_seconds": staging, "run_seconds": running,
                         "total_seconds": total,
                         "reason": detail if state is HELD else None})
        return {
            "scenario": self.scenario.name,
            "policy": self.policy,
            "seed": self.seed,
            "jobs": jobs,
            "mean_staging_seconds": (sum(staging_times) / len(staging_times)
                                     if staging_times else None),
            "max_staging_seconds": max(staging_times) if staging_times else None,
            "events": self.events_processed,
            "final_clock": self.clock,
        }


def run_scenario(scenario: Scenario, policy: str, seed: int) -> tuple[dict, list[dict]]:
    world = GridWorld(scenario, policy, seed)
    world.run()
    return world.report(), world.event_log
