"""Output checks that share no scoring code with the program.

`SimModel` reads a scenario document on its own (site XML through
ElementTree, job attributes through the fixed forms the generator writes)
and `check_sim_run` replays a `run_scenario` event log against it:

- every staging time is recomputed with this file's copy of the station
  latency formula, from the station state as of the start of the cycle;
- every data-aware placement is the argmax over the slots free at that
  point of the cycle, ties broken by resource Name then ad id, both in byte
  order;
- every round-robin or random pick was free, authorized for the job's Owner
  and passed the job's Requirements;
- a job that did not match in a cycle had no such slot left at its turn;
- the report agrees with the log, and every job ends Done.

`wire_oracle` recomputes the decision of a one-job MATCH_REQUEST by brute
force over the advertised slots, in the manner of the acceptance suite's
argmax oracle.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


_TEXT = re.compile(r'^"(.*)"$')
_ARCH_REQ = re.compile(r'^OTHER\.Architecture == "(.*)"$')


def _text(src: str) -> str:
    m = _TEXT.match(src)
    if m is None:
        raise CheckFailed(f"not a text literal: {src!r}")
    return m.group(1)


def staging_seconds(catalog: dict, station: dict, cached, in_depth: int,
                    dataset: str, output_bytes) -> tuple[float, list[str]]:
    """Seconds to stage `dataset` at `station`, and the files it must fetch.

    transfer of missing files in catalog order, plus the input queue wait,
    plus the output queue wait and the output transfer.
    """
    transfer = 0.0
    missing = []
    for name, size, source in catalog[dataset]:
        if name in cached:
            continue
        transfer += size / station["links"][source]
        missing.append(name)
    wait = in_depth * station["mss"]
    output = station["out_depth"] * station["mss"]
    out_bytes = station["expected_output_bytes"] if output_bytes is None else output_bytes
    if out_bytes:
        output += out_bytes / station["links"][station["output_destination"]]
    return transfer + wait + output, missing


class SimModel:
    """The parts of a scenario document that decide placements and staging."""

    def __init__(self, doc: dict):
        self.catalog = {ds: [tuple(f) for f in files]
                        for ds, files in doc["catalog"].items()}
        self.stations: dict[str, dict] = {}
        self.slots: list[dict] = []  # in advertisement order
        for site_doc in doc["sites"]:
            site = ET.fromstring(site_doc["config_xml"])
            gridmap = frozenset(site_doc["gridmap"])
            for cluster in site.iter("cluster"):
                st_el = cluster.find("station")
                sid = st_el.get("name")
                fixture = site_doc["stations"].get(sid, {})
                self.stations[sid] = {
                    "links": {ln.get("to"): float(ln.get("bandwidth_bytes_per_second"))
                              for ln in st_el.iter("link")},
                    "mss": float(st_el.get("mean_service_seconds")),
                    "cached": frozenset(fixture.get("cached_files", ())),
                    "in_depth": fixture.get("input_queue_depth", 0),
                    "out_depth": fixture.get("output_queue_depth", 0),
                    "output_destination": fixture.get("output_destination", ""),
                    "expected_output_bytes": fixture.get("expected_output_bytes", 0),
                }
                name = f"{site.get('name')}/{cluster.get('name')}"
                n = int(cluster.get("slots"))
                for k in range(1, n + 1):
                    self.slots.append({
                        "ad_id": name if n == 1 else f"{name}#{k}",
                        "name": name, "station": sid,
                        "arch": cluster.get("architecture"), "gridmap": gridmap,
                    })
        self.slot = {s["ad_id"]: s for s in self.slots}
        self.jobs: list[dict] = []
        for job_doc in doc["jobs"]:
            ad = job_doc["ad"]
            req = _ARCH_REQ.match(ad["Requirements"]) if "Requirements" in ad else None
            self.jobs.append({
                "id": str(job_doc["id"]),
                "owner": _text(ad["Owner"]),
                "dataset": _text(ad["Dataset"]),
                "req_arch": req.group(1) if req else None,
                "output_bytes": int(float(ad["OutputBytes"])) if "OutputBytes" in ad else None,
                "run_seconds": float(ad.get("RunSeconds", "0")),
            })
        self.job = {j["id"]: j for j in self.jobs}
        self.order = {j["id"]: i for i, j in enumerate(self.jobs)}
        self.eligible = {j["id"]: frozenset(
            s["ad_id"] for s in self.slots
            if (j["req_arch"] is None or s["arch"] == j["req_arch"])
            and j["owner"] in s["gridmap"]) for j in self.jobs}
        for j in self.jobs:
            _expect(bool(self.eligible[j["id"]]), f"job {j['id']} has no eligible slot")

    def best_slot(self, job: dict, free_ids, cached_of, in_depth_of):
        """(ad id, staging seconds) of the data-aware argmax among free_ids."""
        best_key, best = None, None
        memo: dict[str, float] = {}
        for ad_id in free_ids:
            slot = self.slot[ad_id]
            sid = slot["station"]
            if sid not in memo:
                memo[sid] = staging_seconds(self.catalog, self.stations[sid],
                                            cached_of[sid], in_depth_of[sid],
                                            job["dataset"], job["output_bytes"])[0]
            key = (memo[sid], slot["name"].encode("utf-8"), ad_id.encode("utf-8"))
            if best_key is None or key < best_key:
                best_key, best = key, (ad_id, memo[sid])
        return best


def check_sim_run(model: SimModel, policy: str, report: dict, log: list[dict]):
    """Replay one run's event log against the model; raise CheckFailed on a fault."""
    n = len(model.jobs)
    _expect(len(log) >= n, "log shorter than the job list")
    for i, job in enumerate(model.jobs):
        e = log[i]
        _expect(e == {"t": 0.0, "event": "submit", "job": job["id"]},
                f"entry {i}: expected submit of {job['id']}, got {e}")

    cached = {sid: set(st["cached"]) for sid, st in model.stations.items()}
    in_depth = {sid: st["in_depth"] for sid, st in model.stations.items()}
    idle = [j["id"] for j in model.jobs]
    busy: dict[str, str] = {}        # ad id -> job id
    placed: dict[str, str] = {}      # job id -> ad id
    staging: dict[str, dict] = {}    # job id -> match record
    running: dict[str, float] = {}   # job id -> start time
    done: dict[str, float] = {}
    staging_times: dict[str, float] = {}

    i = n
    clock = 0.0
    first = True
    while True:
        if not first:
            # the batch: every event due at the earliest pending time
            due = [(rec["t"] + rec["staging"], 0, jid) for jid, rec in staging.items()]
            due += [(t + model.job[jid]["run_seconds"], 1, jid)
                    for jid, t in running.items()]
            if not due:
                break
            clock = min(d[0] for d in due)
            batch = sorted((d for d in due if d[0] == clock),
                           key=lambda d: (d[1], model.order[d[2]]))
            seen = []
            while i < len(log) and log[i]["t"] == clock and log[i]["event"] in ("running", "done"):
                seen.append(log[i])
                i += 1
            want = {(("running", "done")[kind], jid) for _, kind, jid in batch}
            got = {(e["event"], e["job"]) for e in seen}
            _expect(got == want and len(seen) == len(batch),
                    f"t={clock}: batch events {sorted(got)} != expected {sorted(want)}")
            for e in seen:
                jid = e["job"]
                if e["event"] == "running":
                    rec = staging.pop(jid)
                    sid = model.slot[rec["resource"]]["station"]
                    in_depth[sid] -= len(rec["missing"])
                    cached[sid].update(rec["missing"])
                    running[jid] = clock
                else:
                    _expect(e.get("resource") == placed[jid],
                            f"done {jid}: wrong resource {e.get('resource')}")
                    del running[jid]
                    del busy[placed[jid]]
                    done[jid] = clock
        first = False

        # the cycle: state as of its start decides every score in it
        snap_cached = {sid: frozenset(c) for sid, c in cached.items()}
        snap_depth = dict(in_depth)
        free = [s["ad_id"] for s in model.slots if s["ad_id"] not in busy]
        still_idle = []
        for jid in idle:
            job = model.job[jid]
            options = [a for a in free if a in model.eligible[jid]]
            e = log[i] if i < len(log) else None
            if e is None or e["t"] != clock or e["event"] != "match" or e["job"] != jid:
                if options:
                    raise CheckFailed(f"t={clock}: {jid} left idle with {options[0]} free")
                still_idle.append(jid)
                continue
            i += 1
            ad_id = e["resource"]
            _expect(ad_id in options,
                    f"t={clock}: {policy} put {jid} on {ad_id}, not free/eligible")
            sid = model.slot[ad_id]["station"]
            seconds, missing = staging_seconds(
                model.catalog, model.stations[sid], snap_cached[sid], snap_depth[sid],
                job["dataset"], job["output_bytes"])
            _expect(_close(e["staging_seconds"], seconds),
                    f"{jid}: staging {e['staging_seconds']} != recomputed {seconds}")
            if policy == "data-aware":
                best_id, best_s = model.best_slot(job, options, snap_cached, snap_depth)
                _expect(ad_id == best_id, f"t={clock}: {jid} on {ad_id}, argmax is {best_id}")
                _expect(_close(e["rank"], -best_s), f"{jid}: rank {e['rank']} != {-best_s}")
            free.remove(ad_id)
            busy[ad_id] = jid
            placed[jid] = ad_id
            in_depth[sid] += len(missing)
            staging[jid] = {"t": clock, "staging": e["staging_seconds"],
                            "resource": ad_id, "missing": missing}
            staging_times[jid] = e["staging_seconds"]
        idle = still_idle
        _expect(i >= len(log) or log[i]["t"] >= clock,
                f"t={clock}: unexpected entry {log[i] if i < len(log) else None}")

    _expect(i == len(log), f"{len(log) - i} log entries left over")
    _expect(not idle and len(done) == n, f"{n - len(done)} jobs not done")
    _check_report(model, policy, report, log, staging_times)


def _check_report(model, policy, report, log, staging_times):
    _expect(report["policy"] == policy, "report names another policy")
    by_job = {entry["job"]: entry for entry in report["jobs"]}
    _expect(sorted(by_job) == sorted(model.job), "report lists other jobs")
    for jid, entry in by_job.items():
        _expect(entry["state"] == "Done", f"{jid} ends {entry['state']}")
        _expect(_close(entry["staging_seconds"], staging_times[jid]),
                f"{jid}: report staging {entry['staging_seconds']} != {staging_times[jid]}")
    mean = sum(staging_times.values()) / len(staging_times)
    _expect(_close(report["mean_staging_seconds"], mean),
            f"mean staging {report['mean_staging_seconds']} != {mean}")
    _expect(report["final_clock"] == log[-1]["t"], "final clock is not the last event")
    _expect(report["events"] == 2 * len(model.jobs), "event count is not two per job")


# -- grid-wire --------------------------------------------------------------------

def wire_oracle(grid: dict, job: dict) -> tuple[dict, int]:
    """Expected one-job MATCH_REQUEST decision and the candidate count.

    Every MATCH_REQUEST is a fresh cycle and stations never change state,
    so the decision depends on the job alone.
    """
    best_key, best = None, None
    candidates = 0
    for spec in grid["sites"]:
        if job["req_arch"] is not None and spec["architecture"] != job["req_arch"]:
            continue
        if job["owner"] not in spec["gridmap"]:
            continue
        station = {"links": spec["links"], "mss": spec["mean_service_seconds"],
                   "out_depth": spec["output_queue_depth"],
                   "output_destination": spec["output_destination"],
                   "expected_output_bytes": spec["expected_output_bytes"]}
        seconds, _ = staging_seconds(grid["catalog"], station, set(spec["cached"]),
                                     spec["input_queue_depth"], job["dataset"],
                                     job["output_bytes"])
        name = f"{spec['site']}/{spec['cluster']}"
        n = spec["slots"]
        for k in range(1, n + 1):
            ad_id = name if n == 1 else f"{name}#{k}"
            candidates += 1
            key = (seconds, name.encode("utf-8"), ad_id.encode("utf-8"))
            if best_key is None or key < best_key:
                best_key, best = key, (ad_id, -seconds)
    if best is None:
        return {"job_id": job["id"], "outcome": "no-match"}, candidates
    return ({"job_id": job["id"], "outcome": "matched", "resource_id": best[0],
             "rank": best[1]}, candidates)


def same_decision(got: dict, want: dict) -> bool:
    if got.get("outcome") != want["outcome"] or got.get("job_id") != want["job_id"]:
        return False
    if want["outcome"] != "matched":
        return True
    return got.get("resource_id") == want["resource_id"] and _close(got["rank"], want["rank"])
