"""Seeded random worlds shared by the matchmaking and simulator suites.

A world is a plain dict of sites, stations, a catalog, gridmaps, and jobs.
`world_runtime` turns it into real package objects through the same path the
simulator uses (site config tree -> derived station configs -> ads), while
`oracle_decisions` recomputes the expected match outcome from the raw dict
alone, so the two sides share no scoring code.

Dominance scenarios keep every station linked to every source site: the
baseline policies pick resources without looking at routes, and staging a
pick with no route is a scenario bug, not a scheduler property.
"""

from __future__ import annotations

import random

from vogrid.classads import AdKind, ClassAd, Literal, evaluate, parse_expr, real
from vogrid.conftree import derive_service_config, write_tree
from vogrid.jobs import MATCHED, JobRecord
from vogrid.matchmaker import AdStore, standard_registry
from vogrid.advertise import generate_classads, select_patterns
from vogrid.sim import make_site_config
from vogrid.station import DatasetCatalog, get_preference, station_from_config

SITE_POOL = ["Ankara", "bologna", "Chicago", "dallas", "Espoo"]
ARCH_POOL = ["Linux", "OSF1", "IRIX"]
SUBJECT_POOL = [
    "/C=US/O=demo/CN=alice",
    "/C=US/O=demo/CN=bob",
    "/C=IT/O=demo/CN=carla",
    "/C=FI/O=demo/CN=dmitri",
]
OUTSIDER = "/C=XX/O=nowhere/CN=outsider"

BW_POOL = [10.0 ** 7, 5.0 * 10 ** 7, 10.0 ** 8, 2.0 * 10 ** 8]


def matched_resource(record: JobRecord) -> str | None:
    """The resource of the record's latest match, read off its history; None
    if it never matched."""
    for state, _, detail in reversed(record.history):
        if state is MATCHED:
            return detail
    return None


def make_world(rng: random.Random, outsider_job: bool = False) -> dict:
    n_sites = rng.randint(1, 5)
    site_names = rng.sample(SITE_POOL, n_sites)

    all_files = []
    catalog: dict[str, list[tuple[str, int, str]]] = {}
    for d in range(rng.randint(1, 3)):
        files = []
        for i in range(rng.randint(1, 20)):
            name = f"d{d}f{i:02d}"
            files.append((name, rng.randint(1, 10 ** 9), rng.choice(site_names)))
            all_files.append(name)
        catalog[f"set{d}"] = files

    sites = []
    for idx, site in enumerate(site_names):
        links = {}
        for target in site_names:
            if rng.random() < 0.15:
                continue  # sometimes no route, dropping the candidate
            links[target] = rng.choice(BW_POOL)
        dest_options = sorted(links)
        output_destination = rng.choice(dest_options) if dest_options and rng.random() < 0.5 else ""
        sites.append({
            "site": site,
            "cluster": f"batch{idx}",
            "station": f"st-{site.lower()}",
            "architecture": rng.choice(ARCH_POOL),
            "slots": rng.randint(1, 3),
            "links": links,
            "mean_service_seconds": rng.choice([0.5, 1.0, 2.0]),
            "cached": sorted(rng.sample(all_files, rng.randint(0, len(all_files)))),
            "input_queue_depth": rng.randint(0, 5),
            "output_queue_depth": rng.randint(0, 5),
            "output_destination": output_destination,
            "expected_output_bytes": rng.choice([0, 0, 10 ** 8]) if output_destination else 0,
            "gridmap": sorted(rng.sample(SUBJECT_POOL, rng.randint(0, len(SUBJECT_POOL)))),
        })

    jobs = []
    for j in range(rng.randint(1, 6)):
        jobs.append({
            "id": f"job-{j:02d}",
            "owner": rng.choice(SUBJECT_POOL),
            "dataset": rng.choice(sorted(catalog)),
            "req_arch": rng.choice([None, None, rng.choice(ARCH_POOL)]),
            "output_bytes": rng.choice([None, None, None, 5 * 10 ** 8]),
        })
    if outsider_job:
        victim = rng.randrange(len(jobs))
        jobs[victim]["owner"] = OUTSIDER
        jobs[victim]["outsider"] = True

    return {"sites": sites, "catalog": catalog, "jobs": jobs}


def job_ad(job: dict) -> ClassAd:
    attrs = {
        "Owner": parse_expr(f'"{job["owner"]}"'),
        "Dataset": parse_expr(f'"{job["dataset"]}"'),
        "Rank": parse_expr("fun(Dataset, OTHER.Station_ID)"),
    }
    if job["req_arch"] is not None:
        attrs["Requirements"] = parse_expr(f'OTHER.Architecture == "{job["req_arch"]}"')
    if job["output_bytes"] is not None:
        attrs["OutputBytes"] = parse_expr(str(job["output_bytes"]))
    return ClassAd(attrs, AdKind.JOB, ad_id=job["id"])


def world_runtime(world: dict) -> dict:
    catalog = DatasetCatalog(world["catalog"])
    store = AdStore()
    stations = {}
    station_of_ad = {}
    for spec in world["sites"]:
        config = make_site_config(
            site=spec["site"], cluster=spec["cluster"], station=spec["station"],
            links=spec["links"], slots=spec["slots"],
            architecture=spec["architecture"],
            mean_service_seconds=spec["mean_service_seconds"],
        )
        fixture = {
            "cached_files": spec["cached"],
            "input_queue_depth": spec["input_queue_depth"],
            "output_queue_depth": spec["output_queue_depth"],
            "output_destination": spec["output_destination"],
            "expected_output_bytes": spec["expected_output_bytes"],
        }
        for node in derive_service_config(config, "station").children:
            stations[spec["station"]] = station_from_config(node, fixture)
        for ad in generate_classads(select_patterns(config)):
            store.collect_ad(ad, spec["gridmap"], ttl_seconds=1.0, now=0.0)
            station_of_ad[ad.ad_id] = spec["station"]

    def station_query(dataset: str, station_id: str, output_bytes: int | None) -> float:
        return get_preference(catalog, stations[station_id], dataset, output_bytes).score

    return {
        "catalog": catalog,
        "store": store,
        "stations": stations,
        "station_of_ad": station_of_ad,
        "jobs": [job_ad(j) for j in world["jobs"]],
        "registry": standard_registry(),
        "env": {"station_query": station_query},
    }


# -- independent recomputation -----------------------------------------------------

def _oracle_score(site: dict, files: list[tuple], output_bytes: int | None):
    """Mirror of the latency formula, summed in catalog order. None = no route."""
    cached = set(site["cached"])
    links = site["links"]
    transfer = 0.0
    for name, size, source in files:
        if name in cached:
            continue
        if source not in links:
            return None
        transfer += size / links[source]
    wait = site["input_queue_depth"] * site["mean_service_seconds"]
    output = site["output_queue_depth"] * site["mean_service_seconds"]
    out_bytes = site["expected_output_bytes"] if output_bytes is None else output_bytes
    if out_bytes:
        if not site["output_destination"]:
            return None
        output += out_bytes / links[site["output_destination"]]
    return -(transfer + wait + output)


def rank_each_ad(job, clusters, reg, env):
    """Reference Rank argmax, a `match_jobs` chooser: the job's Rank
    evaluated on every ad of the offered member lists, the highest finite
    rank winning, ties by Name, then ad id, in UTF-8 byte order. Its pick is
    (member, rank)."""
    rank_expr = job.lookup("Rank") or Literal(real(0.0))
    best = best_key = None
    for cand in (s for members in clusters for s in members):
        rank = evaluate(rank_expr, job, cand.ad, reg, env).as_real()
        if rank is None:
            continue
        key = (-rank, cand.name.encode("utf-8"), cand.ad.ad_id.encode("utf-8"))
        if best_key is None or key < best_key:
            best, best_key = (cand, rank), key
    return best


def oracle_decisions(world: dict) -> list[dict]:
    slots = []  # (site spec, resource name, ad id)
    for spec in world["sites"]:
        name = f"{spec['site']}/{spec['cluster']}"
        if spec["slots"] == 1:
            slots.append((spec, name, name))
        else:
            for k in range(1, spec["slots"] + 1):
                slots.append((spec, name, f"{name}#{k}"))

    claimed = set()
    decisions = []
    for job in world["jobs"]:
        candidates = [
            (spec, name, ad_id) for spec, name, ad_id in slots
            if ad_id not in claimed
            and (job["req_arch"] is None or spec["architecture"] == job["req_arch"])
        ]
        if not candidates:
            decisions.append({"job_id": job["id"], "resource_id": None,
                              "reason": "no-candidates"})
            continue
        authorized = [c for c in candidates if job["owner"] in c[0]["gridmap"]]
        if not authorized:
            decisions.append({"job_id": job["id"], "resource_id": None,
                              "reason": "unauthorized-everywhere"})
            continue
        files = world["catalog"][job["dataset"]]
        best = None
        best_key = None
        for spec, name, ad_id in authorized:
            score = _oracle_score(spec, files, job["output_bytes"])
            if score is None:
                continue
            key = (-score, name.encode("utf-8"), ad_id.encode("utf-8"))
            if best_key is None or key < best_key:
                best, best_key = (ad_id, score), key
        if best is None:
            decisions.append({"job_id": job["id"], "resource_id": None,
                              "reason": "all-rank-error"})
            continue
        claimed.add(best[0])
        decisions.append({"job_id": job["id"], "resource_id": best[0],
                          "rank": best[1]})
    return decisions


# -- dominance scenarios -------------------------------------------------------------

def make_dominance_scenario(rng: random.Random) -> dict:
    """Scenario dict where locality-aware matching provably wins per seed.

    Every site carries as many slots as there are jobs, so cycle one offers
    every job every site and the locality policy picks a pointwise minimum.
    """
    n_sites = rng.randint(2, 4)
    n_jobs = rng.randint(2, 6)
    site_names = rng.sample(SITE_POOL, n_sites)

    catalog = {}
    all_files = {}
    for d in range(rng.randint(1, 3)):
        files = [[f"d{d}f{i:02d}", rng.randint(10 ** 7, 10 ** 9),
                  rng.choice(site_names)] for i in range(rng.randint(3, 8))]
        catalog[f"set{d}"] = files
        all_files[f"set{d}"] = [f[0] for f in files]

    owner = SUBJECT_POOL[0]
    sites = []
    for idx, site in enumerate(site_names):
        config = make_site_config(
            site=site, cluster=f"batch{idx}", station=f"st-{site.lower()}",
            links={target: rng.choice(BW_POOL) for target in site_names},
            slots=n_jobs,
        )
        pool = sorted({f for names in all_files.values() for f in names})
        cached = sorted(rng.sample(pool, rng.randint(0, len(pool))))
        sites.append({
            "config_xml": write_tree(config),
            "stations": {f"st-{site.lower()}": {"cached_files": cached}},
            "gridmap": [owner],
        })

    jobs = [{"id": f"j{k}", "ad": {"Owner": f'"{owner}"',
                                   "Dataset": f'"{rng.choice(sorted(catalog))}"'}}
            for k in range(1, n_jobs + 1)]
    return {"name": "generated", "catalog": catalog, "sites": sites, "jobs": jobs}


# -- benign configuration evolution ---------------------------------------------------

WRAPPER_POOL = ["grid_accesses", "section", "annex", "grouping"]
WORD_POOL = ["rack", "room", "contact", "note", "phase", "tier"]


def _nodes_with_parents(tree):
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        for idx, child in enumerate(node.children):
            out.append((node, idx, child))
            stack.append(child)
    return out


def mutate_config(tree, rng: random.Random, rounds: int = 3):
    """Grow the tree without touching anything advertising depends on.

    Two moves: wrap a non-root element inside a fresh wrapper element, or add
    an x_-prefixed attribute. Names that carry meaning (name, slots,
    architecture, preferred, url) are never created or altered.
    """
    from vogrid.conftree import TreeNode

    mutated = tree.copy()
    for _ in range(rng.randint(1, rounds)):
        if rng.random() < 0.5:
            spots = _nodes_with_parents(mutated)
            if not spots:
                continue
            parent, idx, child = spots[rng.randrange(len(spots))]
            wrapper = TreeNode(rng.choice(WRAPPER_POOL), {}, [child])
            parent.children[idx] = wrapper
        else:
            targets = [mutated] + [c for _, _, c in _nodes_with_parents(mutated)]
            node = targets[rng.randrange(len(targets))]
            attr = f"x_{rng.choice(WORD_POOL)}"
            if attr not in node.attributes:
                node.attributes[attr] = rng.choice(WORD_POOL)
    return mutated
