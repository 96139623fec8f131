"""Seeded inputs for the benchmark workloads.

Everything here is a function of the workload seed. A *grid spec* is a plain
dict (sites, catalog, job templates) that the checker in `oracle.py` reads
directly; the same spec is rendered into the documents the program consumes:
a scenario document for `vogrid.sim.load_scenario`, or site configuration
files, catalog and fixtures for the `station` / `mm` / `q` servers.

Site trees are built with `vogrid.sim.make_site_config` and serialised with
`vogrid.conftree.write_tree`, so the program parses the same XML a user would
write. The generator mixes architectures, job Requirements and partial
gridmaps, so `symmetric_match` and `preauthorize` really reject candidates,
but it gives every job at least one slot that passes both, so no job is held.
Every station links to every source site and has an output destination:
the baseline policies stage wherever they land, and a pick with no route
would be a scenario bug, not a scheduler property.
"""

from __future__ import annotations

import random

from vogrid.conftree import write_tree
from vogrid.sim import make_site_config

ARCHES = ("Linux", "OSF1", "IRIX")
SUBJECTS = (
    "/C=US/O=bench/CN=alice",
    "/C=US/O=bench/CN=bob",
    "/C=IT/O=bench/CN=carla",
    "/C=FI/O=bench/CN=dmitri",
)
# Mixed case on purpose: resource Names tie-break in byte order, where
# upper case sorts before lower case.
SITE_WORDS = ("Ankara", "bologna", "Chicago", "dallas", "Espoo", "fermi",
              "Geneva", "hamburg", "Ithaca", "jena", "Krakow", "lyon",
              "Madrid", "nikhef", "Oslo", "padova")
BANDWIDTHS = (1.0e7, 2.5e7, 5.0e7, 1.0e8, 2.0e8)

# Shapes. A shape fixes the sizes; the seed fixes everything else.
SHAPES = {
    # about ten jobs per slot: most cycles rescan a mostly-claimed pool
    "backlog": dict(sites=16, slots=2, jobs=320, datasets=8,
                    files=(6, 10), run_seconds=(200.0, 900.0)),
    # more slots than jobs, many slots per station, few datasets
    "burst": dict(sites=16, slots=12, jobs=128, datasets=16,
                  files=(8, 12), run_seconds=(200.0, 900.0)),
    # loopback grid: 16 slots behind 8 stations, 128 job templates
    "wire": dict(sites=8, slots=2, jobs=128, datasets=32,
                 files=(6, 10), run_seconds=(0.0, 0.0)),
    # smoke sizes of the same shapes
    "backlog-smoke": dict(sites=3, slots=2, jobs=40, datasets=3,
                          files=(3, 5), run_seconds=(200.0, 900.0)),
    "burst-smoke": dict(sites=3, slots=8, jobs=16, datasets=2,
                        files=(3, 5), run_seconds=(200.0, 900.0)),
    "wire-smoke": dict(sites=2, slots=2, jobs=8, datasets=2,
                       files=(3, 5), run_seconds=(0.0, 0.0)),
}


def make_grid(seed: int, shape: str) -> dict:
    """A seeded grid spec of the given shape."""
    size = SHAPES[shape]
    rng = random.Random(f"vogrid-bench/{shape}/{seed}")
    n_sites = size["sites"]
    names = rng.sample(SITE_WORDS, n_sites)

    # Sizes come from one fixed ladder dealt out so that every dataset holds
    # about the same volume; the seed decides which file gets which size.
    n_files = [size["files"][0] + (d % (size["files"][1] - size["files"][0] + 1))
               for d in range(size["datasets"])]
    ladder = [int(10 ** 8 * (1 + 19 * k / max(1, sum(n_files) - 1)))
              for k in range(sum(n_files))]
    dealt: list[list[int]] = [[] for _ in n_files]
    order = list(range(size["datasets"]))
    while ladder:
        for d in order:
            if len(dealt[d]) < n_files[d] and ladder:
                dealt[d].append(ladder.pop())
        order.reverse()
    catalog: dict[str, list[list]] = {}
    for d in range(size["datasets"]):
        rng.shuffle(dealt[d])
        catalog[f"ds{d}"] = [[f"ds{d}-f{i:02d}", dealt[d][i], names[(d + i) % n_sites]]
                             for i in range(n_files[d])]

    # Architectures and gridmaps follow one fixed pattern over the site
    # index, under seeded labels, so every seed offers each job the same
    # number of eligible slots; which slots those are is the seed's choice.
    arches = list(ARCHES)
    subjects = list(SUBJECTS)
    service = [(0.5, 1.0, 2.0)[i % 3] for i in range(n_sites)]
    in_depth = [i % 4 for i in range(n_sites)]
    out_depth = [i % 3 for i in range(n_sites)]
    for deal in (arches, subjects, service, in_depth, out_depth):
        rng.shuffle(deal)
    sites = []
    for idx, site in enumerate(names):
        sites.append({
            "site": site,
            "cluster": f"batch{idx}",
            "station": f"st-{site.lower()}",
            "architecture": arches[idx % len(arches)],
            "slots": size["slots"],
            "links": {to: BANDWIDTHS[(idx + k) % len(BANDWIDTHS)]
                      for k, to in enumerate(names)},
            "mean_service_seconds": service[idx],
            "cached": sorted(f[0] for files in catalog.values()
                             for i, f in enumerate(files) if (i + idx) % 4 == 0),
            "input_queue_depth": in_depth[idx],
            "output_queue_depth": out_depth[idx],
            "output_destination": site,
            "expected_output_bytes": (0, 10 ** 8)[idx % 2],
            "gridmap": sorted(subjects[(idx + k) % len(subjects)]
                              for k in range(2 + idx % 2)),
        })

    # The job mix is one fixed list (dataset, owner, Requirements,
    # OutputBytes and run length dealt by the job's index), in seeded order.
    n_jobs = size["jobs"]
    datasets = sorted(catalog)
    low, high = size["run_seconds"]
    order = list(range(n_jobs))
    rng.shuffle(order)
    jobs = []
    for j in order:
        owner = SUBJECTS[(j // len(datasets)) % len(SUBJECTS)]
        reachable = sorted({s["architecture"] for s in sites if owner in s["gridmap"]},
                           key=arches.index)
        pick = j % 6  # 3 of 6 jobs carry no Requirements
        jobs.append({
            "id": f"j{len(jobs):04d}",
            "owner": owner,
            "dataset": datasets[j % len(datasets)],
            "req_arch": reachable[pick % len(reachable)] if pick < 3 else None,
            "output_bytes": (None, None, 2 * 10 ** 8)[(j // 2) % 3],
            "run_seconds": round(low + (high - low) * j / max(1, n_jobs - 1), 3),
        })
    return {"shape": shape, "seed": seed, "sites": sites, "catalog": catalog,
            "jobs": jobs}


def site_config(spec: dict):
    return make_site_config(
        site=spec["site"], cluster=spec["cluster"], station=spec["station"],
        links=spec["links"], slots=spec["slots"],
        architecture=spec["architecture"],
        mean_service_seconds=spec["mean_service_seconds"])


def station_fixture(spec: dict) -> dict:
    return {
        "cached_files": spec["cached"],
        "input_queue_depth": spec["input_queue_depth"],
        "output_queue_depth": spec["output_queue_depth"],
        "output_destination": spec["output_destination"],
        "expected_output_bytes": spec["expected_output_bytes"],
    }


def job_attrs(job: dict, with_run_seconds: bool = True) -> dict[str, str]:
    """Job ad attribute sources; Rank is left to the program's default."""
    attrs = {"Owner": f'"{job["owner"]}"', "Dataset": f'"{job["dataset"]}"'}
    if job["req_arch"] is not None:
        attrs["Requirements"] = f'OTHER.Architecture == "{job["req_arch"]}"'
    if job["output_bytes"] is not None:
        attrs["OutputBytes"] = str(job["output_bytes"])
    if with_run_seconds:
        attrs["RunSeconds"] = repr(job["run_seconds"])
    return attrs


def scenario_doc(grid: dict) -> dict:
    """The scenario document `vogrid.sim.load_scenario` reads."""
    return {
        "name": f"bench-{grid['shape']}-{grid['seed']}",
        "catalog": grid["catalog"],
        "sites": [{
            "config_xml": write_tree(site_config(s)),
            "stations": {s["station"]: station_fixture(s)},
            "gridmap": s["gridmap"],
        } for s in grid["sites"]],
        "jobs": [{"id": j["id"], "ad": job_attrs(j)} for j in grid["jobs"]],
    }
