"""Every service against hostile fields, checked against README's wire table.

Each example starts from one valid request of each type, replaces one field
(or one key of a nested ad) with a hostile JSON value, and sends the
requests in-process through each service's `handle_message`. A handler
that raises would be an `internal` reply on the wire.
"""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from vogrid.advertise import InfoService
from vogrid.classads import AdKind, ad_to_json, parse_classad
from vogrid.conftree import read_tree
from vogrid.matchmaker import MatchmakerService
from vogrid.queue_server import QueueService
from vogrid.station import DatasetCatalog, StationState, get_preference, handler

README = Path(__file__).resolve().parents[1] / "README.md"

ALICE = "/C=US/O=demo/CN=alice"

CATALOG = DatasetCatalog({"d": [("f0", 1000, "HOME")]})
STATION = StationState("st", links={"HOME": 1e6}, output_destination="HOME")
SITE = read_tree("<site name='S'><cluster name='c'><station name='st'/></cluster></site>")

RESOURCE = ad_to_json(parse_classad(
    'Name = "S/c"\nGatekeeper = "gram://c.S"\nStation_ID = "st"\n',
    AdKind.RESOURCE, ad_id="S/c"))
JOB = ad_to_json(parse_classad(
    f'Owner = "{ALICE}"\nDataset = "d"\nRank = fun(Dataset, OTHER.Station_ID)\n',
    AdKind.JOB, ad_id="j"))

# one valid request of each type that has fields, by service
VALID = {
    "ADVERTISE": ("mm", {"ad": RESOURCE, "gridmap": [ALICE], "ttl": 3600}),
    "MATCH_REQUEST": ("mm", {"jobs": [JOB]}),
    "SUBMIT": ("q", {"ad": JOB}),
    "STATUS": ("q", {"job_id": 1}),
    "RELEASE": ("q", {"job_id": 1}),
    "GET_PREFERENCE": ("station", {"dataset": "d", "output_bytes": 10}),
    "LOOKUP": ("station", {"dataset": "d"}),
    "INFO_QUERY": ("info", {"prefix": "site=S"}),
}

ABSENT = object()  # the field is left out

LEAVES = st.sampled_from([ABSENT, True, False, None, math.nan, math.inf, -math.inf,
                          10 ** 400, -10 ** 400, 1e308, -5, 0, 1.5, "", "7", "d"])


def _nested(inner):
    inner = inner.filter(lambda value: value is not ABSENT)
    keys = st.sampled_from(["id", "kind", "attrs", "Name"])
    return st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


HOSTILE = st.recursive(LEAVES, _nested, max_leaves=6)


def _wire_table() -> dict[str, tuple[str, set[str], set[str]]]:
    """README's wire table: request type -> (service, field names, error codes)."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"\| `(\w+)` \| `([A-Z_]+)` \| (.*) \| (.*) \|", line)
        if m:
            service, mtype, fields, codes = m.groups()
            names = set(re.findall(r"(?:^|; )`(\w+)`:", fields))
            table[mtype] = (service, names, set(re.findall(r"`([a-z-]+)`", codes)))
    return table


TABLE = _wire_table()


def _paths(fields: dict) -> list[tuple]:
    """Every field, every key of a nested ad and every one of its attributes."""
    paths = []
    for name, value in fields.items():
        paths.append((name,))
        ads = [((name,), value)] if name == "ad" else []
        if name == "jobs":
            ads = [((name, 0), value[0])]
        if name == "gridmap":
            paths.append((name, 0))
        for at, ad in ads:
            paths += [at + (key,) for key in ad]
            paths += [at + ("attrs", attr) for attr in ad["attrs"]]
    return paths


def _replace(fields: dict, path: tuple, value) -> dict:
    fields = copy.deepcopy(fields)
    *parents, last = path
    target = fields
    for step in parents:
        target = target[step]
    if value is ABSENT:
        del target[last]
    else:
        target[last] = value
    return fields


MUTATIONS = [(mtype, path) for mtype, (_, fields) in VALID.items() for path in _paths(fields)]


def test_the_readme_table_lists_every_request_and_its_fields():
    assert set(TABLE) == set(VALID) | {"LIST"}
    for mtype, (service, fields) in VALID.items():
        assert TABLE[mtype][:2] == (service, set(fields)), mtype
    assert all("internal" not in codes for _, _, codes in TABLE.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.permutations(MUTATIONS),
       st.lists(HOSTILE, min_size=len(MUTATIONS), max_size=len(MUTATIONS)))
def test_hostile_fields_get_one_documented_reply_and_leave_matching_intact(order, values):
    """Every mutation once per example, in a drawn order, each with its own value."""
    with tempfile.TemporaryDirectory() as tmp:
        queue = QueueService(str(Path(tmp) / "queue.ndjson"))
        try:
            services = {
                "mm": MatchmakerService(
                    station_query=lambda ds, sid, out: get_preference(
                        CATALOG, STATION, ds, out).score,
                    clock=lambda: 0.0).handle_message,
                "q": queue.handle_message,
                "station": handler(CATALOG, STATION),
                "info": InfoService(SITE).handle_message,
            }
            requests = [("ADVERTISE", VALID["ADVERTISE"][1]), ("SUBMIT", VALID["SUBMIT"][1])]
            requests += [(mtype, _replace(VALID[mtype][1], path, value))
                         for (mtype, path), value in zip(order, values)]
            requests.append(("LIST", {}))
            for k, (mtype, fields) in enumerate(requests):
                service = TABLE[mtype][0]
                reply = services[service]({"type": mtype, "id": f"r{k}", **fields})
                assert reply["id"] == f"r{k}"
                assert len(reply) == 2 and ("result" in reply) != ("error" in reply)
                if "error" in reply:
                    assert reply["error"]["code"] in TABLE[mtype][2], (mtype, fields)
                json.dumps(reply, allow_nan=False)
            jobs = [JOB | {"id": "a"}, JOB | {"id": "b"}]
            reply = services["mm"]({"type": "MATCH_REQUEST", "id": "last", "jobs": jobs})
            assert [d["job_id"] for d in reply["result"]["decisions"]] == ["a", "b"]
        finally:
            queue.close()
