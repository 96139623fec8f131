"""Resource advertising and the pull-based information tree."""

import random
import re

import pytest

from vogrid import wire
from vogrid.advertise import (
    DuplicateDn,
    InfoService,
    MissingAttribute,
    advertise_once,
    build_info_tree,
    generate_classads,
    generate_classads_with_provenance,
    parse_gridmap,
    query_info,
    select_patterns,
)
from vogrid.conftree import read_tree
from vogrid.matchmaker import AdStore

from conftest import fixture_text
from worldgen import mutate_config

CONFIG = read_tree(fixture_text("config_fnal.xml"))
EVOLVED = read_tree(fixture_text("config_fnal_evolved.xml"))


def _triples(config):
    return [(ad.ad_id, ad.self_text("Name"), ad.self_text("Gatekeeper"),
             ad.self_text("Station_ID"))
            for ad in generate_classads(select_patterns(config))]


# -- pattern selection ----------------------------------------------------------------

def test_one_pattern_per_cluster():
    patterns = select_patterns(CONFIG)
    assert [p.cluster_node.attributes["name"] for p in patterns] == \
        ["samadams", "topaz"]
    assert patterns[0].station_node.attributes["name"] == "durin"
    assert patterns[0].gatekeeper_node.attributes["url"] == \
        "gram://samadams.fnal.gov:2119"


def test_selection_crosses_wrapper_elements():
    # the evolved layout nests gatekeepers inside a grouping element and
    # still advertises the same resources
    assert _triples(EVOLVED) == _triples(CONFIG)


def test_preferred_beats_document_order():
    config = read_tree(
        "<site name='S'><cluster name='c'>"
        "<gatekeeper url='first://x'/>"
        "<gatekeeper url='second://x' preferred='true'/>"
        "<station name='st1'/>"
        "<station name='st2' preferred='true'/>"
        "</cluster></site>")
    [p] = select_patterns(config)
    assert p.gatekeeper_node.attributes["url"] == "second://x"
    assert p.station_node.attributes["name"] == "st2"


def test_document_order_wins_without_preference():
    config = read_tree(
        "<site name='S'><cluster name='c'>"
        "<gatekeeper url='first://x'/><gatekeeper url='second://x'/>"
        "<station name='st1'/>"
        "</cluster></site>")
    [p] = select_patterns(config)
    assert p.gatekeeper_node.attributes["url"] == "first://x"


def test_cluster_without_required_parts_is_skipped():
    config = read_tree(
        "<site name='S'>"
        "<cluster name='no-gk'><station name='st'/></cluster>"
        "<cluster name='no-st'><gatekeeper url='u://x'/></cluster>"
        "<cluster name='whole'><gatekeeper url='u://y'/><station name='st2'/></cluster>"
        "</site>")
    patterns = select_patterns(config)
    assert [p.cluster_node.attributes["name"] for p in patterns] == ["whole"]


# -- advertisement generation ------------------------------------------------------------

def test_ads_from_config():
    ads = generate_classads(select_patterns(CONFIG))
    assert [ad.ad_id for ad in ads] == \
        ["FNAL/samadams#1", "FNAL/samadams#2", "FNAL/topaz"]
    first = ads[0]
    assert first.self_text("Name") == "FNAL/samadams"
    assert first.self_text("Architecture") == "Linux"
    assert first.self_text("Gatekeeper") == "gram://samadams.fnal.gov:2119"
    assert first.self_text("Station_ID") == "durin"
    # both slot ads advertise the same resource attributes
    assert ads[1].self_text("Name") == "FNAL/samadams"
    assert ads[2].self_text("Station_ID") == "gimli"


def test_the_slots_of_one_cluster_share_one_resource_cluster():
    samadams1, samadams2, topaz = generate_classads(select_patterns(CONFIG))
    # one ad per slot: equal bindings under two ids
    assert samadams1 != samadams2
    assert samadams1.key() == samadams2.key() != topaz.key()
    store = AdStore()
    stored = [store.collect_ad(ad, ["/CN=alice"], 60.0, 0.0)
              for ad in (samadams1, samadams2, topaz)]
    assert stored[0].cluster is stored[1].cluster is not stored[2].cluster


def test_extra_cluster_attributes_pass_through():
    ads = generate_classads(select_patterns(EVOLVED))
    samadams = ads[0]
    assert samadams.self_text("Site_x_maintainer") == "ops@fnal.example"
    # consumed attributes are not duplicated into the pass-through namespace
    for stem in ("name", "architecture", "slots"):
        assert f"Site_{stem}" not in samadams


@pytest.mark.parametrize("bad,exc_text", [
    ("<site><cluster name='c'><gatekeeper url='u'/><station name='s'/>"
     "</cluster></site>", "site"),
    ("<site name='S'><cluster><gatekeeper url='u'/><station name='s'/>"
     "</cluster></site>", "name"),
    ("<site name='S'><cluster name='c'><gatekeeper/><station name='s'/>"
     "</cluster></site>", "url"),
    ("<site name='S'><cluster name='c'><gatekeeper url='u'/><station/>"
     "</cluster></site>", "name"),
    ("<site name='S'><cluster name='c' slots='0'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
    ("<site name='S'><cluster name='c' slots='two'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
    ("<site name='S'><cluster name='c' slots='-2'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
    # a digit to str.isdigit, but not to int(): once a ValueError
    ("<site name='S'><cluster name='c' slots='\u00b2'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
    # a leading zero, and non-ASCII digits, which int() reads
    ("<site name='S'><cluster name='c' slots='08'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots='08'"),
    ("<site name='S'><cluster name='c' slots='\u0663'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
    ("<site name='S'><cluster name='c' slots='2.0'><gatekeeper url='u'/>"
     "<station name='s'/></cluster></site>", "slots"),
])
def test_missing_attributes_are_rejected(bad, exc_text):
    with pytest.raises(MissingAttribute) as err:
        generate_classads(select_patterns(read_tree(bad)))
    assert exc_text in str(err.value)


def test_slots_padded_with_spaces_read_as_on_a_json_line():
    ads = generate_classads(select_patterns(read_tree(
        "<site name='S'><cluster name='c' slots=' 2'><gatekeeper url='u'/>"
        "<station name='s'/></cluster></site>")))
    assert [ad.ad_id for ad in ads] == ["S/c#1", "S/c#2"]


def test_provenance_covers_every_attribute():
    ads, provenance = generate_classads_with_provenance(select_patterns(EVOLVED))
    dn_at_attr = re.compile(r"^site=[^@]+@[A-Za-z_][A-Za-z0-9_.-]*$")
    for ad in ads:
        sources = provenance[ad.ad_id]
        assert set(sources) == {name for name, _ in ad.items()}
        for origin in sources.values():
            assert dn_at_attr.match(origin), origin


def test_provenance_points_at_the_source_nodes():
    _, provenance = generate_classads_with_provenance(select_patterns(CONFIG))
    sources = provenance["FNAL/samadams#1"]
    assert sources["Name"] == "site=FNAL/cluster=samadams@name"
    assert sources["Architecture"] == "site=FNAL/cluster=samadams@architecture"
    assert sources["Gatekeeper"] == "site=FNAL/cluster=samadams/gatekeeper@url"
    assert sources["Station_ID"] == "site=FNAL/cluster=samadams/station=durin@name"


# -- the information tree ------------------------------------------------------------------

def test_info_tree_dns():
    tree = build_info_tree(CONFIG)
    assert sorted(tree) == [
        "site=FNAL",
        "site=FNAL/cluster=samadams",
        "site=FNAL/cluster=samadams/station=durin",
        "site=FNAL/cluster=topaz",
        "site=FNAL/cluster=topaz/station=gimli",
    ]
    assert tree["site=FNAL/cluster=samadams"]["slots"] == "2"
    # unnamed gatekeepers contribute no dn but named ones would
    named_gk = read_tree("<site name='S'><cluster name='c'>"
                         "<gatekeeper name='gk0' url='u'/></cluster></site>")
    assert "site=S/cluster=c/gatekeeper=gk0" in build_info_tree(named_gk)


def test_info_tree_rejects_duplicate_dns():
    config = read_tree("<site name='S'><cluster name='c'>"
                       "<station name='twin'/><station name='twin'/>"
                       "</cluster></site>")
    with pytest.raises(DuplicateDn):
        build_info_tree(config)


def test_query_prefix_respects_component_boundaries():
    tree = build_info_tree(CONFIG)
    hits = [dn for dn, _ in query_info(tree, "site=FNAL/cluster=samadams")]
    assert hits == ["site=FNAL/cluster=samadams",
                    "site=FNAL/cluster=samadams/station=durin"]
    # a prefix that ends mid-name matches nothing
    assert query_info(tree, "site=FNAL/cluster=sam") == []
    assert len(query_info(tree, "")) == 5
    assert query_info(tree, "site=CERN") == []


def test_info_service_over_wire():
    service = InfoService(CONFIG)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            reply = conn.request({"type": "INFO_QUERY",
                                  "prefix": "site=FNAL/cluster=topaz"})
            entries = reply["result"]["entries"]
            assert [e["dn"] for e in entries] == [
                "site=FNAL/cluster=topaz",
                "site=FNAL/cluster=topaz/station=gimli"]
            assert entries[0]["attributes"] == \
                build_info_tree(CONFIG)["site=FNAL/cluster=topaz"]
            assert conn.request({"type": "INFO_QUERY", "prefix": 7}) \
                ["error"]["code"] == "malformed"
            assert conn.request({"type": "SHUTDOWN"})["error"]["code"] == \
                "unsupported"
    finally:
        server.shutdown()
        server.server_close()


# -- gridmaps and the advertising loop --------------------------------------------------

def test_parse_gridmap():
    subjects = parse_gridmap(
        "# local users\n"
        '"/C=US/O=demo/CN=alice"\n'
        "/C=US/O=demo/CN=bob\n"
        "\n"
        '"/C=XX/O=weird/CN=quote"extra"\n')
    assert subjects == ["/C=US/O=demo/CN=alice", "/C=US/O=demo/CN=bob",
                        '/C=XX/O=weird/CN=quote"extra']


def test_advertise_once_pushes_every_slot():
    sent = []

    def send(msg):
        sent.append(msg)
        return {"ok": True, "ad_id": msg["ad"]["id"]}

    pushed = advertise_once(CONFIG, send, ["/C=US/O=demo/CN=alice"], 120.0)
    assert pushed == ["FNAL/samadams#1", "FNAL/samadams#2", "FNAL/topaz"]
    assert all(m["type"] == "ADVERTISE" for m in sent)
    assert all(m["ttl"] == 120.0 for m in sent)
    assert all(m["gridmap"] == ["/C=US/O=demo/CN=alice"] for m in sent)
    assert sent[0]["ad"]["id"] == "FNAL/samadams#1"


def test_advertise_once_surfaces_rejections():
    # `send` reads each reply, as `vogrid adv run` does with `wire.reply_result`
    sent = []

    def send(msg):
        sent.append(msg)
        return wire.reply_result({"id": 1, "error": {"code": "incomplete-ad",
                                                     "message": "no"}})

    with pytest.raises(wire.ErrorReply, match="no"):
        advertise_once(CONFIG, send, [], 120.0)
    assert len(sent) == 1  # nothing is sent after the first rejection


# -- stability under layout evolution ------------------------------------------------------

def test_mutated_configs_advertise_identically():
    want_triples = _triples(CONFIG)
    want_dns = set(build_info_tree(CONFIG))
    for seed in range(40):
        mutated = mutate_config(CONFIG, random.Random(seed), rounds=4)
        assert _triples(mutated) == want_triples, f"seed {seed}"
        assert set(build_info_tree(mutated)) == want_dns, f"seed {seed}"
