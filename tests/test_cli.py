"""End-to-end runs of the vogrid command line."""

import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from vogrid import cli, sim, wire
from vogrid.classads import AdKind, ad_to_json, parse_classad
from vogrid.cli import build_parser, main
from vogrid.conftree import SERVICE_KINDS, derive_service_config, read_tree, write_tree
from vogrid.conftree.meta import meta_schema

from conftest import fixture_path, fixture_text

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _run_main(*argv):
    assert main(list(argv)) == 0


# -- configuration ------------------------------------------------------------------

def test_conf_meta_prints_the_design_schema(capsys):
    _run_main("conf", "meta")
    assert capsys.readouterr().out == write_tree(meta_schema())


def test_conf_run_scripted(tmp_path):
    out = tmp_path / "config.xml"
    _run_main("conf", "run",
              "--schema", str(fixture_path("minimal_schema.xml")),
              "--answers", str(fixture_path("minimal_user_answers.txt")),
              "-o", str(out))
    assert read_tree(out.read_text()) == \
        read_tree(fixture_text("minimal_config_golden.xml"))


def test_conf_run_with_prior_defaults_to_the_old_config(tmp_path):
    answers = tmp_path / "answers.txt"
    answers.write_text("@default\n" * 6)
    out = tmp_path / "config.xml"
    _run_main("conf", "run",
              "--schema", str(fixture_path("minimal_schema.xml")),
              "--answers", str(answers),
              "--prior", str(fixture_path("minimal_config_golden.xml")),
              "-o", str(out))
    assert read_tree(out.read_text()) == \
        read_tree(fixture_text("minimal_config_golden.xml"))


def test_conf_run_reports_configuration_failures(tmp_path):
    answers = tmp_path / "short.txt"
    answers.write_text("@default\n")  # not enough answers
    with pytest.raises(SystemExit, match="configuration failed"):
        main(["conf", "run",
              "--schema", str(fixture_path("minimal_schema.xml")),
              "--answers", str(answers)])


def test_conf_run_interactive_over_a_pipe(tmp_path):
    out = tmp_path / "config.xml"
    answers = "\n".join(["", "1", "samadams", "",
                         "gram://samadams.fnal.gov:2119", "", ""])
    proc = subprocess.run(
        [sys.executable, "-m", "vogrid", "conf", "run",
         "--schema", str(SAMPLES / "schema.xml"), "-o", str(out)],
        input=answers, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "What is the name of the site? [FNAL]: " in proc.stdout
    # the scripted sample pins the probe command's output to what
    # the interactive run just collected from the real command
    scripted = tmp_path / "scripted.xml"
    _run_main("conf", "run", "--schema", str(SAMPLES / "schema.xml"),
              "--answers", str(SAMPLES / "answers.txt"), "-o", str(scripted))
    assert read_tree(out.read_text()) == read_tree(scripted.read_text())


def test_conf_derive_monitoring(capsys):
    _run_main("conf", "derive",
              "--config", str(fixture_path("config_fnal.xml")),
              "--service", "monitoring")
    assert read_tree(capsys.readouterr().out) == \
        read_tree(fixture_text("monitoring_golden.xml"))


def test_conf_derive_rejects_other_schema_versions(tmp_path):
    config = tmp_path / "old.xml"
    config.write_text(fixture_text("config_fnal.xml").replace("v0_3", "v0_2"))
    with pytest.raises(SystemExit, match="cannot derive"):
        main(["conf", "derive", "--config", str(config),
              "--service", "monitoring"])


# -- simulation ---------------------------------------------------------------------

def test_sim_run_writes_report_and_event_log(tmp_path):
    report_path = tmp_path / "report.json"
    events_path = tmp_path / "events.ndjson"
    _run_main("sim", "run", "--scenario", str(SAMPLES / "scenario.json"),
              "--policy", "data-aware", "--seed", "0",
              "-o", str(report_path), "--events", str(events_path))
    report = json.loads(report_path.read_text())
    assert report["policy"] == "data-aware"
    assert report["mean_staging_seconds"] == 10.0
    events = [json.loads(line) for line in
              events_path.read_text().splitlines()]
    kinds = [e["event"] for e in events]
    assert kinds.count("submit") == 6
    assert kinds.count("done") == 6


def _exit_within_seconds(*argv) -> subprocess.CompletedProcess:
    """Run the command line in a child process; a run that never returns, or
    a server that starts, runs into the timeout instead."""
    return subprocess.run([sys.executable, "-m", "vogrid", *argv],
                          capture_output=True, text=True, timeout=30)


def test_sim_run_refuses_a_scenario_file_with_a_nan_file_size(tmp_path):
    # a NaN staging time never equals the batch time, so no event ran, the
    # event cap never tripped and the run never returned
    doc = json.loads((SAMPLES / "scenario.json").read_text())
    next(iter(doc["catalog"].values()))[0][1] = float("nan")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    proc = _exit_within_seconds("sim", "run", "--scenario", str(scenario),
                                "--policy", "round-robin")
    assert proc.returncode == 2  # a usage error naming the file, not a traceback
    assert f"error: {scenario}: not JSON: NaN" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sim_run_report_is_json_when_no_station_can_score(tmp_path):
    # 1e300 bytes over 1e-10 bytes/second: round-robin and random once
    # reported an infinite staging time, which is not JSON
    config = sim.make_site_config("S", "c", "st", {"HOME": 1e-10}, slots=2)
    job = {"Owner": '"/C=US/O=demo/CN=alice"', "Dataset": '"d"'}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "catalog": {"d": [["f0", 10 ** 300, "HOME"]]},
        "sites": [{"config_xml": write_tree(config),
                   "gridmap": ["/C=US/O=demo/CN=alice"]}],
        "jobs": [{"id": "j1", "ad": job}, {"id": "j2", "ad": job}]}))
    out = tmp_path / "report.json"
    for policy in sim.POLICIES:
        _run_main("sim", "run", "--scenario", str(scenario), "--policy", policy,
                  "-o", str(out))
        report = wire.decode_line(out.read_bytes())
        assert [j["reason"] for j in report["jobs"]] == ["all-rank-error"] * 2, policy


def test_sim_run_offers_exactly_the_simulators_policies(capsys):
    assert cli.POLICIES == sim.POLICIES
    parser = build_parser()
    for policy in sim.POLICIES:
        args = parser.parse_args(["sim", "run", "--scenario", "s.json",
                                  "--policy", policy])
        assert args.policy == policy
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["sim", "run", "--scenario", "s.json", "--policy", "bogus"])
    assert exc.value.code == 2  # a usage error
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_conf_derive_offers_exactly_the_service_kinds(tmp_path, capsys):
    # spelled out in the parser, as the policies are, so that building it
    # loads no derivation
    parser = build_parser()
    args = ["conf", "derive", "--config", str(SAMPLES / "site.xml")]
    for kind in SERVICE_KINDS:
        assert parser.parse_args(args + ["--service", kind]).service == kind
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(args + ["--service", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus' (choose from " + ", ".join(map(repr, SERVICE_KINDS)) in err
    with pytest.raises(ValueError, match="unknown service kind 'bogus'"):
        derive_service_config(read_tree((SAMPLES / "site.xml").read_text()), "bogus")


@pytest.mark.parametrize("interval", ["nan", "inf", "-inf", "0", "-1", "1e308", "soon",
                                      # read as 10, 1.5 and 1 by float()
                                      "1_0", "\u0661.5", "+1"])
def test_adv_run_takes_only_a_finite_interval_above_zero(interval, capsys):
    parser = build_parser()
    args = ["adv", "run", "--config", "site.xml", "--mm", "127.0.0.1:1"]
    assert parser.parse_args(args + ["--interval", "0.5"]).interval == 0.5
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(args + [f"--interval={interval}"])
    assert exc.value.code == 2  # a usage error
    assert "argument --interval: " in capsys.readouterr().err


# -- what a process loads -------------------------------------------------------------

def test_the_command_line_loads_no_service_before_a_command_runs():
    """A server loads only its own command's modules: the parser needs none."""
    services = ("vogrid.sim", "vogrid.matchmaker", "vogrid.queue_server",
                "vogrid.advertise")
    code = ("import sys, vogrid.cli; vogrid.cli.build_parser(); "
            f"print([m for m in {services!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_server_loads_only_its_own_service(tmp_path):
    """By the load rule, no server loads the simulator, the configuration
    session or `subprocess` before it serves, and neither a station nor a
    queue loads the matchmaker; the session still imports from its modules."""
    servers = {
        "station": [*_STATION, str(SAMPLES / "catalog.json")],
        "mm": ["mm", "serve", "--port", "0"],
        "q": ["q", "serve", "--port", "0", "--journal", str(tmp_path / "queue.ndjson")],
        "info": ["info", "serve", "--port", "0", "--config", str(SAMPLES / "site.xml")],
    }
    never = {"vogrid.sim", "vogrid.conftree.session", "vogrid.conftree.configurator",
             "vogrid.conftree.meta", "vogrid.conftree.directives", "subprocess"}
    for server, argv in servers.items():
        code = ("import json, sys, vogrid.cli as cli; "
                "cli._serve = lambda *args: print(json.dumps(sorted(sys.modules))); "
                f"cli.main({argv!r}); "
                "from vogrid.conftree.configurator import configure; "
                "print(type(configure).__name__)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules, kind = proc.stdout.splitlines()
        loaded = set(json.loads(modules))
        assert loaded & never == set(), server
        if server in ("station", "q"):
            assert "vogrid.matchmaker" not in loaded, server
        assert kind == "function"


# -- server processes ---------------------------------------------------------------

@pytest.fixture
def spawn():
    procs = []

    def _spawn(*args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "vogrid", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        procs.append(proc)
        line = proc.stdout.readline()
        if not line.startswith("LISTENING "):
            raise AssertionError(f"server did not come up: {line!r}")
        return proc, int(line.split()[1])

    yield _spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait(timeout=10)


def test_queue_server_round_trip(tmp_path, capsys, spawn):
    journal = tmp_path / "queue.ndjson"
    proc, port = spawn("q", "serve", "--port", "0", "--journal", str(journal))

    _run_main("submit", "--queue", f"127.0.0.1:{port}",
              "--ad", str(SAMPLES / "job.ad"))
    assert capsys.readouterr().out == "job 1 Idle\n"

    _run_main("status", "--queue", f"127.0.0.1:{port}", "--job", "1")
    status_before = capsys.readouterr().out
    assert status_before.startswith("job 1: Idle\n")
    assert "Submitted" in status_before

    # releasing a job that is not held is refused by the server
    with pytest.raises(SystemExit, match="illegal-transition"):
        main(["release", "--queue", f"127.0.0.1:{port}", "--job", "1"])

    with pytest.raises(SystemExit, match="unknown-job"):
        main(["status", "--queue", f"127.0.0.1:{port}", "--job", "99"])

    # hard-kill the server; a restart replays the journal
    proc.kill()
    proc.wait(timeout=10)
    _, port2 = spawn("q", "serve", "--port", "0", "--journal", str(journal))
    _run_main("status", "--queue", f"127.0.0.1:{port2}", "--job", "1")
    assert capsys.readouterr().out == status_before
    _run_main("submit", "--queue", f"127.0.0.1:{port2}",
              "--ad", str(SAMPLES / "job.ad"))
    assert capsys.readouterr().out == "job 2 Idle\n"  # ids continue


def test_info_server_answers_queries(spawn):
    _, port = spawn("info", "serve", "--port", "0",
                    "--config", str(SAMPLES / "site.xml"))
    with wire.Connection("127.0.0.1", port) as conn:
        result = conn.request({"type": "INFO_QUERY",
                               "prefix": "site=FNAL/cluster=samadams"})["result"]
    dns = [e["dn"] for e in result["entries"]]
    assert dns == ["site=FNAL/cluster=samadams",
                   "site=FNAL/cluster=samadams/station=durin"]
    [cluster] = [e for e in result["entries"]
                 if e["dn"] == "site=FNAL/cluster=samadams"]
    assert cluster["attributes"]["slots"] == "2"


def test_station_matchmaker_advertiser_pipeline(tmp_path, capsys, spawn):
    """Stations up, matchmaker brokered, site advertised, job matched."""
    fixture = tmp_path / "durin_state.json"
    fixture.write_text(json.dumps({"cached_files": ["raw000"]}))

    _, durin_port = spawn(
        "station", "serve", "--config", str(SAMPLES / "site.xml"),
        "--station", "durin", "--catalog", str(SAMPLES / "catalog.json"),
        "--fixture", str(fixture), "--port", "0")
    _, gimli_port = spawn(
        "station", "serve", "--config", str(SAMPLES / "site.xml"),
        "--station", "gimli", "--catalog", str(SAMPLES / "catalog.json"),
        "--port", "0")

    directory = tmp_path / "stations.json"
    directory.write_text(json.dumps({
        "durin": ["127.0.0.1", durin_port],
        "gimli": ["127.0.0.1", gimli_port],
    }))
    _, mm_port = spawn("mm", "serve", "--port", "0",
                       "--station-directory", str(directory))

    _run_main("adv", "run", "--once",
              "--config", str(SAMPLES / "site.xml"),
              "--mm", f"127.0.0.1:{mm_port}",
              "--gridmap", str(SAMPLES / "gridmap.txt"))
    assert capsys.readouterr().out == \
        "advertised 3 ads: FNAL/samadams#1, FNAL/samadams#2, FNAL/topaz\n"

    text = (SAMPLES / "job.ad").read_text()
    jobs = [ad_to_json(parse_classad(text, AdKind.JOB, ad_id=jid))
            for jid in ("j1", "j2")]
    with wire.Connection("127.0.0.1", mm_port) as conn:
        result = conn.request({"type": "MATCH_REQUEST", "jobs": jobs})["result"]
    first, second = result["decisions"]
    assert first["outcome"] == second["outcome"] == "matched"
    # durin holds raw000 already; staging raw001 from FNAL takes 20s and
    # raw002 from CDF 50s, so the data-locality rank comes out at -70.
    # gimli has no route to CDF at all and drops out of the running.
    assert first["resource_id"] == "FNAL/samadams#1"
    assert first["rank"] == -70.0
    # the twin slot takes the second job: one claim per slot per cycle
    assert second["resource_id"] == "FNAL/samadams#2"
    assert second["rank"] == -70.0


@pytest.mark.parametrize("entry", [[None, 7000], ["127.0.0.1", True],
                                   ["127.0.0.1", 70.9], ["127.0.0.1", 70000],
                                   ["127.0.0.1", -1]])
def test_mm_serve_refuses_a_bad_station_directory_entry(tmp_path, capsys, entry):
    # the entry was read with str() and int(): null became the host "None",
    # true the port 1 and 70.9 the port 70
    directory = tmp_path / "stations.json"
    directory.write_text(json.dumps({"durin": ["127.0.0.1", 7000], "gimli": entry}))
    with pytest.raises(SystemExit) as exc:
        main(["mm", "serve", "--port", "0", "--station-directory", str(directory)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "gimli must be [host, port]" in err


def test_mm_serve_reads_each_station_address(tmp_path):
    directory = tmp_path / "stations.json"
    directory.write_text(json.dumps({"durin": ["127.0.0.1", 1], "gimli": ["::1", 65535]}))
    args = build_parser().parse_args(["mm", "serve", "--port", "0",
                                      "--station-directory", str(directory)])
    assert args.station_directory == {"durin": ("127.0.0.1", 1), "gimli": ("::1", 65535)}


def test_station_server_answers_preference_queries(tmp_path, spawn):
    fixture = tmp_path / "durin_state.json"
    fixture.write_text(json.dumps({"cached_files": ["raw000"]}))
    _, port = spawn(
        "station", "serve", "--config", str(SAMPLES / "site.xml"),
        "--station", "durin", "--catalog", str(SAMPLES / "catalog.json"),
        "--fixture", str(fixture), "--port", "0")
    with wire.Connection("127.0.0.1", port) as conn:
        result = conn.request({"type": "GET_PREFERENCE",
                               "dataset": "dzero-run2"})["result"]
        assert result["score"] == -70.0
        lookup = conn.request({"type": "LOOKUP",
                               "dataset": "minbias"})["result"]
    assert [f["file"] for f in lookup["missing"]] == ["mb000", "mb001"]


def test_station_serve_refuses_a_catalog_holding_nan(tmp_path):
    # the station once started, then answered every GET_PREFERENCE for the
    # dataset "output_bytes too large to score"
    catalog = tmp_path / "catalog.json"
    catalog.write_text('{"dzero-run2": [["raw000", NaN, "FNAL"]]}')
    proc = _exit_within_seconds(
        "station", "serve", "--config", str(SAMPLES / "site.xml"),
        "--station", "durin", "--catalog", str(catalog), "--port", "0")
    assert proc.returncode != 0
    assert "LISTENING" not in proc.stdout
    assert "NaN" in proc.stderr


def test_station_serve_requires_a_known_station_name(tmp_path):
    with pytest.raises(SystemExit, match="no station named"):
        main(["station", "serve", "--config", str(SAMPLES / "site.xml"),
              "--station", "nosuch", "--catalog",
              str(SAMPLES / "catalog.json"), "--port", "0"])


def test_queue_commands_fail_cleanly_when_the_server_is_down():
    with pytest.raises(SystemExit, match="cannot reach"):
        main(["status", "--queue", "127.0.0.1:1", "--job", "1"])


@pytest.mark.parametrize("port", ["0", "65536", "99999"])
def test_a_port_out_of_range_is_a_usage_error(port, capsys):
    # the port was taken as given, and 99999 ended in "Connection refused"
    with pytest.raises(SystemExit) as exc:
        main(["status", "--queue", f"127.0.0.1:{port}", "--job", "1"])
    assert exc.value.code == 2
    assert "argument --queue: " in capsys.readouterr().err


@pytest.mark.parametrize("job", ["\u0663", "1_0", "+1", "-1", "01", "1.0", "one"])
def test_a_job_id_that_json_does_not_spell_as_a_whole_number_is_a_usage_error(job, capsys):
    # int() read the first three as 3, 10 and 1
    parser = build_parser()
    args = ["status", "--queue", "127.0.0.1:1"]
    assert parser.parse_args(args + ["--job", "0"]).job == 0
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(args + [f"--job={job}"])
    assert exc.value.code == 2
    assert "argument --job: " in capsys.readouterr().err


def test_a_port_in_range_is_taken():
    for port in (1, 65535):
        args = build_parser().parse_args(["status", "--queue", f"h:{port}", "--job", "1"])
        assert args.queue == ("h", port)


def _one_reply_server(reply: bytes | None):
    """A bare socket that reads one request and answers `reply`, or closes
    the connection unanswered when it is None; returns its port and thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        with listener:
            sock, _ = listener.accept()
            with sock, sock.makefile("rwb") as f:
                f.readline()
                if reply is not None:
                    f.write(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


@pytest.mark.parametrize("reply, message", [
    (b"[1]\n", "reply is not a JSON object"),  # was an AttributeError
    (None, "connection closed by server"),  # was a ConnectionClosed traceback
    (b"{nope\n", "bad reply from"),
    (b'{"id":1}\n', "bad reply from"),  # was a KeyError
    (b'{"id":1,"error":"x"}\n', "bad reply from"),  # was an AttributeError
    (b'{"id":1,"error":{"code":"unknown-job","message":"no job 1"}}\n',
     "unknown-job: no job 1"),
])
def test_a_bad_reply_is_one_line(reply, message):
    port, server = _one_reply_server(reply)
    with pytest.raises(SystemExit, match=message) as exc:
        main(["status", "--queue", f"127.0.0.1:{port}", "--job", "1"])
    assert "\n" not in str(exc.value.code)
    server.join(5.0)
    assert not server.is_alive()


def _closed_port() -> int:
    """A loopback port that nothing listens on."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        return listener.getsockname()[1]


@pytest.mark.parametrize("reply, message", [
    ("closed", "cannot reach"),  # was a ConnectionRefusedError traceback
    (b'{"id":1,"error":"x"}\n', "bad reply from"),  # was an AttributeError
    (b'{"id":1,"error":{"code":"incomplete-ad","message":"no"}}\n',
     "incomplete-ad: no"),  # was a RuntimeError
], ids=["refused", "error-text", "rejected-ad"])
def test_adv_run_failures_are_one_line(reply, message):
    if reply == "closed":
        port, server = _closed_port(), None
    else:
        port, server = _one_reply_server(reply)
    with pytest.raises(SystemExit, match=message) as exc:
        main(["adv", "run", "--config", str(SAMPLES / "site.xml"),
              "--mm", f"127.0.0.1:{port}", "--once"])
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    if server is not None:
        server.join(5.0)
        assert not server.is_alive()


def test_adv_run_tries_again_after_a_failed_round(monkeypatch, capsys):
    # a periodic advertiser stopped at its first failed ADVERTISE
    class Stop(Exception):
        pass

    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            raise Stop

    monkeypatch.setattr(cli.time, "sleep", sleep)
    port = _closed_port()
    with pytest.raises(Stop):
        main(["adv", "run", "--config", str(SAMPLES / "site.xml"),
              "--mm", f"127.0.0.1:{port}", "--interval", "1"])
    assert sleeps == [1.0, 1.0]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith(f"cannot reach 127.0.0.1:{port}: ") for line in lines)


def _server_argv(tmp_path) -> dict[str, list[str]]:
    """Each server command with what it needs but its --port."""
    return {"info": ["info", "serve", "--config", str(SAMPLES / "site.xml")],
            "station": ["station", "serve", "--config", str(SAMPLES / "site.xml"),
                        "--station", "durin", "--catalog", str(SAMPLES / "catalog.json")],
            "mm": ["mm", "serve"],
            "q": ["q", "serve", "--journal", str(tmp_path / "journal")]}


@pytest.mark.parametrize("server", ["info", "station", "mm", "q"])
@pytest.mark.parametrize("port", ["65536", "70000", "-1"])
def test_a_listening_port_out_of_range_is_a_usage_error(tmp_path, capsys, server, port):
    # each ended in a traceback from the bind
    with pytest.raises(SystemExit) as exc:
        main([*_server_argv(tmp_path)[server], f"--port={port}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --port: {port!r} is not a port in 0-65535" in err


@pytest.mark.parametrize("server", ["info", "station", "mm", "q"])
def test_a_port_that_cannot_be_bound_is_one_line(tmp_path, server):
    # a busy port ended in an AttributeError traceback that hid the bind's error
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        with pytest.raises(SystemExit) as exc:
            main([*_server_argv(tmp_path)[server], "--port", str(port)])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message  # exit status 1
    assert message.startswith(f"cannot listen on 127.0.0.1:{port}: ")


_STATION = ["station", "serve", "--config", str(SAMPLES / "site.xml"), "--station", "durin",
            "--port", "0", "--catalog"]
_FIXTURE = [*_STATION, str(SAMPLES / "catalog.json"), "--fixture"]
_SCENARIO = ["sim", "run", "--scenario"]
_SCENARIO_RANDOM = ["sim", "run", "--policy", "random", "--scenario"]
_AD = ["submit", "--queue", "127.0.0.1:1", "--ad"]
# the XML file each option names is read before anything is served or sent
_XML_STATION = [*_STATION, str(SAMPLES / "catalog.json"), "--config"]
_XML_FIXTURE = [*_STATION, str(SAMPLES / "catalog.json"),
                "--fixture", str(fixture_path("station_fixture.json")), "--config"]
_XML_SCHEMA = ["conf", "run", "--answers", str(SAMPLES / "answers.txt"), "--schema"]
_XML_PRIOR = [*_XML_SCHEMA, str(SAMPLES / "schema.xml"), "--prior"]
_XML_DERIVE = ["conf", "derive", "--service", "station", "--config"]
_XML_ADV = ["adv", "run", "--mm", "127.0.0.1:1", "--once", "--config"]
_XML_INFO = ["info", "serve", "--port", "0", "--config"]
_GRIDMAP = ["adv", "run", "--mm", "127.0.0.1:1", "--once",
            "--config", str(SAMPLES / "site.xml"), "--gridmap"]
_ANSWERS = ["conf", "run", "--schema", str(SAMPLES / "schema.xml"), "--answers"]
_JOURNAL = ["q", "serve", "--port", "0", "--journal"]
# content that makes the path a directory, or puts it in a missing one
_DIRECTORY, _NO_PARENT = object(), object()
# the sample site with one fault each
_SITE = (SAMPLES / "site.xml").read_text()
_SITE_BAD_NUMBER = _SITE.replace("mean_service_seconds='1.0' name='durin'",
                                 "mean_service_seconds='abc' name='durin'")
_SITE_LINK_NO_TO = _SITE.replace("<link bandwidth_bytes_per_second='100000000.0' to='FNAL'/>",
                                 "<link bandwidth_bytes_per_second='100000000.0'/>")
_SITE_MANY_SLOTS = _SITE.replace("slots='2'", "slots='many'")
_SITE_TWO_SAMADAMS = _SITE.replace("name='topaz'", "name='samadams'")
_SITE_V9 = _SITE.replace("schema_version='v0_3'", "schema_version='v9'")
_SITE_NO_STATION = _SITE.replace("<station ", "<depot ").replace("</station>", "</depot>")
# read as `{urn:x}site`, a name the tree refuses
_SITE_NAMESPACED = _SITE.replace("<site ", "<site xmlns='urn:x' ")
# an entity that expat skips below a DTD it does not read, and the reader refuses
_SITE_UNDEFINED_ENTITY = _SITE.replace(
    "<site ", "<!DOCTYPE site SYSTEM 'site.dtd'>\n<site ").replace("</site>", "&foo;</site>")
# the sample scenario with more jobs than slots, each running 1e308 s: the
# second job on a slot would end at inf, so the run never quiesces
_SCENARIO_DOC = json.loads((SAMPLES / "scenario.json").read_text())
_SCENARIO_NEVER_ENDS = json.dumps({**_SCENARIO_DOC, "ttl": 1.7e308, "jobs": [
    {"id": f"x{i}", "ad": {**_SCENARIO_DOC["jobs"][i % 6]["ad"], "RunSeconds": "1e308"}}
    for i in range(40)]})


def _scenario_with_first_site(*edits: tuple[str, str]) -> str:
    """The sample scenario with each (old, new) text replaced in its first
    site's configuration."""
    doc = json.loads((SAMPLES / "scenario.json").read_text())
    site = doc["sites"][0]
    for old, new in edits:
        assert old in site["config_xml"]
        site["config_xml"] = site["config_xml"].replace(old, new)
    return json.dumps(doc)


def _scenario_with_first_file(first_file) -> str:
    """The sample scenario with its catalog's first file replaced."""
    doc = json.loads((SAMPLES / "scenario.json").read_text())
    doc["catalog"]["ds-A"][0] = first_file
    return json.dumps(doc)


@pytest.mark.parametrize("argv, content", [
    (_STATION, "[1]"), (_STATION, '{"d": [["f0", 1]]}'),
    (_FIXTURE, "[1]"), (_FIXTURE, '{"input_queue_depth": -1}'),
    (_SCENARIO, "[1]"),
    (_SCENARIO, (SAMPLES / "scenario.json").read_text().replace(
        '"sa": {', '"sa": {"input_queue_depth": -1, ')),
    (_AD, "Owner = (\n"),
    (_XML_STATION, "not xml"), (_XML_SCHEMA, "not xml"), (_XML_PRIOR, "not xml"),
    (_XML_DERIVE, "not xml"), (_XML_ADV, "not xml"), (_XML_INFO, "not xml"),
    (_GRIDMAP, None), (_GRIDMAP, b"\xff\xfe/C=US\n"), (_ANSWERS, None), (_ANSWERS, "@count x\n"),
    (_ANSWERS, "@count \u0663\n"),
    (_JOURNAL, _DIRECTORY), (_JOURNAL, _NO_PARENT), (_JOURNAL, '{"event": "new"}\n'),
    (_XML_STATION, _SITE_BAD_NUMBER), (_XML_STATION, _SITE_LINK_NO_TO),
    (_XML_FIXTURE, _SITE_BAD_NUMBER), (_XML_FIXTURE, _SITE_LINK_NO_TO),
    (_XML_ADV, _SITE_MANY_SLOTS), (_XML_INFO, _SITE_TWO_SAMADAMS),
    (_SCENARIO, _SCENARIO_NEVER_ENDS),
    (_STATION, '{"d": [["f0", 1, ["not", "a", "site"]]]}'), (_STATION, '{"d": [[7, 1, "A"]]}'),
    (_SCENARIO, _scenario_with_first_file(["a00", 1000000000, ["not", "a", "site"]])),
    (_SCENARIO_RANDOM, _scenario_with_first_file(["a00", 1000000000, ["not", "a", "site"]])),
    (_SCENARIO, _scenario_with_first_file([7, 1000000000, "A"])),
    (_SCENARIO, _scenario_with_first_site(("slots='2'", "slots='0'"))),
    (_SCENARIO, _scenario_with_first_site(("slots='2'", "slots='\u00b2'"))),
    (_SCENARIO, _scenario_with_first_site(("schema_version='v0_3'", "schema_version='v9'"))),
    (_SCENARIO, _scenario_with_first_site(("<station ", "<depot "), ("</station>", "</depot>"))),
    (_XML_STATION, _SITE_V9), (_XML_STATION, _SITE_NO_STATION),
    (_SCENARIO, _scenario_with_first_site(("name='ca'", "name='ca' foo='1' FOO='2'"))),
    (_XML_STATION, _SITE_NAMESPACED), (_XML_STATION, _SITE_UNDEFINED_ENTITY),
    (_SCENARIO, _scenario_with_first_site(("<site ", "<site xmlns='urn:x' "))),
    (_SCENARIO, _scenario_with_first_site(
        ("<site ", "<!DOCTYPE site SYSTEM 'site.dtd'>\n<site "), ("</site>", "&foo;</site>"))),
], ids=["catalog-list", "catalog-entry", "fixture-list", "fixture-depth", "scenario-list",
        "scenario-station", "ad-parse", "station-config", "conf-schema", "conf-prior",
        "conf-derive-config", "adv-config", "info-config", "gridmap-missing",
        "gridmap-not-utf8", "answers-missing", "answers-count", "answers-count-not-ascii",
        "journal-directory",
        "journal-no-parent", "journal-no-replay", "station-number", "station-link-no-to",
        "fixture-station-number", "fixture-station-link-no-to", "adv-slots",
        "info-duplicate-dn", "scenario-never-quiesces", "catalog-source-list",
        "catalog-name-number", "scenario-source-list", "scenario-source-list-random",
        "scenario-name-number", "scenario-slots-zero", "scenario-slots-superscript",
        "scenario-schema-version", "scenario-no-station", "station-schema-version",
        "station-no-station", "scenario-attributes-alike-but-for-case",
        "station-namespaced-root", "station-undefined-entity", "scenario-namespaced-root",
        "scenario-undefined-entity"])
def test_a_bad_input_file_is_a_usage_error_naming_it(tmp_path, capsys, monkeypatch,
                                                     argv, content):
    # each of these once ended in a traceback, or was taken as valid (a
    # catalog file whose source is not text ended a random run in a
    # TypeError, and data-aware took it for a rank error); a file with
    # content None is missing
    monkeypatch.setattr(cli, "_serve", lambda *args: pytest.fail("a server started"))
    path = tmp_path / "input"
    if content is _DIRECTORY:
        path.mkdir()
    elif content is _NO_PARENT:
        path = path / "journal"
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if "error:" in line]  # one line
    assert f"error: {path}: " in line
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["conf", "run", "--schema", str(SAMPLES / "schema.xml"),
     "--answers", str(SAMPLES / "answers.txt"), "-o"],
    ["conf", "meta", "-o"],
    ["conf", "derive", "--config", str(SAMPLES / "site.xml"), "--service", "station", "-o"],
    ["sim", "run", "--scenario", str(SAMPLES / "scenario.json"), "-o"],
    ["sim", "run", "--scenario", str(SAMPLES / "scenario.json"), "--events"],
], ids=["conf-run", "conf-meta", "conf-derive", "sim-run", "sim-events"])
def test_an_output_file_that_cannot_be_written_is_a_usage_error_naming_it(
        tmp_path, capsys, argv):
    # each of these once ended in a traceback (FileNotFoundError)
    path = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["-o", "--events"])
def test_sim_run_checks_both_output_files_before_it_runs(tmp_path, capsys, monkeypatch, bad):
    # the run once came first: with --events writable and -o not, it wrote
    # the event log and then lost the report
    runs = []
    monkeypatch.setattr(sim, "run_scenario", lambda *args: runs.append(args))
    report, events = tmp_path / "report.json", tmp_path / "events.jsonl"
    report.write_text("before\n")  # an existing file is left as it was
    missing = tmp_path / "missing" / "out"
    argv = ["sim", "run", "--scenario", str(SAMPLES / "scenario.json"),
            "-o", str(missing if bad == "-o" else report),
            "--events", str(missing if bad == "--events" else events)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {missing}: " in capsys.readouterr().err
    assert runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert report.read_text() == "before\n"
