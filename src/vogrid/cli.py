"""Command line front end.

Servers print `LISTENING <port>` once ready, so callers can pass --port 0
and read the assigned port from the first line of output.

The load rule: a command imports what it uses when it runs, from the module
that defines it, and no package imports a name on its first use. So a server
process loads only its own service: no server loads the simulator, the
configuration session (`conftree.configurator`, `session`, `meta`,
`directives`) or `subprocess`, and a station or a queue never loads the
matchmaker.

Each option that several commands take (--auth, --port, --queue, --job,
-o/--output) is defined once, as a parent parser, and each command lists the
parents it takes (`build_parser`).

A file that an option names and that cannot be read or written, or does not
hold what the option wants, is a usage error (exit 2) naming the file
(`_option_file`), as is a HOST:PORT whose port is not one `wire.is_port`
takes, and a --port that is neither 0 nor such a port. A site configuration
that a command cannot build its service from is such a file: a station's
--config whose stations cannot be derived, an advertiser's --config whose
slots cannot be advertised, and a scenario whose embedded site configs fail
either way (`sim.Scenario.grid`). A server that cannot
listen on its port exits 1 with one line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import wire

# sim.POLICIES, spelled out so that building the parser does not load the
# simulator; a test pins the two equal
POLICIES = ("data-aware", "random", "round-robin")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, chunks):
    """Write the bytes `chunks` to the file an option names, through `_option_file`."""
    def write(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    _option_file(path, write)


def _writable(path: str):
    """OSError unless the file can be opened for writing. It is left as it was."""
    existed = os.path.lexists(path)
    open(path, "ab").close()
    if not existed:
        os.remove(path)


def _write_out(path: str, content: str):
    if path == "-":
        sys.stdout.write(content)
    else:
        _write(path, [content.encode("utf-8")])


def _host_port(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and wire.is_port(int(port))):
        raise argparse.ArgumentTypeError(
            f"{value!r} is not HOST:PORT with a port in 1-65535")
    return host or "127.0.0.1", int(port)


def _listen_port(value: str) -> int:
    """A port to listen on: 0 for any free port, or one `wire.is_port` takes."""
    port = int(value) if value.isascii() and value.isdigit() else -1
    if not (port == 0 or wire.is_port(port)):
        raise argparse.ArgumentTypeError(f"{value!r} is not a port in 0-65535")
    return port


def _job_id(value: str) -> int:
    """A job id: a whole number as `wire.number_text` reads it."""
    return wire.number_text(value, whole=True)


def _interval(value: str) -> float:
    """Seconds as `wire.number_text` reads them, above 0 and finite when doubled."""
    seconds = wire.number_text(value)
    if not 0 < 2.0 * seconds < math.inf:  # the TTL sent is twice the interval
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a finite number of seconds above 0")
    return seconds


def _option_file(path: str, load, *faults):
    """`load(path)`. An OSError, a ValueError or one of `faults` is a usage
    error naming the file: argparse reports it for an option's type, and
    `main` for a command."""
    try:
        return load(path)
    except (OSError, ValueError, *faults) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _json_object(path: str) -> dict:
    """The JSON object in a file, read by `wire.read_json_file`."""
    raw = wire.read_json_file(path)
    if not isinstance(raw, dict):
        raise ValueError("must hold a JSON object")
    return raw


def _xml_tree(path: str):
    """The configuration tree in an XML file, read by `conftree.read_tree`."""
    from .conftree import MalformedXml, read_tree
    return _option_file(path, lambda path: read_tree(_read(path)), MalformedXml)


def _station_directory(path: str) -> dict[str, tuple[str, int]]:
    """The station directory in a JSON file: each Station_ID to its address,
    read by `wire.address_field`."""
    def load(path):
        raw = _json_object(path)
        return {sid: wire.address_field(raw, sid) for sid in raw}
    return _option_file(path, load, wire.RequestError)


def _serve(handler, port: int, auth: str | None):
    try:
        server = wire.LineServer("127.0.0.1", port, handler, auth_token=auth)
    except OSError as exc:
        raise SystemExit(f"cannot listen on 127.0.0.1:{port}: {exc}")
    print(f"LISTENING {server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def _load_station(args):
    """The station named --station in --config, with --fixture's state. A
    config whose stations cannot be derived, or whose station element does
    not parse, is the config's fault, and so is a state it builds alone; a
    state built with a fixture is the fixture's."""
    from .conftree import MissingSection, UnsupportedSchemaVersion, derive_service_config
    from .station import config_fields, station_from_config
    site = _xml_tree(args.config)
    stations = _option_file(args.config, lambda path: derive_service_config(site, "station"),
                            UnsupportedSchemaVersion, MissingSection)
    for node in stations.children:
        if node.attributes.get("name") == args.station:
            _option_file(args.config, lambda path: config_fields(node))
            if not args.fixture:
                return _option_file(args.config, lambda path: station_from_config(node))
            return _option_file(args.fixture, lambda path: station_from_config(
                node, _json_object(path)), TypeError)
    raise SystemExit(f"no station named {args.station!r} in {args.config}")


def _request_or_die(address: tuple[str, int], msg, auth):
    host, port = address
    try:
        return wire.reply_result(wire.send_request(host, port, msg, auth_token=auth))
    except OSError as exc:
        raise SystemExit(f"cannot reach {host}:{port}: {exc}")
    except wire.ErrorReply as exc:
        raise SystemExit(f"{exc.code}: {exc.message}")
    except (wire.WireError, ValueError) as exc:  # ValueError: not JSON
        raise SystemExit(f"bad reply from {host}:{port}: {exc}")


# -- conf ------------------------------------------------------------------------

def cmd_conf_run(args):
    from .conftree import write_tree
    from .conftree.configurator import configure
    from .conftree.session import ConfigureError, InteractiveInput, parse_answer_file
    schema = _xml_tree(args.schema)
    prior = _xml_tree(args.prior) if args.prior else None
    source = _option_file(args.answers, lambda path: parse_answer_file(_read(path)),
                          ConfigureError) if args.answers else InteractiveInput()
    try:
        config = configure(schema, source, prior=prior)
    except ConfigureError as exc:
        raise SystemExit(f"configuration failed: {exc}")
    _write_out(args.output, write_tree(config))


def cmd_conf_meta(args):
    from .conftree import write_tree
    from .conftree.meta import meta_schema
    _write_out(args.output, write_tree(meta_schema()))


def cmd_conf_derive(args):
    from .conftree import (MissingSection, UnsupportedSchemaVersion,
                           derive_service_config, write_tree)
    config = _xml_tree(args.config)
    try:
        derived = derive_service_config(config, args.service)
    except (UnsupportedSchemaVersion, MissingSection) as exc:
        raise SystemExit(f"cannot derive: {exc}")
    _write_out(args.output, write_tree(derived))


# -- services ----------------------------------------------------------------------

def cmd_adv_run(args):
    from .advertise import (MissingAttribute, advertise_once, generate_classads,
                            parse_gridmap, select_patterns)
    config = _xml_tree(args.config)
    # a config whose ads cannot be built is a usage error, found before any is sent
    _option_file(args.config, lambda path: generate_classads(select_patterns(config)),
                 MissingAttribute)
    gridmap = _option_file(args.gridmap, lambda path: parse_gridmap(_read(path))) \
        if args.gridmap else []
    ttl = 2.0 * args.interval

    def send(msg):
        return _request_or_die(args.mm, msg, args.auth)

    while True:
        try:
            pushed = advertise_once(config, send, gridmap, ttl)
        except SystemExit as exc:  # the round's one line from `_request_or_die`
            if args.once:
                raise
            print(exc, file=sys.stderr, flush=True)  # and try again next interval
        else:
            print(f"advertised {len(pushed)} ads: {', '.join(pushed)}", flush=True)
            if args.once:
                return
        time.sleep(args.interval)


def cmd_info_serve(args):
    from .advertise import DuplicateDn, InfoService
    config = _xml_tree(args.config)
    service = _option_file(args.config, lambda path: InfoService(config), DuplicateDn)
    _serve(service.handle_message, args.port, args.auth)


def cmd_station_serve(args):
    from .station import DatasetCatalog, handler
    catalog = _option_file(args.catalog, lambda path: DatasetCatalog(_json_object(path)),
                           TypeError)
    state = _load_station(args)
    _serve(handler(catalog, state), args.port, args.auth)


def cmd_mm_serve(args):
    from .matchmaker import DirectoryQuery, MatchmakerService
    directory = args.station_directory or {}
    query = DirectoryQuery(directory, auth_token=args.auth) if directory else None
    service = MatchmakerService(station_query=query)
    try:
        _serve(service.handle_message, args.port, args.auth)
    finally:
        if query is not None:
            query.close()


def cmd_q_serve(args):
    from .queue_server import CorruptJournal, QueueService
    service = _option_file(args.journal, QueueService, CorruptJournal)
    try:
        _serve(service.handle_message, args.port, args.auth)
    finally:
        service.close()


# -- queue client -------------------------------------------------------------------

def cmd_submit(args):
    from .classads import AdKind, ParseError, ad_to_json, parse_classad
    ad_id = os.path.splitext(os.path.basename(args.ad))[0]
    ad = _option_file(args.ad, lambda path: parse_classad(_read(path), AdKind.JOB, ad_id),
                      ParseError)
    result = _request_or_die(args.queue, {"type": "SUBMIT", "ad": ad_to_json(ad)}, args.auth)
    print(f"job {result['job_id']} {result['state']}")


def cmd_status(args):
    result = _request_or_die(args.queue, {"type": "STATUS", "job_id": args.job}, args.auth)
    print(f"job {result['job_id']}: {result['state']}"
          + (f" ({result['detail']})" if result.get("detail") else ""))
    for entry in result["history"]:
        detail = f"  {entry['detail']}" if entry.get("detail") else ""
        print(f"  {entry['stamp']:>8}  {entry['state']}{detail}")


def cmd_release(args):
    result = _request_or_die(args.queue, {"type": "RELEASE", "job_id": args.job}, args.auth)
    print(f"job {result['job_id']} {result['state']}")


# -- sim ---------------------------------------------------------------------------

def cmd_sim_run(args):
    from .sim import NonQuiescent, ScenarioParseError, load_scenario_file, run_scenario
    scenario = _option_file(args.scenario, load_scenario_file, ScenarioParseError)
    for path in (args.output if args.output != "-" else None, args.events):
        if path:  # before the run, so that a usage error costs no work or output
            _option_file(path, _writable)
    try:
        report, event_log = run_scenario(scenario, args.policy, args.seed)
    except (ScenarioParseError, NonQuiescent) as exc:  # its grid, or a run that never ends
        raise argparse.ArgumentTypeError(f"{args.scenario}: {exc}") from None
    if args.events:
        _write(args.events, map(wire.encode_line, event_log))
    _write_out(args.output, json.dumps(report, indent=2, allow_nan=False) + "\n")


# -- wiring ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vogrid",
        description="Desk-scale grid: configuration, advertisement, "
                    "matchmaking, and simulation.")
    top = parser.add_subparsers(dest="command", required=True)

    auth, port, queue, job, output = (argparse.ArgumentParser(add_help=False)
                                      for _ in range(5))
    auth.add_argument("--auth")
    port.add_argument("--port", type=_listen_port, required=True)
    queue.add_argument("--queue", required=True, type=_host_port)
    job.add_argument("--job", required=True, type=_job_id)
    output.add_argument("-o", "--output", default="-")

    conf = top.add_parser("conf", help="configuration sessions and derivation")
    confsub = conf.add_subparsers(dest="subcommand", required=True)
    p = confsub.add_parser("run", parents=[output],
                           help="configure a schema into a config tree")
    p.add_argument("--schema", required=True)
    p.add_argument("--answers", help="scripted answers; interactive if omitted")
    p.add_argument("--prior", help="previous config supplying defaults")
    p.set_defaults(fn=cmd_conf_run)
    p = confsub.add_parser("meta", parents=[output], help="print the built-in meta-schema")
    p.set_defaults(fn=cmd_conf_meta)
    p = confsub.add_parser("derive", parents=[output], help="project a per-service config")
    p.add_argument("--config", required=True)
    p.add_argument("--service", required=True,  # conftree.SERVICE_KINDS, as with POLICIES
                   choices=("advertiser", "station", "monitoring"))
    p.set_defaults(fn=cmd_conf_derive)

    adv = top.add_parser("adv", help="resource advertiser")
    advsub = adv.add_subparsers(dest="subcommand", required=True)
    p = advsub.add_parser("run", parents=[auth], help="advertise a site to the matchmaker")
    p.add_argument("--config", required=True)
    p.add_argument("--mm", required=True, type=_host_port)
    p.add_argument("--interval", type=_interval, default=30.0)
    p.add_argument("--gridmap", help="authorized grid subjects, one per line")
    p.add_argument("--once", action="store_true", help="advertise once and exit")
    p.set_defaults(fn=cmd_adv_run)

    info = top.add_parser("info", help="pull-based site information tree")
    infosub = info.add_subparsers(dest="subcommand", required=True)
    p = infosub.add_parser("serve", parents=[port, auth])
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_info_serve)

    station = top.add_parser("station", help="data-handling station")
    stationsub = station.add_subparsers(dest="subcommand", required=True)
    p = stationsub.add_parser("serve", parents=[port, auth])
    p.add_argument("--config", required=True, help="site configuration XML")
    p.add_argument("--station", required=True, help="station name in the config")
    p.add_argument("--catalog", required=True, help="dataset catalog JSON")
    p.add_argument("--fixture", help="JSON runtime state overrides")
    p.set_defaults(fn=cmd_station_serve)

    mm = top.add_parser("mm", help="matchmaking service")
    mmsub = mm.add_subparsers(dest="subcommand", required=True)
    p = mmsub.add_parser("serve", parents=[port, auth])
    p.add_argument("--station-directory", type=_station_directory,
                   help="JSON map of Station_ID to [host, port]")
    p.set_defaults(fn=cmd_mm_serve)

    q = top.add_parser("q", help="job queue server")
    qsub = q.add_subparsers(dest="subcommand", required=True)
    p = qsub.add_parser("serve", parents=[port, auth])
    p.add_argument("--journal", required=True)
    p.set_defaults(fn=cmd_q_serve)

    p = top.add_parser("submit", parents=[queue, auth], help="submit a job ad to the queue")
    p.add_argument("--ad", required=True, help="classad text file")
    p.set_defaults(fn=cmd_submit)
    p = top.add_parser("status", parents=[queue, job, auth], help="job state and history")
    p.set_defaults(fn=cmd_status)
    p = top.add_parser("release", parents=[queue, job, auth], help="re-queue a held job")
    p.set_defaults(fn=cmd_release)

    sim = top.add_parser("sim", help="deterministic scenario runs")
    simsub = sim.add_subparsers(dest="subcommand", required=True)
    p = simsub.add_parser("run", parents=[output])
    p.add_argument("--scenario", required=True)
    p.add_argument("--policy", default="data-aware", choices=POLICIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", help="also write the event log, one JSON per line")
    p.set_defaults(fn=cmd_sim_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except argparse.ArgumentTypeError as exc:  # a command's `_option_file`
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
