"""Job autoclusters: a pass judges and ranks each one once per resource cluster."""

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from vogrid.classads import (
    TRUE,
    AdKind,
    AttrRef,
    Binary,
    Call,
    ClassAd,
    FnRegistry,
    Literal,
    Scope,
    Unary,
    format_value,
    integer,
    parse_classad,
    real,
    symmetric_match,
    text,
)
from vogrid import matchmaker
from vogrid.matchmaker import (
    AdStore,
    MatchDecision,
    Verdicts,
    free_index,
    match_jobs,
    preauthorize,
)

from worldgen import rank_each_ad

ALICE = "/C=US/O=demo/CN=alice"
BOB = "/C=US/O=demo/CN=bob"
NAMES = ("a", "B", "c", "Owner", "Requirements", "Rank", "X")


# -- the reference: every job judged and ranked on its own ---------------------------

def _per_job_pass(index, jobs, reg, env, choose):
    """The pass as it was before autoclusters: every job judges and ranks
    every free cluster itself, with no table."""
    for job in jobs:
        allowed, refused = [], []
        owner = job.self_text("Owner")
        for members in index.values():
            (allowed if preauthorize(owner, members[0]) else refused).append(members)
        passing = [m for m in allowed if symmetric_match(job, m[0].ad, reg, env)]
        if not passing:
            unauthorized = any(symmetric_match(job, m[0].ad, reg, env) for m in refused)
            yield MatchDecision.no_match(
                job.ad_id, "unauthorized-everywhere" if unauthorized else "no-candidates")
            continue
        pick = choose(job, passing, reg, env)
        if pick is None:
            yield MatchDecision.no_match(job.ad_id, "all-rank-error")
            continue
        yield MatchDecision.match(job.ad_id, *pick)
        for members in passing:
            ids = [s.ad.ad_id for s in members]
            if pick[0] in ids:
                del members[ids.index(pick[0])]
                if not members:
                    del index[next(c for c, m in index.items() if m is members)]
                break
        if not index:
            return


# -- random ads ---------------------------------------------------------------------

def _value(v) -> int:
    return sum(map(ord, format_value(v))) % 5


# handlers that keep the contract: each reads only its arguments, the
# environment and the attributes of SELF it declares
def _reads_a(args, self_ad, other_ad, env):
    return integer(_value(args[0]) + _value(self_ad.evaluate_self("a")) + env["bias"])


def _reads_b_and_c(args, self_ad, other_ad, env):
    return integer(_value(args[0]) + _value(self_ad.evaluate_self("B"))
                   + _value(self_ad.evaluate_self("c")) - env["bias"])


def _reads_nothing(args, self_ad, other_ad, env):
    return real(_value(args[0]) * 0.5 + env["bias"])


def _registry() -> FnRegistry:
    reg = FnRegistry()
    reg.register("f", 1, _reads_a, reads=("A",))
    reg.register("g", 1, _reads_b_and_c, reads=("b", "C"))
    reg.register("h", 1, _reads_nothing, reads=())
    return reg


def _num(rng: random.Random, depth: int):
    """A tree that is mostly a number: small Integers, references to the
    numeric attributes (SELF chains and cycles among them), arithmetic and
    calls."""
    r = rng.random()
    if depth == 0 or r < 0.35:
        if rng.random() < 0.4:
            return Literal(integer(rng.randint(0, 3)))
        if rng.random() < 0.5:
            return AttrRef(Scope.SELF, rng.choice("aBc"))
        return AttrRef(Scope.OTHER, rng.choice("aB"))
    if r < 0.7:
        return Binary(rng.choice("+-*"), _num(rng, depth - 1), _num(rng, depth - 1))
    if r < 0.9:
        return Call(rng.choice(["f", "g", "h", "nosuch"]), (_num(rng, depth - 1),))
    return _wild(rng, depth - 1)


def _cond(rng: random.Random, depth: int):
    """A tree that is mostly a boolean: comparisons of numbers under &&, ||
    and !."""
    r = rng.random()
    if depth == 0 or r < 0.5:
        return Binary(rng.choice(["<", "<=", "==", "!="]),
                      _num(rng, depth), _num(rng, depth))
    if r < 0.85:
        return Binary(rng.choice(["&&", "||"]), _cond(rng, depth - 1), _cond(rng, depth - 1))
    if r < 0.95:
        return Unary("!", _cond(rng, depth - 1))
    return _wild(rng, depth - 1)


def _wild(rng: random.Random, depth: int):
    """Any tree: text, booleans, references to any attribute, any operator."""
    r = rng.random()
    if depth <= 0 or r < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return Literal(integer(rng.randint(-2, 3)))
        if kind == 1:
            return Literal(text(rng.choice("LM")))
        if kind == 2:
            return Literal(rng.choice([TRUE, integer(0)]))
        return AttrRef(Scope.SELF if kind == 3 else Scope.OTHER, rng.choice(NAMES))
    if r < 0.75:
        op = rng.choice(["+", "*", "==", "<", "&&", "||", "!="])
        return Binary(op, _wild(rng, depth - 1), _wild(rng, depth - 1))
    if r < 0.85:
        return Unary(rng.choice("!-"), _wild(rng, depth - 1))
    return Call(rng.choice(["f", "g", "h", "nosuch"]), (_wild(rng, depth - 1),))


def _copy(e):
    """An equal tree that shares no node with e."""
    if isinstance(e, Literal):
        return Literal(e.value)
    if isinstance(e, AttrRef):
        return AttrRef(e.scope, e.name)
    if isinstance(e, Unary):
        return Unary(e.op, _copy(e.operand))
    if isinstance(e, Binary):
        return Binary(e.op, _copy(e.left), _copy(e.right))
    return Call(e.fn_name, tuple(_copy(a) for a in e.args))


def _job_bindings(rng: random.Random) -> dict:
    attrs = {"Owner": Literal(text(rng.choice([ALICE, ALICE, BOB])))
             if rng.random() < 0.9 else _wild(rng, 1)}
    if rng.random() < 0.5:
        attrs["Requirements"] = _cond(rng, 2)
    if rng.random() < 0.8:
        attrs["Rank"] = _num(rng, 2)
    for name in "aBc":
        if rng.random() < 0.8:
            attrs[name] = _num(rng, 1)
    return attrs


def _jobs(rng: random.Random) -> list[ClassAd]:
    """Jobs copied from a few templates, with equal but unshared trees, each
    copy with its own X, and maybe a value of its own for a, B or c, or a
    Requirements of its own."""
    templates = [_job_bindings(rng) for _ in range(rng.randint(1, 3))]
    jobs = []
    for n in range(rng.randint(2, 9)):
        attrs = {k: _copy(e) for k, e in rng.choice(templates).items()}
        attrs["X"] = Literal(integer(n))
        for name in ("a", "B", "c"):
            if rng.random() < 0.3:
                attrs[name] = Literal(integer(rng.randint(0, 1)))
        if rng.random() < 0.1:
            attrs["Requirements"] = _cond(rng, 2)
        jobs.append(ClassAd(attrs, AdKind.JOB, ad_id=f"j{n}"))
    return jobs


def _store(rng: random.Random) -> AdStore:
    store = AdStore()
    made = []
    for n in range(rng.randint(1, 7)):
        if made and rng.random() < 0.4:  # another slot of an earlier cluster
            attrs, gridmap = rng.choice(made)
        else:
            name = f"R{rng.randint(0, 3)}"
            attrs = {"Name": Literal(text(name)), "Gatekeeper": Literal(text("gk")),
                     "Station_ID": Literal(text("st"))}
            for attr in "aB":
                if rng.random() < 0.8:
                    attrs[attr] = _num(rng, 1)
            if rng.random() < 0.4:
                attrs["Requirements"] = _cond(rng, 1)
            gridmap = rng.choice([[ALICE], [BOB], [ALICE, BOB], []])
            made.append((attrs, gridmap))
        ad = ClassAd({k: _copy(e) for k, e in attrs.items()}, AdKind.RESOURCE,
                     ad_id=f"r{n}")
        store.collect_ad(ad, gridmap, 3600.0, 0.0)
    return store


def _recording(seen: list):
    """A chooser that records what it was offered and picks by ad id and
    the job's X."""
    def choose(job, clusters, reg, env):
        ids = sorted(s.ad.ad_id for members in clusters for s in members)
        seen.append((job.ad_id, ids))
        x = job.evaluate_self("X").data
        return (ids[x % len(ids)], float(x)) if x % 3 else None
    return choose


def _compare(seed: int) -> None:
    """Three passes over one random world, autoclustered and per job, with
    the Rank argmax and with a recording chooser: the decisions and what
    the chooser was offered agree job by job. The side under test keeps no
    verdict table, as a MATCH_REQUEST, and so judges each job on its own, or
    one across the passes, as a simulator run, while the environment its
    handlers read changes between them."""
    rng = random.Random(seed)
    jobs, store, reg = _jobs(rng), _store(rng), _registry()
    ad_ids = [s.ad.ad_id for s in store.snapshot(0.0)]
    for kind, keep in [("rank", False), ("rank", True),
                       ("recording", False), ("recording", True)]:
        kept: dict = {}
        for bias in (0, 1, 0):
            env = {"bias": bias}
            claimed = set(rng.sample(ad_ids, rng.randint(0, len(ad_ids) - 1)))
            free = [s for s in store.snapshot(0.0) if s.ad.ad_id not in claimed]
            offered, offered_ref = [], []
            index = free_index(free)
            got = list(match_jobs(
                index, jobs, reg, env, None if kind == "rank" else _recording(offered),
                verdicts=Verdicts(index, kept, reg) if keep else None))
            want = list(_per_job_pass(
                free_index(free), jobs, reg, env,
                rank_each_ad if kind == "rank" else _recording(offered_ref)))
            assert got == want, (kind, keep, bias)
            assert offered == offered_ref, (kind, keep, bias)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_autoclustered_passes_equal_the_per_job_pass(seed):
    _compare(seed)


def test_the_random_worlds_share_autoclusters():
    # the property above means something only if jobs do share: count the
    # worlds where two jobs of a pass share a verdict or a rank autocluster
    shared = collections.Counter()
    for seed in range(200):
        rng = random.Random(seed)
        jobs, store, reg = _jobs(rng), _store(rng), _registry()
        others = frozenset().union(*(s.ad.other_reach()[0] for s in store.snapshot(0.0)))
        for start in (("requirements", "owner"), ("rank",)):
            groups = [job.autocluster(start, others, reg) for job in jobs]
            shared[start] += len(set(map(id, groups))) < len(jobs)
            shared["calls"] += any(g.calls for g in groups)
        _compare(seed)
    assert min(shared.values()) > 60, shared


# -- counts --------------------------------------------------------------------------

def _clusters(k: int, slots: int) -> AdStore:
    """k resource clusters of `slots` slots each, one station per cluster."""
    store = AdStore()
    for c in range(k):
        for n in range(slots):
            ad = ClassAd({"Name": Literal(text(f"site{c}")),
                          "Gatekeeper": Literal(text(f"gk{c}")),
                          "Station_ID": Literal(text("st" + "x" * c))},
                         AdKind.RESOURCE, ad_id=f"site{c}#{n}")
            store.collect_ad(ad, [ALICE], 3600.0, 0.0)
    return store


def _counting_registry(calls: list, reads) -> FnRegistry:
    def score(args, self_ad, other_ad, env):
        calls.append(("score", self_ad.ad_id))
        return real(-float(len(args[1].data)))  # the nearer, the shorter the name

    def check(args, self_ad, other_ad, env):
        calls.append(("check", self_ad.ad_id))
        return TRUE

    reg = FnRegistry()
    reg.register("score", 2, score, reads=reads)
    reg.register("check", 1, check, reads=reads)
    return reg


def _same_but_comment(n: int) -> list[ClassAd]:
    """n jobs that differ only in Comment, which no expression reads."""
    return [ClassAd({"Owner": Literal(text(ALICE)), "Dataset": Literal(text("d")),
                     "Requirements": Call("check", (AttrRef(Scope.OTHER, "Name"),)),
                     "Rank": Call("score", (AttrRef(Scope.SELF, "Dataset"),
                                            AttrRef(Scope.OTHER, "Station_ID"))),
                     "Comment": Literal(text(f"job {i}"))}, AdKind.JOB, ad_id=f"j{i:02d}")
            for i in range(n)]


def test_jobs_alike_but_for_an_unread_attribute_rank_once_per_cluster():
    k, n = 4, 12
    calls = []
    reg = _counting_registry(calls, reads=("OutputBytes",))
    index = free_index(_clusters(k, 3).snapshot(0.0))
    decisions = list(match_jobs(index, _same_but_comment(n), reg, None,
                                verdicts=Verdicts(index, {}, reg)))
    # the nearest cluster fills first, then the next one
    assert [d.resource_id for d in decisions] == [
        f"site{c}#{s}" for c in range(k) for s in range(3)]
    counts = collections.Counter(kind for kind, _ in calls)
    assert counts == {"score": k, "check": k}  # not n * k


def test_a_pass_without_a_verdict_table_judges_each_job_on_its_own():
    # as a MATCH_REQUEST does: the same jobs, with handlers that declare reads
    k, n = 4, 12
    calls = []
    reg = _counting_registry(calls, reads=("OutputBytes",))
    decisions = list(match_jobs(free_index(_clusters(k, 3).snapshot(0.0)),
                                _same_but_comment(n), reg, None))
    assert all(d.matched for d in decisions)
    free = [k - i // 3 for i in range(n)]
    counts = collections.Counter(kind for kind, _ in calls)
    assert counts == {"score": sum(free), "check": sum(free)}


# -- the kept refusals a lazy pull may pass over ---------------------------------------

def _slot(name: str, arch: str, extra: str = "") -> ClassAd:
    return parse_classad(f'Name = "{name}"\nGatekeeper = "gk"\nStation_ID = "st"\n'
                         f'Architecture = "{arch}"\n' + extra,
                         AdKind.RESOURCE, ad_id=f"{name}#0")


def _wants(arch: str, dataset: str = "d", owner: str = ALICE, extra: str = "") -> ClassAd:
    return parse_classad(f'Owner = "{owner}"\nDataset = "{dataset}"\n'
                         f'Requirements = {extra}OTHER.Architecture == "{arch}"\n',
                         AdKind.JOB, ad_id=f"{arch}-{dataset}")


def test_kept_verdicts_pass_over_a_job_only_when_every_free_cluster_refuses_it():
    reg = _counting_registry([], reads=())
    store = AdStore()
    for name, arch, subject in (("L", "Linux", ALICE), ("I", "IRIX", ALICE),
                                ("B", "Linux", BOB)):
        store.collect_ad(_slot(name, arch), [subject], 3600.0, 0.0)
    slots = store.snapshot(0.0)
    kept: dict = {}

    def refuses(ads, job) -> bool:
        return Verdicts(free_index(ads), kept, reg).refuses(job)

    def judge(ads, job, choose=None) -> MatchDecision:
        index = free_index(ads)
        [decision] = match_jobs(index, [job], reg, None, choose,
                                verdicts=Verdicts(index, kept, reg))
        return decision

    two = slots[:2]
    sun = _wants("SunOS")
    assert not refuses(two, sun)  # nothing kept yet
    assert judge(two, sun).reason == "no-candidates"
    assert refuses(two, sun)
    assert refuses(two, _wants("SunOS", dataset="e"))  # its autocluster
    assert not refuses(slots, sun)  # B's verdict is not kept yet
    judge(slots, sun)
    assert refuses(slots, sun)  # B refuses it unauthorized

    # a free cluster passes: L, though the chooser claims nothing there
    linux = _wants("Linux")
    assert judge(two, linux, choose=lambda *args: None).reason == "all-rank-error"
    assert not refuses(two, linux)
    assert refuses(slots[1:2], linux)  # I alone refuses

    # the job's verdict group calls a function: no verdict of it is kept
    calling = _wants("SunOS", extra="check(OTHER.Name) && ")
    assert judge(two, calling).reason == "no-candidates"
    assert not refuses(two, calling)

    # the free clusters' bindings call one: no verdict is kept
    store.collect_ad(_slot("C", "Linux", "Requirements = check(OTHER.Owner)\n"),
                     [ALICE], 3600.0, 0.0)
    four = store.snapshot(0.0)
    index = free_index(four)
    verdicts = Verdicts(index, kept, reg)
    mips = _wants("MIPS")
    [decision] = match_jobs(index, [mips], reg, None, verdicts=verdicts)
    assert decision.reason == "no-candidates"
    assert not verdicts.refuses(mips)
    assert not refuses(two, mips)
    judge(four, sun)
    assert not refuses(four, sun)
    assert refuses(slots, sun)


def _judge_calls(verdicts: Verdicts, job: ClassAd, env):
    """`verdicts.judge`'s answer for the job, with the pairs it handed
    `preauthorize` and `symmetric_match`."""
    authorized, judged = [], []

    def counting_preauthorize(owner, stored):
        authorized.append(stored.ad.ad_id)
        return preauthorize(owner, stored)

    def counting_match(job, ad, reg, env):
        judged.append(ad.ad_id)
        return symmetric_match(job, ad, reg, env)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matchmaker, "preauthorize", counting_preauthorize)
        patch.setattr(matchmaker, "symmetric_match", counting_match)
        got = verdicts.judge(job, job.self_text("Owner"), env)
    return got, authorized, judged


def _check_refusals(seed: int) -> int:
    """Passes with one kept table over a random world, as in a simulator
    run: whenever the skip rule passes over a job, judging it anyway on its
    kept row gives a no-match reason, calls no `preauthorize` and evaluates
    Requirements only on clusters whose gridmap refuses it, which tells
    unauthorized-everywhere from no-candidates. Returns how many jobs it
    passed over."""
    rng = random.Random(seed)
    jobs, store, reg = _jobs(rng), _store(rng), _registry()
    by_id = {s.ad.ad_id: s for s in store.snapshot(0.0)}
    kept: dict = {}
    refused = 0
    for bias in (0, 1, 0, 1):
        env = {"bias": bias}
        claimed = set(rng.sample(sorted(by_id), rng.randint(0, len(by_id) - 1)))
        index = free_index(s for s in store.snapshot(0.0) if s.ad.ad_id not in claimed)
        verdicts = Verdicts(index, kept, reg)
        for job in jobs:
            if not verdicts.refuses(job):
                continue
            refused += 1
            # judged afresh on its kept row: a new pass's `Verdicts` shares no judgement
            got, authorized, judged = _judge_calls(Verdicts(index, kept, reg), job, env)
            assert got in ("no-candidates", "unauthorized-everywhere")
            assert authorized == []
            owner = job.self_text("Owner")
            assert not any(preauthorize(owner, by_id[ad_id]) for ad_id in judged)
        list(match_jobs(index, jobs, reg, env, verdicts=verdicts))
    return refused


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_job_the_kept_verdicts_refuse_gets_no_match_and_no_new_authorization(seed):
    _check_refusals(seed)


def test_the_random_worlds_pass_over_refused_jobs():
    # the property above means something only if the skip rule applies
    assert sum(_check_refusals(seed) > 0 for seed in range(200)) > 50
