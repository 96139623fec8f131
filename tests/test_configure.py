"""Schema-driven configuration sessions."""

import pytest

from vogrid.conftree import TreeNode, read_tree
from vogrid.conftree.configurator import (
    CardinalityViolation,
    DuplicateAttribute,
    UnboundVar,
    configure,
)
from vogrid.conftree.meta import MAX_DESIGN_DEPTH, meta_schema
from vogrid.conftree.session import (
    ACCEPT_DEFAULT,
    AnswerExhausted,
    AnswerScript,
    ConfigureError,
    Count,
    InteractiveInput,
    ScriptMismatch,
    parse_answer_file,
)
from vogrid.conftree.directives import (
    Ask,
    Fixed,
    RefVar,
    SetVar,
    UnknownDirective,
    parse_directive,
)

from conftest import fixture_text


class Transcript:
    """Answer source wrapper that records every prompt it relays."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = []

    def next_text(self, prompt, default):
        self.prompts.append(prompt)
        return self.inner.next_text(prompt, default)

    def next_count(self, prompt, default):
        self.prompts.append(prompt)
        return self.inner.next_count(prompt, default)

    def exec_default(self, command):
        return self.inner.exec_default(command)


def _schema(name):
    return read_tree(fixture_text(name))


# -- directive grammar ---------------------------------------------------------

@pytest.mark.parametrize("raw,parsed", [
    ("Linux", Fixed("Linux")),
    ("v0_3", Fixed("v0_3")),
    ("gram://host:2119", Fixed("gram://host:2119")),
    ("plain,with,commas", Fixed("plain,with,commas")),
    ("inquire", Ask()),
    ("inquire-default,fork", Ask("fork")),
    ("inquire-default,a,b", Ask("a,b")),
    ("inquire-default,exec,uname", Ask(command="uname")),
    ("inquire-default,exec,echo a,b", Ask(command="echo a,b")),
    ("set,V,inquire", SetVar("V", Ask())),
    ("set,V,inquire-default,x", SetVar("V", Ask("x"))),
    ("set,V2,fixed stuff", SetVar("V2", Fixed("fixed stuff"))),
    ("ref,V", RefVar("V")),
])
def test_parse_directive(raw, parsed):
    assert parse_directive(raw) == parsed


@pytest.mark.parametrize("raw", [
    "inquire,extra",
    "inquire-default",
    "inquire-default,exec",
    "inquire-default,exec, ",
    "set,V",
    "set,lower,inquire",
    "set,9V,inquire",
    "ref",
    "ref,V,extra",
    "ref,bad-name",
])
def test_parse_directive_rejects(raw):
    with pytest.raises(UnknownDirective):
        parse_directive(raw)


# -- answer files ----------------------------------------------------------------

def test_parse_answer_file():
    script = parse_answer_file(
        "# comment\n"
        "\n"
        "!exec uname = Linux\n"
        "plain answer\n"
        "@default\n"
        "@count 3\n")
    assert script.exec_outputs == {"uname": "Linux"}
    assert script.next_text("q1", None) == "plain answer"
    assert script.next_text("q2", "dflt") == "dflt"
    assert script.next_count("q3", 1) == 3


@pytest.mark.parametrize("bad", ["@count", "@count x", "!exec nothing here",
                                 # int() took these as 3 and 10, and -2 was refused
                                 # only by the cardinality it was asked for
                                 "@count \u0663", "@count 1_0", "@count -2", "@count 2 3"])
def test_parse_answer_file_rejects(bad):
    with pytest.raises(ScriptMismatch):
        parse_answer_file(bad)


def test_script_mismatches():
    with pytest.raises(ScriptMismatch):
        AnswerScript([ACCEPT_DEFAULT]).next_text("q", None)
    with pytest.raises(ScriptMismatch):
        AnswerScript([Count(2)]).next_text("q", None)
    with pytest.raises(ScriptMismatch):
        AnswerScript(["five"]).next_count("q", 1)
    with pytest.raises(ScriptMismatch):
        AnswerScript([]).exec_default("uname")
    with pytest.raises(AnswerExhausted):
        AnswerScript([]).next_text("q", None)


# -- the recorded session ---------------------------------------------------------

def test_minimal_session_transcript_and_config():
    schema = _schema("minimal_schema.xml")
    session = Transcript(parse_answer_file(fixture_text("minimal_user_answers.txt")))
    config = configure(schema, session)
    assert config == _schema("minimal_config_golden.xml")
    assert session.prompts == [
        "What is the name of the site? [FNAL]: ",
        "How many cluster elements under site 'FNAL'? [1]: ",
        "What is the name of cluster at the site 'FNAL'? ",
        "What is the architecture of cluster 'samadams'? [Linux]: ",
        "What is the url of gatekeeper at the cluster 'samadams'? ",
        "What is the jobmanager of gatekeeper at the cluster 'samadams'? [fork]: ",
    ]


def test_question_order_follows_schema_document_order():
    # same attributes, opposite order: the prompts swap with them
    s1 = read_tree("<e cardinalityMin='1' cardinalityMax='1' "
                   "name='inquire' color='inquire'/>")
    s2 = read_tree("<e cardinalityMin='1' cardinalityMax='1' "
                   "color='inquire' name='inquire'/>")
    t1 = Transcript(AnswerScript(["n", "c"]))
    t2 = Transcript(AnswerScript(["c", "n"]))
    assert configure(s1, t1) == configure(s2, t2)
    assert t1.prompts[0].startswith("What is the name")
    assert t2.prompts[0].startswith("What is the color")


# -- designing schemas with the built-in meta-schema -------------------------------

DESIGNS = [
    ("minimal_design_answers.txt", "minimal_schema.xml", "minimal_user_answers.txt",
     "minimal_config_golden.xml"),
    ("site_design_answers.txt", "site_schema_v0_3.xml", "site_user_answers.txt",
     "config_fnal.xml"),
    ("storage_design_answers.txt", "storage_schema.xml", "storage_user_answers.txt",
     "storage_config_golden.xml"),
]


@pytest.mark.parametrize("design,schema,_answers,_golden", DESIGNS)
def test_design_session_reproduces_handwritten_schema(design, schema, _answers, _golden):
    designed = configure(meta_schema(), parse_answer_file(fixture_text(design)))
    assert designed == _schema(schema)


@pytest.mark.parametrize("design,_schema_name,answers,golden", DESIGNS)
def test_designed_schema_configures_to_golden(design, _schema_name, answers, golden):
    designed = configure(meta_schema(), parse_answer_file(fixture_text(design)))
    config = configure(designed, parse_answer_file(fixture_text(answers)))
    assert config == _schema(golden)


@pytest.mark.parametrize("_design,_schema_name,_answers,golden", DESIGNS)
def test_configured_values_are_all_fixed(_design, _schema_name, _answers, golden):
    # a finished configuration holds no live directives and no control attrs
    for node in [_schema(golden)] + list(_schema(golden).descendants()):
        for attr, value in node.attributes.items():
            assert attr not in ("cardinalityMin", "cardinalityMax", "elementName")
            assert parse_directive(value) == Fixed(value)


def test_meta_schema_shape():
    schema = meta_schema()
    assert MAX_DESIGN_DEPTH == 5
    slot = TreeNode("attribute",
                    {"cardinalityMin": "0", "name": "inquire", "value": "inquire"})
    depth = 0
    node = schema
    while node is not None:
        depth += 1
        assert node.element_name == "element"
        assert node.attributes["elementName"] == "inquire"
        assert node.children[0] == slot
        nested = [c for c in node.children if c.element_name == "element"]
        assert len(nested) <= 1
        node = nested[0] if nested else None
    assert depth == MAX_DESIGN_DEPTH
    # the root designs exactly one element, nested slots are optional
    assert schema.attributes["cardinalityMin"] == "1"
    assert schema.attributes["cardinalityMax"] == "1"
    assert schema.children[1].attributes == {"cardinalityMin": "0",
                                             "elementName": "inquire"}
    # fresh tree per call
    schema.attributes["elementName"] = "mutated"
    assert meta_schema().attributes["elementName"] == "inquire"


# -- re-configuration against a prior config ----------------------------------------

def test_prior_supplies_defaults_without_running_commands():
    schema = _schema("minimal_schema.xml")
    prior = _schema("minimal_config_golden.xml")
    # every answer accepts the prior value; no exec output is scripted, so
    # this would fail with ScriptMismatch if the uname command were consulted
    session = Transcript(AnswerScript([ACCEPT_DEFAULT] * 6))
    config = configure(schema, session, prior=prior)
    assert config == prior
    assert session.prompts == [
        "What is the name of the site? [FNAL]: ",
        "How many cluster elements under site 'FNAL'? [1]: ",
        "What is the name of cluster at the site 'FNAL'? [samadams]: ",
        "What is the architecture of cluster 'samadams'? [Linux]: ",
        "What is the url of gatekeeper at the cluster 'samadams'? "
        "[gram://samadams.fnal.gov:2119]: ",
        "What is the jobmanager of gatekeeper at the cluster 'samadams'? [fork]: ",
    ]


def test_prior_with_one_changed_answer():
    schema = _schema("minimal_schema.xml")
    prior = _schema("minimal_config_golden.xml")
    answers = [ACCEPT_DEFAULT, ACCEPT_DEFAULT, ACCEPT_DEFAULT, "IRIX",
               ACCEPT_DEFAULT, ACCEPT_DEFAULT]
    config = configure(schema, AnswerScript(answers), prior=prior)
    assert config != prior
    assert config.find("cluster").attributes["architecture"] == "IRIX"
    fixed = config.copy()
    fixed.find("cluster").attributes["architecture"] = "Linux"
    assert fixed == prior


def test_prior_count_grows_and_new_elements_start_blank():
    schema = _schema("minimal_schema.xml")
    prior = _schema("minimal_config_golden.xml")
    answers = [
        ACCEPT_DEFAULT,              # site name
        Count(2),                    # one cluster in the prior, ask for two
        ACCEPT_DEFAULT, ACCEPT_DEFAULT, ACCEPT_DEFAULT, ACCEPT_DEFAULT,
        "topaz",                     # second cluster has no prior: no defaults
        ACCEPT_DEFAULT,              # architecture falls back to the command
        "gram://topaz.fnal.gov:2119",
        ACCEPT_DEFAULT,              # jobmanager default comes from the schema
    ]
    session = Transcript(AnswerScript(answers, {"uname": "OSF1"}))
    config = configure(schema, session, prior=prior)
    assert "[1]: " in session.prompts[1]  # count default mirrors the prior
    names = [c.attributes["name"] for c in config.descendants("cluster")]
    assert names == ["samadams", "topaz"]
    topaz = config.children[1]
    assert topaz.attributes["architecture"] == "OSF1"
    assert topaz.find("gatekeeper").attributes["jobmanager"] == "fork"
    assert config.children[0] == prior.children[0]


# -- variables -----------------------------------------------------------------------

def test_set_and_ref():
    schema = read_tree(
        "<box cardinalityMin='1' cardinalityMax='1' owner='set,WHO,inquire'>"
        "<item cardinalityMin='2' cardinalityMax='2' keeper='ref,WHO'/>"
        "</box>")
    session = Transcript(AnswerScript(["alice"]))
    config = configure(schema, session)
    assert [i.attributes["keeper"] for i in config.children] == ["alice", "alice"]
    assert len(session.prompts) == 1  # ref asks nothing


def test_ref_before_set_is_unbound():
    schema = read_tree("<box x='ref,NOPE'/>")
    with pytest.raises(UnboundVar):
        configure(schema, AnswerScript([]))


def test_storage_golden_shares_admin_through_variable():
    config = _schema("storage_config_golden.xml")
    manager = config.attributes["manager"]
    for pool in config.descendants("pool"):
        assert pool.attributes["admin_contact"] == manager


# -- cardinality ------------------------------------------------------------------

def test_fixed_cardinality_asks_no_count():
    schema = read_tree("<a><b cardinalityMin='2' cardinalityMax='2' "
                       "name='inquire'/></a>")
    session = Transcript(AnswerScript(["one", "two"]))
    config = configure(schema, session)
    assert len(config.children) == 2
    assert all(not p.startswith("How many") for p in session.prompts)


def test_count_below_minimum():
    schema = read_tree("<a><b cardinalityMin='1' name='fixedname'/></a>")
    with pytest.raises(CardinalityViolation):
        configure(schema, AnswerScript([Count(0)]))


def test_count_above_maximum():
    schema = read_tree("<a><b cardinalityMin='0' cardinalityMax='2'/></a>")
    with pytest.raises(CardinalityViolation):
        configure(schema, AnswerScript([Count(3)]))


def test_bad_cardinality_bounds():
    with pytest.raises(CardinalityViolation):
        configure(read_tree("<a><b cardinalityMin='3' cardinalityMax='1'/></a>"),
                  AnswerScript([]))
    with pytest.raises(CardinalityViolation):
        configure(read_tree("<a><b cardinalityMin='lots'/></a>"),
                  AnswerScript([]))
    with pytest.raises(CardinalityViolation):
        configure(read_tree("<a><b cardinalityMin='-1'/></a>"),
                  AnswerScript([]))


@pytest.mark.parametrize("attr", ["cardinalityMin", "cardinalityMax"])
@pytest.mark.parametrize("spelled", ["\u0663", "1_0", "-1", "+1", "01", "1e1", "2.0"])
def test_a_cardinality_is_a_whole_number_as_json_spells_it(attr, spelled):
    # read by `wire.number_text`: int() took the first two as 3 and 10
    schema = read_tree(f"<a><b {attr}='{spelled}'/></a>")
    with pytest.raises(CardinalityViolation) as exc:
        configure(schema, AnswerScript([Count(3)]))
    assert str(exc.value) == f"b: {attr}={spelled!r} is not a whole number"


def test_a_cardinality_padded_with_spaces_reads():
    schema = read_tree("<a><b cardinalityMin=' 2 ' cardinalityMax='2 '/></a>")
    assert len(configure(schema, AnswerScript([])).children) == 2


# -- element renaming and attribute splicing -----------------------------------------

def test_element_name_attr_renames_output():
    schema = read_tree("<slot elementName='inquire' kind='fixedkind'/>")
    config = configure(schema, AnswerScript(["widget"]))
    assert config.element_name == "widget"
    assert config.attributes == {"kind": "fixedkind"}


def test_attribute_elements_splice_into_parent():
    schema = read_tree(
        "<e>"
        "<attribute cardinalityMin='0' name='inquire' value='inquire'/>"
        "</e>")
    config = configure(schema, AnswerScript([Count(2), "a", "1", "b", "2"]))
    assert config == TreeNode("e", {"a": "1", "b": "2"})


def test_spliced_attribute_collision():
    schema = read_tree(
        "<e>"
        "<attribute cardinalityMin='0' name='inquire' value='inquire'/>"
        "</e>")
    with pytest.raises(DuplicateAttribute):
        configure(schema, AnswerScript([Count(2), "a", "1", "a", "2"]))


def test_attribute_element_must_resolve_name_and_value():
    schema = read_tree(
        "<e><attribute cardinalityMin='1' cardinalityMax='1' name='only'/></e>")
    with pytest.raises(ConfigureError):
        configure(schema, AnswerScript([]))


# -- terminal sessions ----------------------------------------------------------------

def test_interactive_input(monkeypatch, capsys):
    fed = iter(["", "typed", "oops", "\u0663", "1_0", "-4", "4", ""])
    monkeypatch.setattr("builtins.input", lambda prompt: next(fed))
    session = InteractiveInput()
    assert session.next_text("q? ", "dflt") == "dflt"
    assert session.next_text("q? ", None) == "typed"
    # the count question repeats until it gets a whole number
    assert session.next_count("n? ", 1) == 4
    assert "whole number" in capsys.readouterr().out
    assert session.next_count("n? ", 7) == 7


def test_interactive_input_eof(monkeypatch):
    def closed(prompt):
        raise EOFError

    monkeypatch.setattr("builtins.input", closed)
    with pytest.raises(AnswerExhausted):
        InteractiveInput().next_text("q? ", None)


def test_interactive_exec_default_runs_commands():
    session = InteractiveInput()
    assert session.exec_default("echo hello") == "hello"
    assert session.exec_default("exit 3") == ""


def test_interactive_session_end_to_end(monkeypatch):
    schema = read_tree("<e cardinalityMin='1' cardinalityMax='1' "
                       "greeting='inquire-default,exec,echo hi'>"
                       "<sub cardinalityMin='0' tag='inquire'/></e>")
    fed = iter(["", "1", "tagged"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(fed))
    config = configure(schema, InteractiveInput())
    assert config == TreeNode("e", {"greeting": "hi"},
                              [TreeNode("sub", {"tag": "tagged"})])
