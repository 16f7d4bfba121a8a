import json

import pytest

from mananets import (EMPTY, DocumentError, ManaPolicy, ManaState, Multiset, Net,
                      emit_json, graph_to_json_dict, mana_reach, parse_document,
                      parse_json, parse_reaction_dsl, validate_net)
from mananets.documents import NetDocument
from mananets.multiset import COUNT_MAX

ATP_JSON = """\
{
  "marking": {
    "ATP": 2,
    "H2O": 1
  },
  "places": [
    "ADP",
    "ATP",
    "H2O",
    "Pi"
  ],
  "transitions": {
    "hydrolysis": {
      "post": {
        "ADP": 1,
        "Pi": 1
      },
      "pre": {
        "ATP": 1,
        "H2O": 1
      }
    }
  }
}
"""


def test_parse_atp_document():
    doc = parse_json(ATP_JSON)
    assert len(doc.net.places) == 4
    assert doc.net.transitions == ("hydrolysis",)
    assert doc.marking == Multiset({"ATP": 2, "H2O": 1})
    assert doc.policy is None and doc.pool is None


def test_emit_is_byte_exact_on_canonical_input():
    assert emit_json(parse_json(ATP_JSON)) == ATP_JSON


def test_minimal_document():
    doc = parse_json('{"places": [], "transitions": {}}')
    assert doc.net == Net.build([], {})


def test_unknown_top_level_key_rejected():
    with pytest.raises(DocumentError) as err:
        parse_json('{"places": [], "transitions": {}, "extras": 1}')
    assert err.value.path == "$.extras"


def test_unknown_transition_key_rejected():
    with pytest.raises(DocumentError) as err:
        parse_json('{"places": [], "transitions": {"u": {"pre": {}, "post": {}, "x": 1}}}')
    assert "$.transitions.u.x" == err.value.path


def test_pool_for_unknown_transition_rejected():
    with pytest.raises(DocumentError) as err:
        parse_json('{"places": [], "transitions": {}, "pool": {"ghost": 1}}')
    assert "ghost" in str(err.value)


def test_marking_for_unknown_place_rejected():
    with pytest.raises(DocumentError) as err:
        parse_json('{"places": ["A"], "transitions": {}, "marking": {"B": 2}}')
    assert err.value.path == "$.marking.B"


def test_non_positive_counts_rejected():
    with pytest.raises(DocumentError):
        parse_json('{"places": ["A"], "transitions": '
                   '{"u": {"pre": {"A": 0}, "post": {}}}}')
    with pytest.raises(DocumentError):
        parse_json('{"places": ["A"], "transitions": '
                   '{"u": {"pre": {"A": -2}, "post": {}}}}')


def test_json_syntax_error_has_position():
    with pytest.raises(DocumentError) as err:
        parse_json("{\n  broken\n}")
    assert err.value.line == 2


def test_mana_block_roundtrip():
    doc = parse_json(json.dumps({
        "places": ["A"],
        "transitions": {"u": {"pre": {"A": 1}, "post": {}},
                        "v": {"pre": {}, "post": {"A": 1}}},
        "mana": {"u": {"consume": 2, "produce": {"v": 1}}},
    }))
    assert doc.policy.consume == {"u": 2, "v": 1}  # v defaults to plain
    assert doc.policy.produce["u"] == Multiset({"v": 1})
    assert emit_json(parse_json(emit_json(doc))) == emit_json(doc)


def test_mana_for_unknown_transition_rejected():
    with pytest.raises(DocumentError) as err:
        parse_json('{"places": [], "transitions": {}, "mana": {"u": {"consume": 1}}}')
    assert err.value.path == "$.mana.u"


def test_consume_zero_allowed():
    doc = parse_json('{"places": [], "transitions": '
                     '{"u": {"pre": {}, "post": {}}}, '
                     '"mana": {"u": {"consume": 0}}}')
    assert doc.policy.consume["u"] == 0


def test_consume_at_the_count_bound_allowed_and_above_rejected():
    def document(consume):
        return ('{"places": [], "transitions": {"u": {"pre": {}, "post": {}}}, '
                f'"mana": {{"u": {{"consume": {consume}}}}}}}')

    assert parse_json(document(COUNT_MAX)).policy.consume["u"] == COUNT_MAX
    with pytest.raises(DocumentError) as err:
        parse_json(document(COUNT_MAX + 1))
    assert err.value.path == "$.mana.u.consume"
    assert "exceeds the bound" in err.value.message


def test_explicit_empty_pool_is_preserved():
    text = ('{\n  "places": [],\n  "pool": {},\n  "transitions": {}\n}\n')
    doc = parse_json(text)
    assert doc.pool == EMPTY
    assert '"pool": {}' in emit_json(doc)


# -- reaction DSL -----------------------------------------------------------


def test_dsl_hydrolysis_line():
    doc = parse_reaction_dsl("hydrolysis: ATP + H2O -> ADP + Pi")
    assert doc.net.pre["hydrolysis"] == Multiset({"ATP": 1, "H2O": 1})
    assert doc.net.post["hydrolysis"] == Multiset({"ADP": 1, "Pi": 1})
    assert doc.policy is None


def test_dsl_mana_and_pool():
    doc = parse_reaction_dsl("u: A + B -> C mana: consume 1\npool: u=2\nmarking: A + B")
    assert doc.policy.consume["u"] == 1
    assert doc.pool == Multiset({"u": 2})
    assert doc.marking == Multiset({"A": 1, "B": 1})


def test_dsl_catalyst():
    doc = parse_reaction_dsl("u3: X -> Y mana: consume 1, produce {u3:1}")
    assert doc.policy.consume["u3"] == 1
    assert doc.policy.produce["u3"] == Multiset({"u3": 1})


def test_dsl_coefficients_and_repeats():
    doc = parse_reaction_dsl("u: 2 A + B + A -> 3 C\nmarking: 2 ATP + H2O")
    assert doc.net.pre["u"] == Multiset({"A": 3, "B": 1})
    assert doc.net.post["u"] == Multiset({"C": 3})
    assert doc.marking == Multiset({"ATP": 2, "H2O": 1})


def test_dsl_empty_sides():
    doc = parse_reaction_dsl("spawn: 0 -> A\ndrain: A -> 0")
    assert doc.net.pre["spawn"] == EMPTY
    assert doc.net.post["drain"] == EMPTY


def test_dsl_empty_side_before_mana_clause():
    doc = parse_reaction_dsl("u4: p4 -> 0 mana: consume 1, produce {u4:2}")
    assert doc.net.post["u4"] == EMPTY
    assert doc.policy.produce["u4"] == Multiset({"u4": 2})


def test_dsl_comments_and_blank_lines():
    doc = parse_reaction_dsl("# a comment\n\nu: A -> B  # trailing\n")
    assert doc.net.transitions == ("u",)


def test_dsl_line_and_column_diagnostics():
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("u: A -> B\nv: A !! B")
    assert err.value.line == 2
    assert err.value.col == 6

    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("pool: ghost=1")
    assert err.value.line == 1

    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("u: A -> B\nu: A -> B")
    assert err.value.line == 2


def test_dsl_duplicate_state_lines_rejected():
    with pytest.raises(DocumentError):
        parse_reaction_dsl("marking: A\nmarking: A")
    with pytest.raises(DocumentError):
        parse_reaction_dsl("u: A -> B\npool: u=1\npool: u=2")


def test_dsl_forward_produce_reference():
    doc = parse_reaction_dsl("u: A -> B mana: consume 1, produce {v:1}\nv: B -> A")
    assert doc.policy.produce["u"] == Multiset({"v": 1})


def test_dsl_unknown_produce_target():
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("u: A -> B mana: consume 1, produce {ghost:1}")
    assert "ghost" in str(err.value)


@pytest.mark.parametrize("text", [
    "hydrolysis: ATP + H2O -> ADP + Pi",
    "u: A + B -> C mana: consume 1\npool: u=2",
    "u3: X -> Y mana: consume 1, produce {u3:1}",
    "a: 0 -> X\nb: X -> 0 mana: consume 2, produce {a:1}\nmarking: 3 X",
])
def test_dsl_output_is_valid(text):
    doc = parse_reaction_dsl(text)
    assert validate_net(doc.net) == []
    if doc.policy is not None:
        from mananets import validate_policy
        assert validate_policy(doc.net, doc.policy) == []


def test_parse_document_dispatches():
    assert parse_document(ATP_JSON).net.transitions == ("hydrolysis",)
    assert parse_document("u: A -> B").net.transitions == ("u",)
    assert parse_document(ATP_JSON.encode()).marking is not None


def test_emit_skips_absent_sections(abc_net):
    text = emit_json(NetDocument(abc_net))
    assert "marking" not in text and "pool" not in text and "mana" not in text


def test_emit_includes_policy(abc_net):
    text = emit_json(NetDocument(abc_net, ManaPolicy.plain(abc_net)))
    assert '"mana"' in text and '"consume": 1' in text


@pytest.mark.parametrize("text, path", [
    ('{"places": [], "places": [], "transitions": {}}', "$.places"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "post": {}}, '
     '"u": {"pre": {"A": 1}, "post": {}}}}', "$.transitions.u"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "pre": {}, "post": {}}}}',
     "$.transitions.u.pre"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {"A": 1, "A": 2}, "post": {}}}}',
     "$.transitions.u.pre.A"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "post": {}}}, '
     '"mana": {"u": {"consume": 1}, "u": {"consume": 2}}}', "$.mana.u"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "post": {}}}, '
     '"mana": {"u": {"consume": 1, "consume": 2}}}', "$.mana.u.consume"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "post": {}}}, '
     '"mana": {"u": {"produce": {"u": 1, "u": 1}}}}', "$.mana.u.produce.u"),
    ('{"places": ["A"], "transitions": {}, "marking": {"A": 1, "A": 3}}', "$.marking.A"),
    ('{"places": ["A"], "transitions": {"u": {"pre": {}, "post": {}}}, '
     '"pool": {"u": 1, "u": 2}}', "$.pool.u"),
])
def test_duplicate_keys_rejected_with_path(text, path):
    with pytest.raises(DocumentError) as err:
        parse_json(text)
    assert err.value.path == path
    assert "duplicate key" in err.value.message


def test_dsl_zero_coefficient_before_name_rejected():
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("a: A -> B\nu: 0 X + Y -> Z")
    assert err.value.line == 2
    assert err.value.col == 4
    assert "zero coefficient" in str(err.value)

    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl("u: A -> B + 0 C")
    assert (err.value.line, err.value.col) == (1, 13)

    with pytest.raises(DocumentError):
        parse_reaction_dsl("u: A -> B\nmarking: 0 A")


def test_dsl_bare_zero_is_still_the_empty_side():
    doc = parse_reaction_dsl("u: 0 -> Z\nv: Z -> 0\nmarking: 0")
    assert doc.net.pre["u"] == EMPTY
    assert doc.net.post["v"] == EMPTY
    assert doc.marking == EMPTY
    assert doc.net.places == ("Z",)


@pytest.mark.parametrize("text, where", [
    ("u: A -> B\npool: u=0", (2, 9)),
    ("u: A -> B\npool: u=1 v=0", (2, 13)),
    ("u: A -> B mana: consume 1, produce {u:0}", (1, 39)),
    ("u: A -> B mana: consume 1, produce {u:1, u:0}", (1, 44)),
], ids=["pool", "pool-second", "produce", "produce-second"])
def test_dsl_zero_pool_and_produce_counts_rejected(text, where):
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl(text)
    assert (err.value.line, err.value.col) == where
    assert err.value.message == "counts must be positive integers"


def test_dsl_consume_zero_allowed():
    doc = parse_reaction_dsl("u: A -> B mana: consume 0, produce {u:1}\npool: u=1")
    assert doc.policy.consume["u"] == 0
    assert doc.policy.produce["u"] == doc.pool == Multiset({"u": 1})


def test_dsl_consume_above_the_count_bound_rejected():
    doc = parse_reaction_dsl(f"u: A -> B mana: consume {COUNT_MAX}")
    assert doc.policy.consume["u"] == COUNT_MAX
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl(f"a: A -> B\nu: A -> B mana: consume {COUNT_MAX + 1}")
    assert (err.value.line, err.value.col) == (2, 25)
    assert "exceeds the bound" in err.value.message


BIG = COUNT_MAX + 1


@pytest.mark.parametrize("document, path", [
    ({"places": ["A"], "transitions": {"u": {"pre": {"A": BIG}, "post": {}}}},
     "$.transitions.u.pre.A"),
    ({"places": ["A"], "transitions": {"u": {"pre": {}, "post": {"A": BIG}}}},
     "$.transitions.u.post.A"),
    ({"places": ["A"], "transitions": {}, "marking": {"A": BIG}}, "$.marking.A"),
    ({"places": [], "transitions": {"u": {"pre": {}, "post": {}}}, "pool": {"u": BIG}},
     "$.pool.u"),
    ({"places": [], "transitions": {"u": {"pre": {}, "post": {}}},
      "mana": {"u": {"produce": {"u": BIG}}}}, "$.mana.u.produce.u"),
])
def test_json_count_above_the_bound_names_its_path(document, path):
    with pytest.raises(DocumentError) as err:
        parse_json(json.dumps(document))
    assert err.value.path == path
    assert err.value.message == f"count for {path.rsplit('.', 1)[1]!r} exceeds the bound: {BIG}"
    at_bound = json.dumps(document).replace(str(BIG), str(COUNT_MAX))
    parse_json(at_bound)


@pytest.mark.parametrize("text, symbol, total, where", [
    (f"u: {BIG} A -> B", "A", BIG, (1, 4)),
    (f"u: A -> {COUNT_MAX} B + B", "B", BIG, (1, 33)),
    (f"u: A -> B\nmarking: {COUNT_MAX} A + 2 A", "A", COUNT_MAX + 2, (2, 34)),
    (f"u: A -> B\npool: u={BIG}", "u", BIG, (2, 9)),
    (f"u: A -> B mana: consume 1, produce {{u: {COUNT_MAX}, u: 1}}", "u", BIG, (1, 64)),
])
def test_dsl_count_above_the_bound_names_its_term(text, symbol, total, where):
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl(text)
    assert (err.value.line, err.value.col) == where
    assert err.value.message == f"count for {symbol!r} exceeds the bound: {total}"


def test_dsl_counts_at_the_bound_allowed():
    doc = parse_reaction_dsl(f"u: {COUNT_MAX} A -> {COUNT_MAX - 1} B + B\n"
                             f"marking: {COUNT_MAX} A\npool: u={COUNT_MAX}")
    assert doc.net.pre["u"]["A"] == doc.net.post["u"]["B"] == COUNT_MAX
    assert doc.marking["A"] == doc.pool["u"] == COUNT_MAX


@pytest.mark.parametrize("data, message, path", [
    pytest.param("[]", "document must be a JSON object", "$", id="not-an-object"),
    pytest.param('{"places": "A", "transitions": {}}',
                 "'places' must be a list of strings", "$.places", id="places-not-a-list"),
    pytest.param('{"places": ["A", "B", "A"], "transitions": {}}',
                 "duplicate place 'A'", "$.places", id="duplicate-place"),
    pytest.param(b'{"places": ["\xff"], "transitions": {}}',
                 "document is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 13: invalid start byte", None, id="not-utf-8"),
    pytest.param('{"places": []}', "document needs 'places' and 'transitions'", "$",
                 id="no-transitions"),
    pytest.param('{"places": [], "transitions": []}', "'transitions' must be an object",
                 "$.transitions", id="transitions-not-an-object"),
    pytest.param('{"places": [], "transitions": {"u": 1}}', "transition must be an object",
                 "$.transitions.u", id="transition-not-an-object"),
    pytest.param('{"places": [], "transitions": {"u": {"pre": {}}}}', "missing key 'post'",
                 "$.transitions.u", id="missing-post"),
    pytest.param('{"places": [], "transitions": {"u": {"pre": [], "post": {}}}}',
                 "multiset must be an object", "$.transitions.u.pre", id="pre-not-an-object"),
    pytest.param('{"places": [], "transitions": {}, "mana": []}', "'mana' must be an object",
                 "$.mana", id="mana-not-an-object"),
    pytest.param('{"places": [], "transitions": {"u": {"pre": {}, "post": {}}}, '
                 '"mana": {"u": 1}}', "mana entry must be an object", "$.mana.u",
                 id="mana-entry-not-an-object"),
    pytest.param('{"places": [], "transitions": {"u": {"pre": {}, "post": {}}}, '
                 '"mana": {"u": {"cost": 1}}}', "unknown key 'cost'", "$.mana.u.cost",
                 id="unknown-mana-key"),
    pytest.param('{"places": [], "transitions": {"u": {"pre": {}, "post": {}}}, '
                 '"mana": {"u": {"consume": -1}}}', "'consume' must be a non-negative integer",
                 "$.mana.u.consume", id="negative-consume"),
])
def test_json_document_rejections_are_pinned(data, message, path):
    with pytest.raises(DocumentError) as err:
        parse_json(data)
    assert (err.value.message, err.value.path, err.value.line, err.value.col) == \
        (message, path, None, None)
    assert str(err.value) == message + ("" if path is None else f" at {path}")


@pytest.mark.parametrize("text, message, line, col", [
    pytest.param("u: A ->", "unexpected end of line", 1, 6, id="end-of-line"),
    pytest.param("u: A B", "expected '->', found 'B'", 1, 6, id="no-arrow"),
    pytest.param("u: A -> B\npool: u=1 u=2", "duplicate pool entry 'u'", 2, 11,
                 id="duplicate-pool-entry"),
    pytest.param("u: A -> B cost: consume 1", "expected 'mana:', found 'cost'", 1, 11,
                 id="not-a-mana-clause"),
    pytest.param("u: A -> B mana: consume 1, make {u: 1}", "expected 'produce', found 'make'",
                 1, 28, id="not-a-produce-clause"),
    pytest.param("marking: A B", "unexpected trailing input 'B'", 1, 12, id="trailing-input"),
])
def test_dsl_rejections_are_pinned(text, message, line, col):
    with pytest.raises(DocumentError) as err:
        parse_reaction_dsl(text)
    assert (err.value.message, err.value.path, err.value.line, err.value.col) == \
        (message, None, line, col)


def test_a_mana_graph_is_written_with_marking_and_pool():
    net = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1})})
    root = ManaState(Multiset({"A": 1}), Multiset({"u": 1}))
    graph = mana_reach(net, ManaPolicy.plain(net), root, 3, 5)
    assert graph_to_json_dict(graph) == {
        "root": 0,
        "nodes": [{"marking": {"A": 1}, "pool": {"u": 1}}, {"marking": {"B": 1}, "pool": {}}],
        "edges": [[0, "u", 1]],
        "depth_bound": 3,
        "token_bound": 5,
        "truncated": False,
    }
