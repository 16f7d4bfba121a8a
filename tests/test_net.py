import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mananets import (COUNT_MAX, EMPTY, CountOverflowError, Multiset, Net,
                      NetMorphism, PresentedFunctor, UnknownSymbolError, compose_morphisms,
                      Violation, lift_multiset_map, validate_functor, validate_morphism,
                      validate_net)
from mananets.sampling import random_net, random_net_morphism


def kinds(violations):
    return [(v.kind, v.subject) for v in violations]


def test_atp_net_is_valid(atp_net):
    assert validate_net(atp_net) == []


def test_undeclared_place_reported():
    net = Net.build(["A"], {"u": ({"X": 1}, {"A": 1})})
    assert ("unknown-place", "X") in kinds(validate_net(net))


def test_place_transition_name_clash():
    net = Net.build(["u", "A"], {"u": ({"A": 1}, {})})
    assert ("name-clash", "u") in kinds(validate_net(net))


def test_duplicates_and_missing_arcs():
    net = Net(("A", "A"), ("u", "u"), {"u": Multiset()}, {})
    found = kinds(validate_net(net))
    assert ("duplicate-place", "A") in found
    assert ("duplicate-transition", "u") in found
    assert ("missing-post", "u") in found


def test_lift_identity():
    m = Multiset({"A": 2})
    assert lift_multiset_map({"A": "A"}, m) == m


def test_lift_merges_preimages():
    got = lift_multiset_map({"A": "P", "B": "P"}, Multiset({"A": 1, "B": 1}))
    assert got == Multiset({"P": 2})


def test_lift_against_pointwise_oracle():
    g = {"A": "P", "B": "Q"}
    m = Multiset({"A": 2, "B": 1})
    expected = {}
    for x, count in m.items():
        expected[g[x]] = expected.get(g[x], 0) + count
    assert lift_multiset_map(g, m) == Multiset(expected)


def test_lift_accepts_multiset_images():
    g = {"A": Multiset({"P": 2}), "B": Multiset()}
    assert lift_multiset_map(g, Multiset({"A": 1, "B": 3})) == Multiset({"P": 2})


def test_lift_of_nothing_is_the_shared_empty():
    assert lift_multiset_map({"A": "P"}, EMPTY) is EMPTY
    assert lift_multiset_map({"A": Multiset()}, Multiset({"A": 2})) is EMPTY


def test_lift_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        lift_multiset_map({"A": "P"}, Multiset({"B": 1}))


def reference_lift(mapping, m):
    """Scale each image, then fold the parts with Multiset.sum."""
    parts = []
    for symbol, count in m.items():
        if symbol not in mapping:
            raise UnknownSymbolError(symbol, "symbol map")
        image = mapping[symbol]
        if isinstance(image, str):
            image = Multiset({image: 1})
        parts.append(count * image)
    return Multiset.sum(parts) if parts else EMPTY


def lift_outcome(lift, mapping, m):
    try:
        return "ok", lift(mapping, m)
    except UnknownSymbolError as err:
        return "unknown", err.symbol, str(err)
    except CountOverflowError as err:
        return "overflow", err.symbol, err.count


lift_counts = st.one_of(st.integers(1, 3), st.integers(COUNT_MAX // 3, COUNT_MAX))
lift_targets = st.sampled_from(["P", "Q", "R"])
lift_images = st.one_of(
    lift_targets,
    st.dictionaries(lift_targets, lift_counts, max_size=3).map(Multiset))


# Multisets built from pairs keep the drawn order, so the unsorted walk of
# the lift meets their symbols out of symbol order.
unsorted_multisets = st.lists(st.tuples(st.sampled_from("ABCDE"), lift_counts),
                              unique_by=lambda pair: pair[0], max_size=5).map(Multiset)


@given(st.dictionaries(st.sampled_from("ABCD"), lift_images, max_size=4),
       unsorted_multisets)
# a scaled overflow, then a sum overflow, met before an unknown "A"
@example({"B": Multiset({"P": COUNT_MAX})}, Multiset([("B", 2), ("A", 1)]))
@example({"C": Multiset({"P": COUNT_MAX}), "B": "P"},
         Multiset([("C", 1), ("B", 1), ("A", 1)]))
# a sum overflow on "Q" met before a scaled overflow on "P" that sorts first
@example({"A": Multiset({"P": COUNT_MAX}), "C": "Q", "D": Multiset({"Q": COUNT_MAX})},
         Multiset([("C", 1), ("D", 1), ("A", 2)]))
# a sum overflow on "P" inside Multiset.sum of the reference
@example({"A": "P", "B": Multiset({"P": COUNT_MAX})}, Multiset({"A": 1, "B": 1}))
def test_lift_matches_parts_and_sum(mapping, m):
    assert lift_outcome(lift_multiset_map, mapping, m) == lift_outcome(reference_lift, mapping, m)


def test_lift_reports_unknowns_and_scaled_overflows_before_sum_overflow():
    half = COUNT_MAX // 2 + 1
    big = Multiset({"P": half})
    with pytest.raises(CountOverflowError) as err:
        lift_multiset_map({"A": big, "B": Multiset({"Q": 1, "P": half})},
                          Multiset({"A": 1, "B": 1}))
    assert (err.value.symbol, err.value.count) == ("P", 2 * half)
    with pytest.raises(UnknownSymbolError) as err:
        lift_multiset_map({"A": big, "B": big}, Multiset({"A": 1, "B": 1, "C": 1, "D": 1}))
    assert err.value.symbol == "C"
    with pytest.raises(CountOverflowError) as err:
        lift_multiset_map({"A": big, "B": big, "C": Multiset({"R": COUNT_MAX})},
                          Multiset({"A": 1, "B": 1, "C": 2}))
    assert (err.value.symbol, err.value.count) == ("R", 2 * COUNT_MAX)


@pytest.mark.parametrize("seed", range(5))
def test_lift_is_monoid_homomorphism(seed):
    rng = random.Random(seed)
    symbols = ["A", "B", "C"]
    g = {s: rng.choice(["P", "Q"]) for s in symbols}
    a = Multiset({s: rng.randint(0, 3) for s in symbols})
    b = Multiset({s: rng.randint(0, 3) for s in symbols})
    assert lift_multiset_map(g, a + b) == lift_multiset_map(g, a) + lift_multiset_map(g, b)


def test_identity_morphism_valid(atp_net):
    assert validate_morphism(NetMorphism.identity(atp_net)) == []


def test_collapsing_parallel_transitions_is_valid():
    source = Net.build(["A", "B"], {
        "u1": ({"A": 1}, {"B": 1}),
        "u2": ({"A": 1}, {"B": 1}),
    })
    target = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1})})
    morphism = NetMorphism(source, target,
                           {"u1": "u", "u2": "u"},
                           {"A": "A", "B": "B"})
    # oracle: both squares by direct multiset computation
    for t in source.transitions:
        assert lift_multiset_map(morphism.place_map, source.pre[t]) == target.pre["u"]
        assert lift_multiset_map(morphism.place_map, source.post[t]) == target.post["u"]
    assert validate_morphism(morphism) == []


def test_arity_mismatch_fails_square():
    source = Net.build(["A", "B", "C"], {"u": ({"A": 1, "B": 1}, {"C": 1})})
    target = Net.build(["X", "C"], {"w": ({"X": 1}, {"C": 1})})
    morphism = NetMorphism(source, target, {"u": "w"},
                           {"A": "X", "B": "X", "C": "C"})
    found = validate_morphism(morphism)
    assert ("square-fails", "u") in kinds(found)
    assert any(v.detail == "pre" for v in found)


def test_unmapped_and_unknown_targets():
    source = Net.build(["A"], {"u": ({"A": 1}, {})})
    target = Net.build(["B"], {"w": ({"B": 1}, {})})
    found = validate_morphism(NetMorphism(source, target, {}, {"A": "Z"}))
    assert ("unmapped-transition", "u") in kinds(found)
    assert ("unknown-target-place", "Z") in kinds(found)


def test_a_malformed_net_is_reported_with_its_side_and_nothing_else():
    # Every map is empty, but a malformed boundary net ends the check.
    twice = Net.build(["A", "A"], {})
    dangling = Net.build(["A"], {"u": ({"Z": 1}, {})})
    found = validate_morphism(NetMorphism(dangling, twice, {}, {}))
    assert found == [Violation("unknown-place", "Z", "source net: pre of u"),
                     Violation("duplicate-place", "A", "target net")]


@pytest.mark.parametrize("check", [
    lambda source, target: validate_morphism(NetMorphism(source, target, {}, {})),
    lambda source, target: validate_functor(PresentedFunctor(source, target, {}, {})),
], ids=["morphism", "functor"])
@pytest.mark.parametrize("name", ["t:", "t "], ids=["colon", "space"])
def test_a_nested_violation_keeps_its_whole_detail(check, name):
    # The detail of a boundary net's violation is prefixed by its side and
    # kept whole, so a transition name ending in ":" or " " survives; an
    # empty detail leaves the side alone.
    source = Net.build(["A", "A"], {name: ({"Z": 1}, {})})
    assert check(source, Net.build(["A"], {})) == [
        Violation("duplicate-place", "A", "source net"),
        Violation("unknown-place", "Z", f"source net: pre of {name}"),
    ]


def test_unmapped_places_and_unknown_target_transitions():
    source = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1})})
    target = Net.build(["X"], {"w": ({"X": 1}, {})})
    found = validate_morphism(NetMorphism(source, target, {"u": "nowhere"}, {"A": "X"}))
    assert found == [Violation("unmapped-place", "B"),
                     Violation("unknown-target-transition", "nowhere", "image of u")]


def test_post_square_fails_alone():
    source = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1})})
    target = Net.build(["X", "Y"], {"w": ({"X": 1}, {"Y": 2})})
    morphism = NetMorphism(source, target, {"u": "w"}, {"A": "X", "B": "Y"})
    assert validate_morphism(morphism) == [Violation("square-fails", "u", "post")]


def test_morphisms_that_do_not_meet_are_not_composed(atp_net):
    identity = NetMorphism.identity(atp_net)
    other = NetMorphism.identity(Net.build(["A"], {}))
    with pytest.raises(ValueError, match="morphisms are not composable"):
        compose_morphisms(other, identity)


@pytest.mark.parametrize("seed", range(20))
def test_random_morphisms_valid_and_composable(seed):
    rng = random.Random(seed)
    inner = random_net_morphism(rng, random_net(rng))
    assert validate_morphism(inner) == []
    outer = random_net_morphism(rng, inner.target)
    assert validate_morphism(outer) == []
    composite = compose_morphisms(outer, inner)
    assert validate_morphism(composite) == []


# -- validate_net against the full walk -----------------------------------------


def reference_validate_net(net):
    """validate_net as one walk over every invariant, with no well-formed shortcut."""
    out = []
    places = set(net.places)
    transitions = set(net.transitions)
    seen = set()
    for p in net.places:
        if p in seen:
            out.append(Violation("duplicate-place", p))
        seen.add(p)
    seen = set()
    for t in net.transitions:
        if t in seen:
            out.append(Violation("duplicate-transition", t))
        seen.add(t)
    for name in sorted(places & transitions):
        out.append(Violation("name-clash", name))
    for t in net.transitions:
        if t not in net.pre:
            out.append(Violation("missing-pre", t))
        if t not in net.post:
            out.append(Violation("missing-post", t))
    for key in sorted(set(net.pre) - transitions):
        out.append(Violation("unknown-transition", key, "pre"))
    for key in sorted(set(net.post) - transitions):
        out.append(Violation("unknown-transition", key, "post"))
    for side, arcs in (("pre", net.pre), ("post", net.post)):
        for t in sorted(arcs):
            for symbol in arcs[t].support():
                if symbol not in places:
                    out.append(Violation("unknown-place", symbol, f"{side} of {t}"))
    return out


def validation_outcome(validate, *args):
    try:
        return "ok", validate(*args)
    except Exception as err:  # the exception type is what is compared
        return "raises", type(err)


NET_FAULTS = ("duplicate-place", "duplicate-transition", "name-clash", "missing-pre",
              "missing-post", "unknown-pre-key", "unknown-post-key", "unknown-place",
              "plain-dict-arc")


@st.composite
def faulty_nets(draw):
    """A net over a few names with some of NET_FAULTS injected, in drawn order."""
    places = draw(st.lists(st.sampled_from("ABCD"), max_size=4, unique=True))
    transitions = draw(st.lists(st.sampled_from("uvw"), max_size=3, unique=True))
    arcs = (st.dictionaries(st.sampled_from(places), st.integers(1, 2), max_size=3)
            .map(Multiset) if places else st.just(EMPTY))
    pre = {t: draw(arcs) for t in transitions}
    post = {t: draw(arcs) for t in transitions}
    faults = draw(st.lists(st.sampled_from(NET_FAULTS), max_size=4))
    for fault in faults:
        if fault == "duplicate-place" and places:
            places.append(draw(st.sampled_from(places)))
        elif fault == "duplicate-transition" and transitions:
            transitions.append(draw(st.sampled_from(transitions)))
        elif fault == "name-clash" and transitions:
            places.append(draw(st.sampled_from(transitions)))
        elif fault in ("missing-pre", "missing-post"):
            side = pre if fault == "missing-pre" else post
            if side:
                del side[draw(st.sampled_from(sorted(side)))]
        elif fault in ("unknown-pre-key", "unknown-post-key"):
            side = pre if fault == "unknown-pre-key" else post
            side[draw(st.sampled_from("xyz"))] = draw(arcs)
        elif fault == "unknown-place":
            side = draw(st.sampled_from([pre, post]))
            if side:
                key = draw(st.sampled_from(sorted(side)))
                side[key] = side[key] + Multiset({draw(st.sampled_from("XYZ")): 1})
    if "plain-dict-arc" in faults:
        side = draw(st.sampled_from([pre, post]))
        if side:
            key = draw(st.sampled_from(sorted(side)))
            side[key] = side[key].as_dict()
    return Net(tuple(places), tuple(transitions), pre, post)


@given(faulty_nets())
@example(Net(("A",), ("u",), {"u": Multiset({"X": 1})}, {"u": EMPTY}))
@example(Net(("A", "u"), ("u",), {"u": EMPTY}, {"u": EMPTY}))
@example(Net(("A",), ("v", "u"), {"v": Multiset({"X": 1}), "u": Multiset({"Y": 1})},
             {"v": EMPTY, "u": EMPTY}))
def test_validate_net_matches_full_walk(net):
    got = validation_outcome(validate_net, net)
    assert got == validation_outcome(reference_validate_net, net)
