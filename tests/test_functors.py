import pytest

from mananets import (EMPTY, Multiset, Net, NotEnabledError, PresentedFunctor, Trace,
                      Violation, apply_functor, apply_functor_to_marking,
                      compose_functors, functors_equal, identity_functor,
                      lift_functor, run_trace, validate_functor)
from mananets import functors
from mananets.functors import compare_functors


@pytest.fixture
def doubling_functor(abc_net):
    """Maps u to a two-step simulation in a chain net."""
    chain = Net.build(["X", "Y", "Z"], {
        "s1": ({"X": 1}, {"Y": 1}),
        "s2": ({"Y": 1}, {"Z": 1}),
    })
    return PresentedFunctor(
        abc_net, chain,
        {"A": Multiset({"X": 1}), "B": EMPTY, "C": Multiset({"Z": 1})},
        {"u": Trace(chain, Multiset({"X": 1}), ("s1", "s2"))},
    )


def test_identity_functor_fixes_traces(abc_net, ms):
    ident = identity_functor(abc_net)
    trace = Trace(abc_net, ms(A=1, B=1), ("u",))
    assert apply_functor(ident, trace) == trace
    assert validate_functor(ident) == []


def test_two_step_image_replayed(doubling_functor, ms):
    assert validate_functor(doubling_functor) == []
    trace = Trace(doubling_functor.source, ms(A=1, B=1), ("u",))
    image = apply_functor(doubling_functor, trace)
    assert image.steps == ("s1", "s2")
    assert image.initial == ms(X=1)
    # replay oracle: the image goes where the lifted endpoints say
    assert run_trace(image) == apply_functor_to_marking(doubling_functor, run_trace(trace))


def test_constant_unit_functor_collapses(abc_net, ms):
    target = Net.build([], {})
    collapse = PresentedFunctor(
        abc_net, target,
        {p: EMPTY for p in abc_net.places},
        {"u": Trace(target, EMPTY, ())},
    )
    assert validate_functor(collapse) == []
    image = apply_functor(collapse, Trace(abc_net, ms(A=1, B=1), ("u",)))
    assert image == Trace(target, EMPTY, ())


def test_apply_preserves_endpoints_on_longer_traces(doubling_functor, ms):
    trace = Trace(doubling_functor.source, ms(A=2, B=2), ("u", "u"))
    image = apply_functor(doubling_functor, trace)
    assert image.initial == apply_functor_to_marking(doubling_functor, trace.initial)
    assert run_trace(image) == apply_functor_to_marking(doubling_functor, run_trace(trace))


def test_compose_with_identity(doubling_functor):
    left = compose_functors(identity_functor(doubling_functor.target), doubling_functor)
    right = compose_functors(doubling_functor, identity_functor(doubling_functor.source))
    assert functors_equal(left, doubling_functor) is True
    assert functors_equal(right, doubling_functor) is True


def test_functors_equal_detects_object_mismatch(abc_net):
    ident = identity_functor(abc_net)
    tweaked = PresentedFunctor(
        abc_net, abc_net,
        {**ident.object_map, "A": EMPTY},
        ident.morphism_map,
    )
    assert functors_equal(ident, tweaked) is False


def test_validate_functor_catches_endpoint_mismatch(abc_net, ms):
    broken = PresentedFunctor(
        abc_net, abc_net,
        {p: Multiset({p: 1}) for p in abc_net.places},
        {"u": Trace(abc_net, ms(A=1, B=1), ())},  # stays put instead of reaching C
    )
    problems = validate_functor(broken)
    assert any(v.kind == "endpoint-mismatch" for v in problems)


def test_validate_functor_reports_unmapped_and_unknown_generators(abc_net, doubling_functor):
    # C has no image, B's names a place the chain lacks, and u has no trace.
    partial = PresentedFunctor(abc_net, doubling_functor.target,
                               {"A": Multiset({"X": 1}), "B": Multiset({"Q": 1})}, {})
    assert validate_functor(partial) == [
        Violation("unknown-target-place", "Q", "image of B"),
        Violation("unmapped-place", "C"),
        Violation("unmapped-transition", "u"),
    ]


def test_validate_functor_catches_a_source_marking_mismatch(doubling_functor, ms):
    chain = doubling_functor.target
    short = PresentedFunctor(doubling_functor.source, chain, doubling_functor.object_map,
                             {"u": Trace(chain, ms(X=1, Y=1), ("s1", "s2"))})
    assert validate_functor(short) == [Violation("endpoint-mismatch", "u", "source marking")]


def test_validate_functor_stops_at_a_malformed_net():
    # Every map is empty, but a malformed boundary net ends the check.
    twice = Net.build(["A", "A"], {})
    dangling = Net.build(["A"], {"u": ({"Z": 1}, {})})
    assert validate_functor(PresentedFunctor(dangling, twice, {}, {})) == [
        Violation("unknown-place", "Z", "source net: pre of u"),
        Violation("duplicate-place", "A", "target net"),
    ]


def with_image_on(functor, net):
    """`functor` with its image of u moved, steps unchanged, onto `net`."""
    image = functor.morphism_map["u"]
    return PresentedFunctor(functor.source, functor.target, functor.object_map,
                            {"u": Trace(net, image.initial, image.steps)})


def test_image_on_another_net_is_rejected(doubling_functor):
    # The functor algebra reads every image trace on the target net, so an
    # image living elsewhere (validate_functor's wrong-net) raises instead
    # of getting a verdict computed on a net the caller did not give.
    elsewhere = Net.build(["X", "Y", "Z"], {
        "s1": ({"X": 1}, {"Y": 1}),
        "s2": ({"Y": 1}, {"Z": 2}),
    })
    bad = with_image_on(doubling_functor, elsewhere)
    assert [v.kind for v in validate_functor(bad)] == ["wrong-net"]
    message = "image trace of 'u' lives on a different net than the target"
    for call in (lambda: compare_functors(bad, doubling_functor),
                 lambda: compare_functors(doubling_functor, bad),
                 lambda: functors_equal(bad, bad),
                 lambda: compose_functors(identity_functor(bad.target), bad),
                 lambda: compose_functors(bad, identity_functor(bad.source)),
                 lambda: lift_functor(bad)):
        with pytest.raises(ValueError, match=message):
            call()


def test_image_on_an_equal_net_is_accepted(doubling_functor):
    copy = Net.build(["X", "Y", "Z"], {
        "s1": ({"X": 1}, {"Y": 1}),
        "s2": ({"Y": 1}, {"Z": 1}),
    })
    assert copy is not doubling_functor.target
    same = with_image_on(doubling_functor, copy)
    assert validate_functor(same) == []
    assert compare_functors(same, doubling_functor) == (True, None)


def test_apply_functor_reads_only_the_images_it_fires(abc_net, ms):
    # apply_functor takes each firing's steps from its image; an image the
    # trace never fires is not looked at, and a missing one is a KeyError.
    ident = identity_functor(abc_net)
    partial = PresentedFunctor(abc_net, abc_net, ident.object_map, {})
    assert apply_functor(partial, Trace(abc_net, ms(A=1), ())) == Trace(abc_net, ms(A=1), ())
    with pytest.raises(KeyError, match="no image for transition 'u'"):
        apply_functor(partial, Trace(abc_net, ms(A=1, B=1), ("u",)))


def with_image(functor, start, steps):
    """`functor` with its image of u replaced by `steps` from `start`."""
    return PresentedFunctor(functor.source, functor.target, functor.object_map,
                            {"u": Trace(functor.target, start, steps)})


def test_identical_image_that_cannot_fire_raises(abc_net, ms):
    # One image on both sides is settled by replaying it, so an image
    # that cannot fire raises as trace_equivalent does, with its index.
    stuck = with_image(identity_functor(abc_net), ms(A=1, B=1), ("u", "u"))
    for right in (stuck, with_image(stuck, ms(A=1, B=1), ("u", "u"))):
        with pytest.raises(NotEnabledError) as err:
            compare_functors(stuck, right)
        assert (err.value.transition, err.value.index) == ("u", 1)


def test_identical_steps_from_different_starts_differ(abc_net, ms):
    ident = identity_functor(abc_net)
    padded = with_image(ident, ms(A=1, B=1, C=1), ("u",))
    assert compare_functors(ident, padded) == (False, {
        "kind": "morphism", "generator": "u",
        "left": {"initial": {"A": 1, "B": 1}, "steps": ["u"]},
        "right": {"initial": {"A": 1, "B": 1, "C": 1}, "steps": ["u"]}})


def test_every_image_pair_goes_to_trace_equivalent(ms, monkeypatch):
    source = Net.build(["A", "C"], {"u": ({"A": 1}, {"C": 1})})
    target = Net.build(["X", "Y", "Z", "W"], {
        "s1": ({"X": 1}, {"Z": 1}),
        "s2": ({"Y": 1}, {"W": 1}),
    })
    objects = {"A": ms(X=1, Y=1), "C": ms(Z=1, W=1)}
    left = PresentedFunctor(source, target, objects,
                            {"u": Trace(target, ms(X=1, Y=1), ("s1", "s2"))})
    right = with_image(left, ms(X=1, Y=1), ("s2", "s1"))
    calls = []
    real = functors.trace_equivalent

    def spy(t1, t2):
        calls.append((t1.steps, t2.steps, t1 is t2))
        return real(t1, t2)

    monkeypatch.setattr(functors, "trace_equivalent", spy)
    assert compare_functors(left, right) == (True, None)
    # An identical pair, also from a distinct but equal image, is one trace.
    assert compare_functors(left, with_image(left, ms(X=1, Y=1), ("s1", "s2"))) == (True, None)
    assert calls == [(("s1", "s2"), ("s2", "s1"), False), (("s1", "s2"), ("s1", "s2"), True)]
