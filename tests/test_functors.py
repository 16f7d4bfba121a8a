import pytest

from mananets import (EMPTY, Multiset, Net, PresentedFunctor, Trace,
                      apply_functor, apply_functor_to_marking,
                      compose_functors, functors_equal, identity_functor,
                      lift_functor, run_trace, validate_functor)
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
