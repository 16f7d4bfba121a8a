"""The firing rule on ``Multiset`` markings, the reference for the library's firing.

``fire``, ``replay``, ``run_trace``, ``trace_equivalent`` and the law
checks all fire on count dicts, through one walk in
``mananets.execution``. The functions here fire with ``Multiset.minus``
and ``+`` instead, so that the tests can check every entry point against
a second coding: the same result, or the same exception type and args at
the same step.
"""

from mananets import NotEnabledError


def reference_fire(net, marking, transition):
    """Fire one transition atomically; raises NotEnabledError if blocked."""
    pre, post = net.arcs(transition)
    rest = marking.minus(pre)
    if rest is None:
        raise NotEnabledError(transition)
    return rest + post


def reference_replay(trace):
    """All intermediate markings, from the initial one to the final one."""
    markings = [trace.initial]
    for index, transition in enumerate(trace.steps):
        pre, post = trace.net.arcs(transition)
        rest = markings[-1].minus(pre)
        if rest is None:
            raise NotEnabledError(transition, index)
        markings.append(rest + post)
    return markings


def replays(trace) -> bool:
    """Whether the reference replays `trace` without a blocked step."""
    try:
        reference_replay(trace)
    except NotEnabledError:
        return False
    return True


def outcome(call, *args):
    """``("ok", result)`` of ``call(*args)``, or the type and args of what it raises."""
    try:
        return "ok", call(*args)
    except Exception as err:  # compared, not handled
        return type(err), err.args
