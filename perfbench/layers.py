"""Per-layer counters and spans, recorded from outside the library.

:class:`LayerTrace` replaces functions of the ``mananets`` modules with
wrappers while it is installed. Functions are looked up in module
globals at call time, so a function is replaced in every module
namespace that binds it (``reach`` in ``execution``, ``equivalence``,
``cli`` and the package). Span wrappers time a call and credit its
duration to the enclosing span as child time, so self time is the
duration minus the children's; a span nested in a span of the same name
is counted once in the inclusive time. The hot ``Multiset`` methods and
other small functions get wrappers that only count calls. Aggregates
are kept in memory; no span log is written.
"""

from __future__ import annotations

import sys
import time

#: (module, function, span name). Functions sharing a span name form one
#: layer total, e.g. both external law checkers make up external.laws.
SPANS = (
    ("cli", "main", "cli"),
    ("documents", "parse_document", "documents.parse"),
    ("documents", "graph_to_json_dict", "documents.emit"),
    ("execution", "explore", "execution.explore"),
    ("execution", "trace_equivalent", "execution.trace_equivalent"),
    ("external", "mana_reach", "external.mana_reach"),
    ("external", "check_functor_laws", "external.laws"),
    ("external", "check_laxator_naturality", "external.laws"),
    ("internal", "_construct", "internal.construct"),
    ("internal", "check_comonad_laws", "internal.comonad"),
    ("functors", "compare_functors", "functors.compare"),
    ("equivalence", "check_equivalence", "equivalence.check"),
    ("sampling", "random_multiset", "sampling"),
    ("sampling", "random_net", "sampling"),
    ("sampling", "random_policy", "sampling"),
    ("sampling", "random_marking", "sampling"),
    ("sampling", "random_state", "sampling"),
    ("sampling", "random_trace", "sampling"),
    ("sampling", "random_net_morphism", "sampling"),
)

#: (module, function, counter name) for call-count-only wrappers.
COUNTERS = (
    ("multiset", "_wrap", "multiset.allocs"),
    ("execution", "replay", "execution.replay_calls"),
    ("external", "mana_enabled", "external.mana_enabled_calls"),
    ("external", "mana_fire", "external.mana_fire_calls"),
    ("external", "span_of_trace", "external.span_of_trace_calls"),
    ("functors", "compose_functors", "functors.compose_calls"),
    ("equivalence", "state_to_object", "equivalence.state_to_object_calls"),
    ("net", "lift_multiset_map", "net.lift_multiset_map_calls"),
)

#: Multiset methods wrapped on the class, with their counter.
MULTISET_METHODS = (
    ("minus", "multiset.ops"),
    ("__add__", "multiset.ops"),
    ("__le__", "multiset.ops"),
    ("__init__", "multiset.allocs"),
)


class LayerTrace:
    """Wrappers on the loaded ``mananets`` modules, and what they recorded."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        names = {name for _, _, name in SPANS}
        self.counts = {name: 0 for _, _, name in COUNTERS}
        self.counts.update({name: 0 for _, name in MULTISET_METHODS})
        self.calls = dict.fromkeys(names, 0)
        self.inclusive = dict.fromkeys(names, 0.0)
        self.self_time = dict.fromkeys(names, 0.0)
        self.nodes = 0
        self.edges = 0
        self._open = dict.fromkeys(names, 0)
        self._stack: list[list[float]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, func):
        stack, calls, open_ = self._stack, self.calls, self._open
        inclusive, self_time = self.inclusive, self.self_time
        explore = name == "execution.explore"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                open_[name] -= 1
                if not open_[name]:
                    inclusive[name] += duration
                self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
            if explore:
                self.nodes += len(result.nodes)
                self.edges += len(result.edges)
            return result

        return wrapper

    def _counter(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for key, m in sorted(sys.modules.items())
                if key == "mananets" or key.startswith("mananets.")]

    def _replace_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Zero the records and wrap every traced function.

        The modules must already be imported. The wrappers hold the
        record dicts made here, so records are only zeroed on install.
        """
        if self._patches:
            raise RuntimeError("trace already installed")
        self._reset()
        mods = {m.__name__.rpartition(".")[2]: m for m in self._modules()}
        for module, func, name in SPANS:
            original = getattr(mods[module], func)
            self._replace_everywhere(original, self._span(name, original))
        for module, func, name in COUNTERS:
            original = getattr(mods[module], func)
            self._replace_everywhere(original, self._counter(name, original))
        multiset = mods["multiset"].Multiset
        for method, name in MULTISET_METHODS:
            original = multiset.__dict__[method]
            self._patches.append((multiset, method, original))
            setattr(multiset, method, self._counter(name, original))

    def uninstall(self):
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        ms = 1000.0
        c, inc = self.counts, self.inclusive
        return {
            "multiset.ops": c["multiset.ops"],
            "multiset.allocs": c["multiset.allocs"],
            "execution.explore_ms": inc["execution.explore"] * ms,
            "execution.nodes": self.nodes,
            "execution.edges": self.edges,
            "execution.trace_equivalent_ms": inc["execution.trace_equivalent"] * ms,
            "execution.trace_equivalent_calls": self.calls["execution.trace_equivalent"],
            "execution.replay_calls": c["execution.replay_calls"],
            "external.mana_reach_ms": inc["external.mana_reach"] * ms,
            "external.mana_enabled_calls": c["external.mana_enabled_calls"],
            "external.mana_fire_calls": c["external.mana_fire_calls"],
            "external.laws_ms": inc["external.laws"] * ms,
            "external.span_of_trace_calls": c["external.span_of_trace_calls"],
            "internal.construct_calls": self.calls["internal.construct"],
            "internal.construct_ms": inc["internal.construct"] * ms,
            "internal.comonad_ms": inc["internal.comonad"] * ms,
            "functors.compose_calls": c["functors.compose_calls"],
            "functors.compare_ms": inc["functors.compare"] * ms,
            "equivalence.check_ms": inc["equivalence.check"] * ms,
            "equivalence.map_ms": self.self_time["equivalence.check"] * ms,
            "equivalence.state_to_object_calls": c["equivalence.state_to_object_calls"],
            "net.lift_multiset_map_calls": c["net.lift_multiset_map_calls"],
            "sampling.ms": inc["sampling"] * ms,
            "documents.parse_ms": inc["documents.parse"] * ms,
            "documents.emit_ms": inc["documents.emit"] * ms,
            "cli.self_ms": self.self_time["cli"] * ms,
        }
