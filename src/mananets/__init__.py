"""Petri nets with mana: bounded firing capacity for transitions.

The library models two equivalent views of the same idea. Internally,
each transition gets a mana place wired into the net
(:func:`internal_construction` and its generalization); externally, a
state is a (marking, pool) pair and executions act on pools through
affine spans (:mod:`mananets.external`). :func:`check_equivalence`
verifies operationally that the two views generate the same behaviour,
and :func:`check_comonad_laws` checks the comonad structure of the plain
construction.
"""

from .equivalence import (EquivalenceReport, check_equivalence, externalize,
                          internalize, mana_net_from_built, object_to_state,
                          state_to_object)
from .documents import (NetDocument, emit_json, graph_to_json_dict,
                        parse_document, parse_json, parse_reaction_dsl,
                        state_to_json_dict)
from .dot import export_dot, format_marking
from .errors import (CountOverflowError, DocumentError, MananetsError,
                     NameClashError, NotEnabledError, NotManaEnabledError,
                     PolicyError, ShapeViolationError, TraceClassBudgetError,
                     UnknownSymbolError)
from .execution import (Marking, ReachGraph, Trace, concat_traces, enabled,
                        explore, fire, occurrence_multiset, reach, replay,
                        run_trace, simulate, trace_equivalent)
from .external import (AffineSpan, ManaState, check_functor_laws,
                       check_laxator_naturality, compose_spans, laxator,
                       mana_enabled, mana_fire, mana_reach, mana_simulate,
                       span_of_trace, span_of_transition)
from .functors import (PresentedFunctor, apply_functor,
                       apply_functor_to_marking, compose_functors,
                       functor_of_net_morphism, functors_equal,
                       identity_functor, validate_functor)
from .internal import (MANA_PREFIX, ManaNet, ManaPolicy, check_comonad_laws,
                       comultiplication, counit,
                       generalized_internal_construction,
                       internal_construction, is_mana_place_name,
                       iterated_construction, lift_functor, mana_place_name,
                       validate_policy)
from .multiset import COUNT_MAX, EMPTY, Multiset
from .net import (Net, NetMorphism, Violation, compose_morphisms,
                  lift_multiset_map, validate_morphism, validate_net)
from .reports import LawReport, LawResult

__version__ = "0.1.0"

__all__ = [
    "AffineSpan", "COUNT_MAX", "CountOverflowError", "DocumentError", "EMPTY",
    "EquivalenceReport", "LawReport", "LawResult", "MANA_PREFIX",
    "ManaNet", "ManaPolicy", "ManaState", "MananetsError", "Marking",
    "Multiset", "NameClashError", "Net", "NetDocument", "NetMorphism",
    "NotEnabledError", "NotManaEnabledError", "PolicyError",
    "PresentedFunctor", "ReachGraph", "ShapeViolationError", "Trace",
    "TraceClassBudgetError", "UnknownSymbolError", "Violation", "apply_functor",
    "apply_functor_to_marking", "check_comonad_laws", "check_equivalence",
    "check_functor_laws", "check_laxator_naturality", "compose_functors",
    "compose_morphisms", "compose_spans", "comultiplication", "concat_traces",
    "counit", "emit_json", "enabled", "explore", "export_dot", "externalize",
    "fire", "format_marking", "functor_of_net_morphism", "functors_equal",
    "generalized_internal_construction", "graph_to_json_dict",
    "identity_functor", "internal_construction", "internalize",
    "is_mana_place_name", "iterated_construction", "laxator", "lift_functor",
    "lift_multiset_map", "mana_enabled", "mana_fire", "mana_net_from_built",
    "mana_place_name", "mana_reach", "mana_simulate", "object_to_state",
    "occurrence_multiset", "parse_document", "parse_json",
    "parse_reaction_dsl", "reach", "replay", "run_trace", "simulate",
    "span_of_trace", "span_of_transition", "state_to_json_dict",
    "state_to_object", "trace_equivalent", "validate_functor",
    "validate_morphism", "validate_net", "validate_policy",
]
