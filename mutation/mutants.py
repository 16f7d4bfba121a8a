"""Source mutants that the tests must keep killing; ``mutate.py`` runs them.

Each entry names the mutated file, relative to the repository root, the
exact text it replaces (which must occur once), the new text, and the
test node ids that must all fail once the new text is in place. Prefer
node ids that fail without Hypothesis, so a run does not depend on the
examples it draws.
"""

MUTANTS = [
    # -- the equivalence check ------------------------------------------------
    # The generator decision compares each step's label, needs and changes by
    # name. It compares neither the roots nor the coordinate sets: the built
    # root is the external root laid out by those names, and a coordinate that
    # only one side has is touched by no step and stays 0, so no mutant of
    # either comparison can fail.
    {
        "name": "equivalence: a pool coordinate named by its transition, not its mana place",
        "file": "src/mananets/equivalence.py",
        "old": "    names = [s if i < split else mn.mana_place_of[s] for i, s in enumerate(",
        "new": "    names = [s if i < split else s for i, s in enumerate(",
        "kill": ["tests/test_equivalence.py::test_golden_equiv_inputs_are_found_in_one_order"
                 "[ring6-8-12]",
                 "tests/test_cli.py::test_golden_output[ring6-argv1]"],
    },
    {
        "name": "equivalence: step labels not compared",
        "file": "src/mananets/equivalence.py",
        "old": "    return [(label, {names[i]: c for i, c in pre}, {names[i]: d for i, d in delta})\n",
        "new": "    return [({names[i]: c for i, c in pre}, {names[i]: d for i, d in delta})\n",
        "kill": ["tests/test_kernel.py::test_a_faulty_built_net_is_judged_as_the_reference_judges_it"
                 "[transition-renamed]"],
    },
    {
        "name": "equivalence: step needs not compared",
        "file": "src/mananets/equivalence.py",
        "old": "    return [(label, {names[i]: c for i, c in pre}, {names[i]: d for i, d in delta})\n",
        "new": "    return [(label, {names[i]: d for i, d in delta})\n",
        "kill": ["tests/test_equivalence.py::test_check_equivalence_catches_a_faulty_firing"],
    },
    {
        "name": "equivalence: step changes not compared",
        "file": "src/mananets/equivalence.py",
        "old": "    return [(label, {names[i]: c for i, c in pre}, {names[i]: d for i, d in delta})\n",
        "new": "    return [(label, {names[i]: c for i, c in pre})\n",
        "kill": ["tests/test_equivalence.py::test_check_equivalence_catches_a_faulty_construction"],
    },
    {
        "name": "equivalence: the built net explored although the games agree",
        "file": "src/mananets/equivalence.py",
        "old": "        return EquivalenceReport(True, n, n, e, e, None)\n",
        "new": "        pass\n",
        "kill": ["tests/test_equivalence.py::test_check_equivalence_random[0]",
                 "tests/test_equivalence.py::test_golden_equiv_inputs_are_found_in_one_order"
                 "[ring6-8-12]"],
    },
    {
        "name": "equivalence: the edge count read from the firing offsets",
        "file": "src/mananets/equivalence.py",
        "old": "    n, e = len(ext.nodes), len(ext.targets)\n",
        "new": "    n, e = len(ext.nodes), len(ext.first)\n",
        "kill": ["tests/test_equivalence.py::test_check_equivalence_plain_example",
                 "tests/test_cli.py::test_golden_output[ring6-argv1]"],
    },
    {
        "name": "equivalence: external window read with the built net's symbols",
        "file": "src/mananets/equivalence.py",
        "old": "_first_discrepancy(_window(ext, names), ",
        "new": "_first_discrepancy(_window(ext, int_game.symbols), ",
        "kill": ["tests/test_kernel.py::test_a_faulty_built_net_is_judged_as_the_reference_judges_it"
                 "[extra-place-first]"],
    },
    {
        "name": "equivalence: a marking symbol on a mana place merges with its pool",
        "file": "src/mananets/equivalence.py",
        "old": "    if clashes:\n        raise NameClashError(min(clashes))\n",
        "new": "",
        "kill": ["tests/test_equivalence.py::"
                 "test_state_to_object_refuses_a_marking_on_a_mana_place",
                 "tests/test_kernel.py::test_marking_on_a_mana_place_name_is_refused[t0-free]"],
    },
    # -- the graph writer -----------------------------------------------------
    {
        "name": "writer: zero counts are written as members",
        "file": "src/mananets/documents.py",
        "old": '        self[0] = ""  # a zero count is no member\n',
        "new": "",
        "kill": ["tests/test_kernel.py::test_writer_edge_cases[width-8]",
                 "tests/test_cli.py::test_golden_output[ring6-argv0]"],
    },
    {
        "name": "writer: rank text off by one",
        "file": "src/mananets/documents.py",
        "old": "    ranks = [str(r) for r in rank]\n",
        "new": "    ranks = [str(r + 1) for r in rank]\n",
        "kill": ["tests/test_kernel.py::test_writer_edge_cases[no-coordinates]",
                 "tests/test_cli.py::test_golden_output[ring6-argv0]"],
    },
    {
        "name": "writer: edge targets written by position, not rank",
        "file": "src/mananets/documents.py",
        "old": "{ranks[targets[e]]}\\n    ]",
        "new": "{targets[e]}\\n    ]",
        "kill": ["tests/test_kernel.py::test_writer_edge_cases[empty-marking]",
                 "tests/test_cli.py::test_golden_output[loop-argv3]"],
    },
    # -- the packed kernel ----------------------------------------------------
    {
        "name": "kernel: bulk unpack without the no-coordinate case",
        "file": "src/mananets/execution.py",
        "old": "        if not size:  # no coordinates: every node is the empty vector\n"
               "            return iter([()] * len(nodes))\n",
        "new": "",
        "kill": ["tests/test_kernel.py::test_writer_edge_cases[no-coordinates]"],
    },
    {
        "name": "kernel: an edge triple with its source as its target",
        "file": "src/mananets/execution.py",
        "old": "        return [(s, labels[e], targets[e])\n",
        "new": "        return [(s, labels[e], s)\n",
        "kill": ["tests/test_kernel.py::test_edges_are_counted_as_they_are_iterated",
                 "tests/test_kernel.py::test_a_faulty_built_net_is_judged_as_the_reference_judges_it"
                 "[transition-renamed]",
                 "tests/test_equivalence.py::test_a_renumbered_graph_is_equal_as_sets"],
    },
    {
        "name": "kernel: a firing that fills the token room exactly is dropped",
        "file": "src/mananets/execution.py",
        "old": "                if growth > room:\n",
        "new": "                if growth >= room:\n",
        "kill": ["tests/test_kernel.py::test_a_firing_that_fills_the_token_bound_exactly_is_kept",
                 "tests/test_cli.py::test_golden_output[ring6-argv0]"],
    },
    {
        "name": "kernel: a cut node checks every enabled firing for overflow",
        "file": "src/mananets/execution.py",
        "old": "                        if stop:\n"
               "                            truncated = True\n"
               "                            break\n",
        "new": "                        truncated = truncated or stop\n",
        "kill": ["tests/test_kernel.py::"
                 "test_a_cut_node_checks_only_its_first_enabled_firing_for_overflow[token-bound]",
                 "tests/test_kernel.py::"
                 "test_a_cut_node_checks_only_its_first_enabled_firing_for_overflow[depth-bound]"],
    },
    {
        "name": "kernel: a cut node does not mark the graph truncated",
        "file": "src/mananets/execution.py",
        "old": "                        if stop:\n"
               "                            truncated = True\n",
        "new": "                        if stop:\n",
        "kill": ["tests/test_kernel.py::"
                 "test_a_cut_node_checks_only_its_first_enabled_firing_for_overflow[depth-bound]",
                 "tests/test_cli.py::test_golden_output[ring6-argv0]"],
    },
    {
        "name": "kernel: no closing sentinel in the firing offsets",
        "file": "src/mananets/execution.py",
        "old": "    first.append(len(targets))  # the closing sentinel\n",
        "new": "",
        "kill": ["tests/test_kernel.py::test_edges_are_counted_as_they_are_iterated",
                 "tests/test_cli.py::test_golden_output[ring6-argv0]"],
    },
    {
        "name": "kernel: step deltas sorted by coordinate",
        "file": "src/mananets/execution.py",
        "old": "        delta = tuple((i, d) for i, d in change.items() if d)\n",
        "new": "        delta = tuple(sorted((i, d) for i, d in change.items() if d))\n",
        "kill": ["tests/test_kernel.py::test_two_marking_overflows_report_the_first_in_post_order",
                 "tests/test_kernel.py::test_pool_and_marking_overflow_report_the_pool"],
    },
    {
        "name": "kernel: guard bit one below the top of its field",
        "file": "src/mananets/execution.py",
        "old": "    top = width - 1\n",
        "new": "    top = width - 2\n",
        "kill": ["tests/test_cli.py::test_golden_output[pump-argv8]",
                 "tests/test_cli.py::test_golden_output[pump-argv10]"],
    },
    {
        "name": "kernel: no room for the guard bit in the field width",
        "file": "src/mananets/execution.py",
        "old": ".bit_length() + 1\n",
        "new": ".bit_length()\n",
        "kill": ["tests/test_cli.py::test_golden_output[pump-argv9]",
                 "tests/test_kernel.py::test_writer_edge_cases[width-16]"],
    },
    {
        "name": "kernel: field width ignores the root's counts",
        "file": "src/mananets/execution.py",
        "old": "min(max(token_bound, max(root, default=0)), COUNT_MAX)",
        "new": "min(token_bound, COUNT_MAX)",
        "kill": ["tests/test_kernel.py::test_count_overflow_is_reported_with_its_symbol"],
    },
    {
        "name": "kernel: steps that need more than a field holds are kept",
        "file": "src/mananets/execution.py",
        "old": "             if all(need >> top == 0 for _, need in pre)]",
        "new": "             ]",
        "kill": ["tests/test_cli.py::test_golden_output[pump-argv8]",
                 "tests/test_cli.py::test_golden_output[pump-argv10]"],
    },
    {
        "name": "kernel: sort key without the trailing-zero clear",
        "file": "src/mananets/execution.py",
        "old": "            keys.append(key & -(x & -x))\n",
        "new": "            keys.append(key)\n",
        "kill": ["tests/test_cli.py::test_golden_output[loop-argv3]",
                 "tests/test_cli.py::test_golden_output[pump-argv8]"],
    },
    {
        "name": "kernel: pool segment sorted with the marking",
        "file": "src/mananets/execution.py",
        "old": "        if low:\n",
        "new": "        if False:\n",
        "kill": ["tests/test_kernel.py::test_mana_nodes_sort_by_marking_then_pool"],
    },
    # -- the count-dict walk ------------------------------------------------
    # Killed by tests that compare the walk's entry points with the
    # Multiset rule kept in tests/reference_firing.py, not with replay.
    {
        "name": "walk: a pre check that lets a count go one below zero",
        "file": "src/mananets/execution.py",
        "old": "            if left < 0:\n",
        "new": "            if left < -1:\n",
        "kill": ["tests/test_execution.py::"
                 "test_each_firing_error_is_named_as_the_reference_names_it"],
    },
    {
        "name": "walk: failing index off by one",
        "file": "src/mananets/execution.py",
        "old": "                raise NotEnabledError(transition, index)\n",
        "new": "                raise NotEnabledError(transition, index + 1)\n",
        "kill": ["tests/test_execution.py::"
                 "test_each_firing_error_is_named_as_the_reference_names_it"],
    },
    {
        "name": "walk: post arcs added in sorted order",
        "file": "src/mananets/execution.py",
        "old": "        for symbol, count in given._entries.items():\n",
        "new": "        for symbol, count in sorted(given._entries.items()):\n",
        "kill": ["tests/test_execution.py::"
                 "test_each_firing_error_is_named_as_the_reference_names_it"],
    },
    {
        "name": "walk: fire re-raises a blocked firing with a step index",
        "file": "src/mananets/execution.py",
        "old": "        raise NotEnabledError(transition) from None\n",
        "new": "        raise NotEnabledError(transition, 0) from None\n",
        "kill": ["tests/test_execution.py::test_fire_not_enabled_raises",
                 "tests/test_execution.py::"
                 "test_each_firing_error_is_named_as_the_reference_names_it"],
    },
    # -- the trace-class search ---------------------------------------------
    {
        "name": "swap search: a swap is taken without checking that u fires after v",
        "file": "src/mananets/execution.py",
        "old": "                _walk(net, markings[i], (v, u))\n",
        "new": "                _walk(net, markings[i], (v,))\n",
        "kill": ["tests/test_execution.py::test_an_illegal_swap_is_not_a_stepping_stone",
                 "tests/test_execution.py::test_no_ordering_is_walked_again"],
    },
    {
        "name": "swap search: a swap tested from the marking after u, not before it",
        "file": "src/mananets/execution.py",
        "old": "                _walk(net, markings[i], (v, u))\n",
        "new": "                _walk(net, markings[i + 1], (v, u))\n",
        "kill": ["tests/test_execution.py::test_independent_steps_commute",
                 "tests/test_execution.py::test_class_past_the_budget_raises"],
    },
    {
        "name": "swap search: a new ordering keeps its parent's markings",
        "file": "src/mananets/execution.py",
        "old": "                moved[i + 1] = _walk(net, markings[i], (v,))\n",
        "new": "",
        "kill": ["tests/test_execution.py::test_equivalence_matches_oracle_on_random_traces[4]",
                 "tests/test_execution.py::test_no_ordering_is_walked_again"],
    },
    {
        "name": "swap search: the marking between the swapped pair is taken after u, not v",
        "file": "src/mananets/execution.py",
        "old": "                moved[i + 1] = _walk(net, markings[i], (v,))\n",
        "new": "                moved[i + 1] = _walk(net, markings[i], (u,))\n",
        "kill": ["tests/test_execution.py::test_equivalence_matches_oracle_on_random_traces[4]",
                 "tests/test_execution.py::test_long_pairs_match_oracle[9-hole]"],
    },
    {
        "name": "swap search: a new ordering overwrites its parent's markings in place",
        "file": "src/mananets/execution.py",
        "old": "                moved = markings.copy()\n",
        "new": "                moved = markings\n",
        "kill": ["tests/test_execution.py::test_equivalence_matches_oracle_on_random_traces[4]",
                 "tests/test_execution.py::test_class_past_the_budget_raises"],
    },
    # -- the compiled walk ----------------------------------------------------
    {
        "name": "walk on steps: enabled with one token short",
        "file": "src/mananets/execution.py",
        "old": "                    if counts[i] < need:\n",
        "new": "                    if counts[i] < need - 1:\n",
        "kill": ["tests/test_execution.py::test_simulate_lex_and_seeded",
                 "tests/test_cli.py::test_golden_output[ring6-argv12]"],
    },
    {
        "name": "walk on steps: a size gate that never checks overflow",
        "file": "src/mananets/execution.py",
        "old": "            if size > COUNT_MAX:\n                self.check_overflow(counts, delta)\n",
        "new": "            if size < 0:\n                self.check_overflow(counts, delta)\n",
        "kill": ["tests/test_execution.py::test_simulate_names_the_first_overflowing_post_symbol",
                 "tests/test_external.py::test_mana_simulate_names_the_pool_overflow_first"],
    },
    {
        "name": "walk on steps: the last enabled step fired, not the first",
        "file": "src/mananets/execution.py",
        "old": "moves[0] if rng is None",
        "new": "moves[-1] if rng is None",
        "kill": ["tests/test_cli.py::test_golden_output[ring6-argv12]",
                 "tests/test_cli.py::test_golden_output[loop-argv13]"],
    },
    # -- multisets -----------------------------------------------------------
    {
        "name": "_of_counts wraps empty counts",
        "file": "src/mananets/multiset.py",
        "old": "    return _wrap(counts) if counts else EMPTY\n",
        "new": "    return _wrap(counts)\n",
        "kill": ["tests/test_net.py::test_lift_of_nothing_is_the_shared_empty",
                 "tests/test_external.py::test_span_of_empty_trace"],
    },
    # -- the span fold ------------------------------------------------------
    {
        "name": "span fold: produce added before consume",
        "file": "src/mananets/external.py",
        "old": "        if c:\n"
               "            total = consume.get(transition, 0) + c\n"
               "            if total > COUNT_MAX:\n"
               "                raise CountOverflowError(transition, total)\n"
               "            consume[transition] = total\n"
               "        for symbol, n in p._entries.items():\n"
               "            total = produce.get(symbol, 0) + n\n"
               "            if total > COUNT_MAX:\n"
               "                raise CountOverflowError(symbol, total)\n"
               "            produce[symbol] = total\n",
        "new": "        for symbol, n in p._entries.items():\n"
               "            total = produce.get(symbol, 0) + n\n"
               "            if total > COUNT_MAX:\n"
               "                raise CountOverflowError(symbol, total)\n"
               "            produce[symbol] = total\n"
               "        if c:\n"
               "            total = consume.get(transition, 0) + c\n"
               "            if total > COUNT_MAX:\n"
               "                raise CountOverflowError(transition, total)\n"
               "            consume[transition] = total\n",
        "kill": ["tests/test_external.py::test_span_of_trace_raises_at_the_first_offending_step"
                 "[consume-and-produce-past-bound]"],
    },
    {
        "name": "span fold: gate lets bools through as counts",
        "file": "src/mananets/external.py",
        "old": "        if type(c) is not int or c < 0 or type(p) is not Multiset:\n",
        "new": "        if not isinstance(c, int) or c < 0 or type(p) is not Multiset:\n",
        "kill": ["tests/test_external.py::test_span_of_trace_raises_at_the_first_offending_step"
                 "[bool-consume]"],
    },
    {
        "name": "span fold: gate without the sign test",
        "file": "src/mananets/external.py",
        "old": "        if type(c) is not int or c < 0 or type(p) is not Multiset:\n",
        "new": "        if type(c) is not int or type(p) is not Multiset:\n",
        "kill": ["tests/test_external.py::test_span_of_trace_raises_at_the_first_offending_step"
                 "[steps2-consume2-produce2-error2]"],
    },
    # -- the law checks' memo of folded spans -------------------------------
    {
        "name": "law memo: keyed by the set of steps",
        "file": "src/mananets/external.py",
        "old": "    span = spans.get(steps)\n"
               "    if span is None:\n"
               "        span = spans[steps] = _span_of_steps(policy, steps)\n",
        "new": "    span = spans.get(frozenset(steps))\n"
               "    if span is None:\n"
               "        span = spans[frozenset(steps)] = _span_of_steps(policy, steps)\n",
        "kill": ["tests/test_external.py::test_functor_laws_generalized",
                 "tests/test_external.py::test_laxator_naturality_samples"],
    },
    {
        "name": "law memo: keyed by the occurrence counts, not the ordered steps",
        "file": "src/mananets/external.py",
        "old": "    span = spans.get(steps)\n"
               "    if span is None:\n"
               "        span = spans[steps] = _span_of_steps(policy, steps)\n",
        "new": "    span = spans.get(tuple(sorted(steps)))\n"
               "    if span is None:\n"
               "        span = spans[tuple(sorted(steps))] = _span_of_steps(policy, steps)\n",
        "kill": ["tests/test_external.py::test_law_checks_fold_each_step_order_apart"],
    },
    {
        "name": "law memo: a glued-back step tuple is not walked again",
        "file": "src/mananets/external.py",
        "old": "        run_trace(trace)  # an invalid trace still raises NotEnabledError\n"
               "        if steps in glued_back:\n"
               "            continue\n",
        "new": "        if steps in glued_back:\n"
               "            continue\n"
               "        run_trace(trace)  # an invalid trace still raises NotEnabledError\n",
        "kill": ["tests/test_external.py::"
                 "test_a_repeated_step_tuple_is_still_walked_from_its_own_marking"],
    },
    {
        "name": "law memo: kept at module scope across calls",
        "file": "src/mananets/external.py",
        "old": "    spans: dict[tuple, AffineSpan] = {}  # this call's folds, by ordered steps\n"
               "    identity_witness = None\n",
        "new": "    spans = globals().setdefault(\"_SPANS\", {})\n"
               "    identity_witness = None\n",
        "kill": ["tests/test_external.py::test_consecutive_calls_fold_under_their_own_policy",
                 "tests/test_external.py::test_consecutive_calls_report_their_own_spans"],
    },
    # -- the document boundary ----------------------------------------------
    {
        "name": "documents: bytes that are not UTF-8 decoded with replacement characters",
        "file": "src/mananets/documents.py",
        "old": '        return data.decode("utf-8")\n',
        "new": '        return data.decode("utf-8", errors="replace")\n',
        "kill": ["tests/test_cli.py::test_a_document_that_is_not_utf8_is_document_error"
                 "[validate-json]",
                 "tests/test_cli.py::test_a_document_that_is_not_utf8_is_document_error"
                 "[validate-dsl]"],
    },
    {
        "name": "DSL: a zero pool count is accepted",
        "file": "src/mananets/documents.py",
        "old": "                if int(count[1]) == 0:\n"
               "                    raise DocumentError(\"counts must be positive integers\",\n"
               "                                        line=lineno, col=count[2])\n",
        "new": "",
        "kill": ["tests/test_documents.py::test_dsl_zero_pool_and_produce_counts_rejected[pool]",
                 "tests/test_cli.py::test_zero_pool_or_produce_count_is_document_error"
                 "[argv0-dsl-pool]"],
    },
    {
        "name": "DSL: a zero produce count is accepted",
        "file": "src/mananets/documents.py",
        "old": "        if int(count[1]) == 0:\n"
               "            raise DocumentError(\"counts must be positive integers\",\n"
               "                                line=scanner.line, col=count[2])\n",
        "new": "",
        "kill": ["tests/test_documents.py::test_dsl_zero_pool_and_produce_counts_rejected[produce]",
                 "tests/test_cli.py::test_zero_pool_or_produce_count_is_document_error"
                 "[argv0-dsl-produce]"],
    },
    {
        "name": "JSON: no bound on consume",
        "file": "src/mananets/documents.py",
        "old": "        if consume > COUNT_MAX:\n"
               "            raise DocumentError(f\"'consume' exceeds the bound: {consume}\",\n"
               "                                path=f\"{path}.consume\")\n",
        "new": "",
        "kill": ["tests/test_documents.py::"
                 "test_consume_at_the_count_bound_allowed_and_above_rejected",
                 "tests/test_cli.py::test_oversized_consume_is_document_error[argv4-json]"],
    },
    {
        "name": "DSL: no bound on consume",
        "file": "src/mananets/documents.py",
        "old": "            if consume > COUNT_MAX:\n"
               "                raise DocumentError(f\"'consume' exceeds the bound: {consume}\",\n"
               "                                    line=lineno, col=count[2])\n",
        "new": "",
        "kill": ["tests/test_documents.py::test_dsl_consume_above_the_count_bound_rejected",
                 "tests/test_cli.py::test_oversized_consume_is_document_error[argv4-dsl]"],
    },
    {
        "name": "documents: canonical JSON without its trailing newline",
        "file": "src/mananets/documents.py",
        "old": '    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"\n',
        "new": "    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)\n",
        "kill": ["tests/test_documents.py::test_emit_is_byte_exact_on_canonical_input",
                 "tests/test_cli.py::test_golden_output[ring6-argv1]"],
    },
    {
        "name": "validators: a nested violation's detail stripped of trailing ': '",
        "file": "src/mananets/net.py",
        "old": '{v.detail}" if v.detail else f"{side} net"',
        "new": '{v.detail}".rstrip(": ")',
        "kill": ["tests/test_net.py::test_a_nested_violation_keeps_its_whole_detail[colon-morphism]",
                 "tests/test_net.py::test_a_nested_violation_keeps_its_whole_detail[colon-functor]"],
    },
    # -- the constructions ----------------------------------------------------
    {
        "name": "construction: a mana place may reuse an existing name",
        "file": "src/mananets/internal.py",
        "old": "        if name in taken:\n            raise NameClashError(name)\n",
        "new": "",
        "kill": ["tests/test_internal.py::test_name_clash_fails_fast"],
    },
    {
        "name": "construction: the iterated layer is not freshened with outer-",
        "file": "src/mananets/internal.py",
        "old": "    while any(prefix + t in taken for t in built.transitions):\n"
               "        prefix = \"outer-\" + prefix\n",
        "new": "",
        "kill": ["tests/test_internal.py::test_iterated_construction_freshens_names"],
    },
    {
        "name": "construction: the inline consume gate has no upper bound",
        "file": "src/mananets/internal.py",
        "old": "        if type(count) is not int or count < 0 or count > COUNT_MAX:\n",
        "new": "        if type(count) is not int or count < 0:\n",
        "kill": ["tests/test_internal.py::test_a_consume_count_past_the_bound_is_refused"],
    },
    {
        "name": "construction: the plain build does not check its net",
        "file": "src/mananets/internal.py",
        "old": "    _check_net(net)  # the plain policy fits any well-formed net\n",
        "new": "",
        "kill": ["tests/test_internal.py::test_internal_construction_rejects_a_malformed_net",
                 "tests/test_internal.py::test_comonad_laws_check_every_net_they_are_given"],
    },
    {
        "name": "construction: the generalized build does not refuse a policy that does not fit",
        "file": "src/mananets/internal.py",
        "old": "    if policy_problems:\n        raise PolicyError(policy_problems[0])\n",
        "new": "",
        "kill": ["tests/test_internal.py::test_policy_domain_mismatch_rejected",
                 "tests/test_internal.py::"
                 "test_generalized_construction_checks_the_net_then_the_policy"],
    },
    {
        "name": "construction: the iterated build does not check a hand-made built net",
        "file": "src/mananets/internal.py",
        "old": "    return _iterated(mn, check=True)\n",
        "new": "    return _iterated(mn, check=False)\n",
        "kill": ["tests/test_internal.py::"
                 "test_iterated_construction_checks_a_hand_made_built_net"],
    },
    {
        "name": "constructions: every mana place named with MANA_PREFIX, whatever the prefix",
        "file": "src/mananets/internal.py",
        "old": "        name = prefix + t\n",
        "new": "        name = MANA_PREFIX + t\n",
        "kill": ["tests/test_internal.py::test_iterated_construction_freshens_names"],
    },
    # -- the comonad-law squares ----------------------------------------------
    {
        "name": "square: the one pass skips the object images",
        "file": "src/mananets/functors.py",
        "old": "    for p, image in inner_l.items():\n"
               "        if _lift_image(outer_l, image) != _lift_image(outer_r, inner_r[p]):\n"
               "            return False\n",
        "new": "",
        "kill": ["tests/test_internal.py::"
                 "test_one_pass_decides_a_square_as_composing_and_comparing[object]"],
    },
    {
        "name": "square: the one pass compares starts but not step tuples",
        "file": "src/mananets/functors.py",
        "old": "        b_steps = (steps_r[b_steps[0]][1] if len(b_steps) == 1\n",
        "new": "        b_steps = (steps_l[a_steps[0]][1] if len(b_steps) == 1\n",
        "kill": ["tests/test_internal.py::"
                 "test_one_pass_decides_a_square_as_composing_and_comparing[steps]",
                 "tests/test_internal.py::"
                 "test_one_pass_decides_a_square_as_composing_and_comparing[outer-steps]"],
    },
    {
        "name": "square: identical square images are not walked",
        "file": "src/mananets/functors.py",
        "old": "            _walk(target, a_start, a_steps)\n",
        "new": "            pass\n",
        "kill": ["tests/test_internal.py::"
                 "test_identical_square_images_raise_what_the_reference_replay_raises"
                 "[identical-overflow]",
                 "tests/test_internal.py::"
                 "test_identical_square_images_raise_what_the_reference_replay_raises"
                 "[identical-unknown-step]"],
    },
    {
        "name": "lift: one-step lift gives two units of mana",
        "file": "src/mananets/internal.py",
        "old": "{mana_place_of[steps[0]]: 1}",
        "new": "{mana_place_of[steps[0]]: 2}",
        "kill": ["tests/test_internal.py::test_lift_identity_functor",
                 "tests/test_internal.py::test_public_constructions_match_the_reference"],
    },
    # -- sampling -------------------------------------------------------------
    {
        "name": "draw helper keeps r == n",
        "file": "src/mananets/execution.py",
        "old": "    while r >= n:\n",
        "new": "    while r > n:\n",
        "kill": ["tests/test_sampling.py::test_a_draw_is_what_randrange_returns[0]"],
    },
]
