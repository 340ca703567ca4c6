"""Hypothesis profiles.  ``ci`` runs ten times the examples of every
property that takes its count from the profile: one that pins none, or one
that pins a multiple of it with ``helpers.examples`` (every property of
tests/test_zlinalg.py and tests/test_exact.py, among them the split
children property test_extended_children_agree_with_fresh_contexts, the
split lemma's property
test_split_children_classify_what_their_parent_settled_as_it_did, the
irrational set test's property
test_the_irrational_set_test_is_the_collinear_scan and the rank-reference
property test_consistency_and_the_theta_axiom_agree_with_ranks; the CLI
contract property
test_every_drawn_command_ends_in_a_verdict_an_undecided_or_an_input_error
of tests/test_cli_contract.py; the cached-center
property of tests/test_groups.py, and the induce_gamma differential
property and the case-leaf differential properties
test_case_leaves_equal_the_unpresolved_replay,
test_case_leaf_contexts_classify_as_fresh_contexts and
test_the_product_walk_builds_the_general_walks_tree of
tests/test_cocycles.py).
It loads only when HYPOTHESIS_PROFILE=ci is set, so a plain run keeps
Hypothesis's defaults:

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python -m pytest -q tests/test_zlinalg.py
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
