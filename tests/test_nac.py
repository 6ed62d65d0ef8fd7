"""Nested-tree structure, recursion, closed forms and maximizers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tailmax import Archimax, EvaluationError, Independence, NacTree, SpecError

from _support import (
    perturb_unit_product,
    random_tree_dict,
    two_level_mtcm,
    two_level_tree_dict,
)

# root over leaf 1 and a 2-block on leaves 2, 3
NESTED_PAIR = {
    "alpha": 2.0,
    "children": [{"leaf": 1}, {"alpha": 1.0, "children": [{"leaf": 2}, {"leaf": 3}]}],
}
# root over a 2-block and a 3-block
TWO_BLOCKS = {
    "alpha": 2.0,
    "children": [
        {"alpha": 1.0, "children": [{"leaf": 1}, {"leaf": 2}]},
        {"alpha": 0.5, "children": [{"leaf": 3}, {"leaf": 4}, {"leaf": 5}]},
    ],
}

# independently computed values for NESTED_PAIR: (1/9) * 2**(2/3) and
# (2**(2/3), 2**(-1/3), 2**(-1/3))
NESTED_PAIR_LAMBDA = 0.17637789466313327
NESTED_PAIR_B = (1.5874010519681994, 0.7937005259840997, 0.7937005259840997)
# 5**-2 / (2**(-2/5) * 3**(-9/10)) for TWO_BLOCKS
TWO_BLOCKS_LAMBDA = 0.1418669130580541


# ---------------------------------------------------------------------------
# parsing and structure
# ---------------------------------------------------------------------------

def test_parse_assigns_labels_left_to_right():
    tree = NacTree.from_dict({"alpha": 1.0, "children": [{}, {}, {}]})
    assert tree.dim == 3
    assert tree.leaves_below(tree.root) == (0, 1, 2)


def test_parse_explicit_label_permutation():
    tree = NacTree.from_dict(
        {"alpha": 1.0, "children": [{"leaf": 2}, {"alpha": 0.5, "children": [{"leaf": 3}, {"leaf": 1}]}]}
    )
    assert tree.dim == 3
    # the 0.5-block covers coordinates 3 and 1 (positions 2, 0)
    internal = [v for v in tree.internal_vertices if v != tree.root]
    assert tree.leaves_below(internal[0]) == (0, 2)


@pytest.mark.parametrize(
    "node,fragment",
    [
        ({"alpha": 1.0, "children": [{}]}, "single child"),
        ({"alpha": 1.0, "children": [{"alpha": 2.0, "children": [{}, {}]}]}, "single child"),
        ({"alpha": 0.0, "children": [{}, {}]}, "positive"),
        ({"alpha": -1.0, "children": [{}, {}]}, "positive"),
        ({"children": [{}, {}]}, "alpha"),
        ({"alpha": 1.0, "children": [{"leaf": 1}, {}]}, "label every leaf or none"),
        ({"alpha": 1.0, "children": [{"leaf": 1}, {"leaf": 3}]}, "permutation"),
        ({"alpha": 1.0, "children": [{"leaf": 1}, {"leaf": 1}]}, "permutation"),
        ({"leaf": 1}, "internal"),
        ({"alpha": 1.0, "children": [{"leaf": 0}, {"leaf": 1}]}, "positive integer"),
        ({"alpha": 1.0, "children": [{"leaf": 1, "alpha": 2.0}, {"leaf": 2}]}, "unknown leaf keys"),
    ],
)
def test_parse_rejects_malformed_trees(node, fragment):
    with pytest.raises(SpecError, match=fragment):
        NacTree.from_dict(node)


def test_direct_constructor_requires_preorder():
    # children must carry higher indices than their parents
    with pytest.raises(SpecError, match="preorder"):
        NacTree(alpha=[None, 1.0], children=[[], [0]], leaf_pos=[0, None])
    # and a vertex cannot be claimed by two parents
    with pytest.raises(SpecError, match="two parents"):
        NacTree(
            alpha=[1.0, 2.0, None, None],
            children=[[1, 2, 3], [2, 3], [], []],
            leaf_pos=[None, None, 0, 1],
        )


def test_dict_round_trip():
    tree = NacTree.from_dict(TWO_BLOCKS)
    assert NacTree.from_dict(tree.to_dict()) == tree
    # unlabeled input serializes with explicit labels
    tree2 = NacTree.from_dict({"alpha": 1.5, "children": [{}, {}]})
    assert tree2.to_dict() == {"alpha": 1.5, "children": [{"leaf": 1}, {"leaf": 2}]}


def test_leaf_counts():
    tree = NacTree.from_dict(TWO_BLOCKS)
    assert tree.leaf_count(tree.root) == 5
    sizes = sorted(tree.leaf_count(v) for v in tree.internal_vertices if v != tree.root)
    assert sizes == [2, 3]


# ---------------------------------------------------------------------------
# tail copula recursion
# ---------------------------------------------------------------------------

def test_single_level_tree_matches_archimedean():
    tree = NacTree.from_dict({"alpha": 0.8, "children": [{}, {}, {}, {}]})
    fast = Archimax(Independence(4), 0.8)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(0.1, 5.0, 4)
        assert_allclose(tree.tail_copula(x), fast.value(x), rtol=1e-13)


def test_equal_alpha_tree_collapses():
    tree = NacTree.from_dict(
        {"alpha": 1.3, "children": [{"leaf": 1}, {"alpha": 1.3, "children": [{"leaf": 2}, {"leaf": 3}]}]}
    )
    assert_allclose(tree.tail_copula([1.0, 1.0, 1.0]), 3.0 ** -1.3, rtol=1e-13)


def test_two_block_tree_matches_hand_rolled_recursion():
    tree = NacTree.from_dict(TWO_BLOCKS)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(0.1, 5.0, 5)
        lam1 = (x[0] ** -1.0 + x[1] ** -1.0) ** -1.0
        lam2 = (x[2] ** -2.0 + x[3] ** -2.0 + x[4] ** -2.0) ** -0.5
        expected = (lam1 ** -0.5 + lam2 ** -0.5) ** -2.0
        assert_allclose(tree.tail_copula(x), expected, rtol=1e-12)


def test_tail_copula_batch_matches_scalar():
    tree = NacTree.from_dict(TWO_BLOCKS)
    rng = np.random.default_rng(11)
    X = np.exp(rng.uniform(-2.0, 2.0, size=(40, 5)))
    vals = tree.tail_copula_batch(X)
    for row, expected in zip(X, vals):
        assert_allclose(tree.tail_copula(row), expected, rtol=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_copula_batch_takes_overflowing_ratio_to_its_limit():
    # x_max / x_min overflows to inf; its negative power is the limit 0
    tree = NacTree.from_dict({"alpha": 1.0, "children": [{}, {}]})
    X = [[1e-200, 1e200], [1e200, 1e-200]]
    vals = tree.tail_copula_batch(X)
    assert_allclose(vals, [tree.tail_copula(x) for x in X], rtol=1e-15)
    assert_allclose(vals, 1e-200, rtol=1e-15)


def test_tail_copula_subtree_evaluation():
    tree = NacTree.from_dict(TWO_BLOCKS)
    block3 = [v for v in tree.internal_vertices if tree.leaf_count(v) == 3][0]
    got = tree.tail_copula([1.0, 2.0, 3.0], vertex=block3)
    expected = (1.0 + 2.0 ** -2.0 + 3.0 ** -2.0) ** -0.5
    assert_allclose(got, expected, rtol=1e-13)


def test_tail_copula_rejects_bad_input():
    tree = NacTree.from_dict(NESTED_PAIR)
    with pytest.raises(EvaluationError):
        tree.tail_copula([1.0, 1.0])
    with pytest.raises(EvaluationError):
        tree.tail_copula([1.0, 0.0, 1.0])
    with pytest.raises(EvaluationError):
        tree.tail_copula([1.0, -1.0, 1.0])
    with pytest.raises(EvaluationError):
        tree.tail_copula([1.0, math.inf, 1.0])


# ---------------------------------------------------------------------------
# maximal tail concordance: recursion, closed form, maximizer
# ---------------------------------------------------------------------------

def test_single_level_value():
    tree = NacTree.from_dict({"alpha": 0.8, "children": [{}, {}, {}, {}]})
    assert_allclose(tree.mtcm_recursive(), 4.0 ** -0.8, rtol=1e-13)
    assert_allclose(tree.mtcm_closed(), 4.0 ** -0.8, rtol=1e-13)
    assert_allclose(tree.maximizer(), np.ones(4), rtol=1e-13)


def test_nested_pair_frozen_values():
    tree = NacTree.from_dict(NESTED_PAIR)
    assert_allclose(tree.mtcm_recursive(), NESTED_PAIR_LAMBDA, rtol=1e-13)
    assert_allclose(tree.mtcm_closed(), NESTED_PAIR_LAMBDA, rtol=1e-13)
    assert_allclose(tree.maximizer(), NESTED_PAIR_B, rtol=1e-13)


def test_two_blocks_frozen_value():
    tree = NacTree.from_dict(TWO_BLOCKS)
    assert_allclose(tree.mtcm_closed(), TWO_BLOCKS_LAMBDA, rtol=1e-13)


def test_recursive_equals_closed_on_random_trees():
    rng = np.random.default_rng(13)
    for i in range(60):
        node = random_tree_dict(rng, max_depth=4, max_leaves=12, nesting_valid=bool(i % 2))
        tree = NacTree.from_dict(node)
        a = tree.mtcm_recursive()
        b = tree.mtcm_closed()
        assert abs(a - b) <= 1e-12 * max(a, b)
        for v in tree.internal_vertices:
            av = tree.mtcm_recursive(v)
            bv = tree.mtcm_closed(v)
            assert abs(av - bv) <= 1e-12 * max(av, bv)


def test_two_level_closed_forms_match_flat_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n_blocks = int(rng.integers(2, 5))
        blocks = []
        alpha0 = float(rng.uniform(0.3, 2.5))
        for _ in range(n_blocks):
            ds = int(rng.integers(1, 4))
            blocks.append((ds, float(rng.uniform(0.3, 2.5))))
        if sum(ds for ds, _ in blocks) < 2:
            continue
        tree = NacTree.from_dict(two_level_tree_dict(alpha0, blocks))
        lam_oracle, b_oracle = two_level_mtcm(alpha0, blocks)
        assert_allclose(tree.mtcm_closed(), lam_oracle, rtol=1e-12)
        assert_allclose(tree.maximizer(), b_oracle, rtol=1e-12)


def test_maximizer_properties_on_random_trees():
    rng = np.random.default_rng(19)
    for i in range(25):
        node = random_tree_dict(rng, max_depth=3, max_leaves=8, nesting_valid=bool(i % 2))
        tree = NacTree.from_dict(node)
        lam = tree.mtcm_closed()
        b = tree.maximizer()
        assert abs(np.prod(b) - 1.0) <= 1e-12
        assert abs(tree.tail_copula(b) - lam) <= 1e-10 * max(1.0, lam)
        assert lam >= tree.tail_copula([1.0] * tree.dim) - 1e-12
        for _ in range(20):
            bp = perturb_unit_product(rng, b, scale=rng.uniform(1e-4, 0.5))
            assert tree.tail_copula(bp) <= lam + 1e-12


def test_block_leaves_share_maximizer_components():
    tree = NacTree.from_dict(TWO_BLOCKS)
    b = tree.maximizer()
    assert_allclose(b[0], b[1], rtol=1e-13)
    assert_allclose(b[2], b[3], rtol=1e-13)
    assert_allclose(b[3], b[4], rtol=1e-13)


def test_equal_alpha_maximizer_is_diagonal():
    tree = NacTree.from_dict(
        {"alpha": 0.9, "children": [{"leaf": 1}, {"alpha": 0.9, "children": [{"leaf": 2}, {"leaf": 3}]}]}
    )
    assert_allclose(tree.mtcm_closed(), 3.0 ** -0.9, rtol=1e-12)
    assert_allclose(tree.maximizer(), np.ones(3), rtol=1e-12)


def test_subtree_maximizer_consistency():
    tree = NacTree.from_dict(TWO_BLOCKS)
    for v in tree.internal_vertices:
        lam_v = tree.mtcm_closed(v)
        b_v = tree.maximizer(v)
        assert abs(np.prod(b_v) - 1.0) <= 1e-12
        assert_allclose(tree.tail_copula(b_v, vertex=v), lam_v, rtol=1e-10)


def test_mtcm_on_leaf_rejected():
    tree = NacTree.from_dict(NESTED_PAIR)
    leaf = next(v for v in range(tree.n_vertices) if tree.is_leaf(v))
    with pytest.raises(EvaluationError):
        tree.mtcm_closed(leaf)
    with pytest.raises(EvaluationError):
        tree.maximizer(leaf)


def test_deep_tree_log_space_stability():
    # alpha large enough that naive products would underflow
    node = {"alpha": 40.0, "children": [{}, {}]}
    for a in (30.0, 20.0, 10.0):
        node = {"alpha": a, "children": [node, {}]}
    tree = NacTree.from_dict(node)
    lam = tree.mtcm_closed()
    assert lam > 0.0
    assert abs(tree.mtcm_recursive() - lam) <= 1e-12 * lam
    b = tree.maximizer()
    assert abs(np.prod(b) - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# nesting check
# ---------------------------------------------------------------------------

def test_nesting_check_accepts_decreasing_alpha():
    tree = NacTree.from_dict(NESTED_PAIR)  # 2.0 over 1.0
    rep = tree.check_clayton_nesting()
    assert rep.satisfied and rep.violations == ()


def test_nesting_check_flags_increasing_alpha():
    tree = NacTree.from_dict(
        {"alpha": 1.0, "children": [{"leaf": 1}, {"alpha": 2.0, "children": [{"leaf": 2}, {"leaf": 3}]}]}
    )
    rep = tree.check_clayton_nesting()
    assert not rep.satisfied
    assert len(rep.violations) == 1
    parent, child, ap, ac = rep.violations[0]
    assert (ap, ac) == (1.0, 2.0)


def test_nesting_check_single_level_trivially_true():
    tree = NacTree.from_dict({"alpha": 5.0, "children": [{}, {}, {}]})
    assert tree.check_clayton_nesting().satisfied
