import pickle

import pytest
from hypothesis import given, strategies as st

from robusthedge.market_tree import (
    MarketTree,
    Node,
    TreeError,
    build_tree,
    shift_claim,
    stopping_time_below,
    validate_stopping_time,
)
from robusthedge.random_instances import random_stopping_time, random_tree

from conftest import seeded


def test_binomial_depth1_shape(binomial1):
    assert len(binomial1.nodes) == 3
    assert sorted(binomial1.spot1(leaf) for leaf in binomial1.leaves) == [-1, 1]
    assert binomial1.spot(binomial1.root) == (0,)


def test_trinomial_depth2_shape(trinomial2):
    assert len(trinomial2.nodes) == 13  # 1 + 3 + 9
    for t in range(3):
        assert len(trinomial2.nodes_at(t)) == 3**t
    assert all(trinomial2.node(leaf).t == 2 for leaf in trinomial2.leaves)


def test_explicit_positive_children_tree_is_valid():
    # no martingale kernel exists here; the tree itself is still fine
    tree = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [1, 2]}}
    )
    assert sorted(tree.spot1(leaf) for leaf in tree.leaves) == [1, 2]


def test_build_tree_rejects_bad_specs():
    with pytest.raises(TreeError):
        build_tree({"dim": 1, "depth": 0, "generator": {"kind": "binomial"}})
    with pytest.raises(TreeError):
        build_tree({"dim": 1, "depth": 1, "generator": {"kind": "weird"}})
    with pytest.raises(TreeError):
        build_tree(
            {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": []}}
        )
    with pytest.raises(TreeError):
        build_tree(
            {
                "dim": 1,
                "depth": 1,
                "generator": {"kind": "explicit", "offsets": [float("nan"), 1.0]},
            }
        )


# (spec, children per internal node)
INVARIANT_SPECS = (
    ({"dim": 1, "depth": 3, "generator": {"kind": "binomial"}}, 2),
    ({"dim": 1, "depth": 4, "generator": {"kind": "trinomial", "step": 0.5}}, 3),
    ({"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": [1]}}, 1),
    ({"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": [[1, 0], [-1, 0], [0, 1], [0, -1]]}}, 4),
)


@pytest.mark.parametrize("spec,k", INVARIANT_SPECS)
def test_build_tree_id_invariant(spec, k):
    """Breadth-first ids: children consecutive and after their parent."""
    tree = build_tree(spec)
    assert len(tree.nodes) == sum(k**t for t in range(spec["depth"] + 1))
    for node in tree.nodes:
        assert tree.node(node.id) is node
        kids = node.children
        if not kids:
            assert node.t == spec["depth"]
            continue
        assert list(kids) == list(range(kids[0], kids[0] + k))
        assert kids[0] > node.id
        assert all(tree.parent(c) == node.id and tree.node(c).t == node.t + 1 for c in kids)
    assert tree.subtree_nodes(tree.root) == list(range(len(tree.nodes)))


@pytest.mark.parametrize("spec,k", INVARIANT_SPECS)
def test_tree_pickle_round_trip(spec, k):
    tree = build_tree(spec)
    cached = (tree.leaves, tree.internal_nodes, tree.depth)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree
    assert (clone.leaves, clone.internal_nodes, clone.depth) == cached
    assert pickle.loads(pickle.dumps(build_tree(spec))) == tree  # before caching


def test_shift_claim_root_and_leaf(trinomial2):
    xi = {leaf: abs(trinomial2.spot1(leaf)) for leaf in trinomial2.leaves}
    assert shift_claim(trinomial2, xi, trinomial2.root) == xi
    leaf = trinomial2.leaves[0]
    assert shift_claim(trinomial2, xi, leaf) == {leaf: xi[leaf]}


def test_shift_claim_mid_node(trinomial2):
    xi = {leaf: abs(trinomial2.spot1(leaf)) for leaf in trinomial2.leaves}
    mid = trinomial2.children(trinomial2.root)[0]
    piece = shift_claim(trinomial2, xi, mid)
    assert set(piece) == set(trinomial2.leaves_below(mid))
    assert all(piece[leaf] == abs(trinomial2.spot1(leaf)) for leaf in piece)


def test_stopping_time_validation(trinomial2):
    ok, _ = validate_stopping_time(trinomial2, {trinomial2.root})
    assert ok
    ok, _ = validate_stopping_time(trinomial2, set(trinomial2.leaves))
    assert ok
    ok, why = validate_stopping_time(
        trinomial2, {trinomial2.root, trinomial2.leaves[0]}
    )
    assert not ok and "ancestor" in why
    ok, why = validate_stopping_time(trinomial2, {trinomial2.leaves[0]})
    assert not ok  # misses most paths


def test_stopping_time_order(trinomial2):
    mids = set(trinomial2.nodes_at(1))
    assert stopping_time_below(trinomial2, {trinomial2.root}, mids)
    assert stopping_time_below(trinomial2, mids, set(trinomial2.leaves))
    assert not stopping_time_below(trinomial2, set(trinomial2.leaves), mids)


@given(st.integers(0, 500))
def test_random_stopping_times_are_valid(seed):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    tau = random_stopping_time(tree, rng)
    ok, why = validate_stopping_time(tree, tau)
    assert ok, why


def test_levels_need_breadth_first_ids():
    # depth-first ids: time 2 comes before the second time-1 node
    nodes = (
        Node(0, 0, (0,), None, (1, 3)),
        Node(1, 1, (-1,), 0, (2,)),
        Node(2, 2, (-2,), 1, ()),
        Node(3, 1, (1,), 0, ()),
    )
    with pytest.raises(TreeError):
        MarketTree(dim=1, nodes=nodes).levels
