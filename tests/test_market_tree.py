import copy
import pickle
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional

import numpy as np

import pytest
from hypothesis import given, strategies as st

from robusthedge import market_tree
from robusthedge.claims import make_claim
from robusthedge.dual_dp import LEVEL_BATCH_MIN, backward_value
from robusthedge.market_tree import (
    NEG_INF,
    NodeValues,
    NodeVectors,
    TreeError,
    _offsets_from_generator,
    build_tree,
    stopping_time_below,
    validate_stopping_time,
    value_gap,
)
from robusthedge.measure_families import MARTINGALE, FamilySpec, polar_paths
from robusthedge.primal_hedge import extract_strategy, verify_superhedge
from robusthedge.random_instances import random_stopping_time, random_tree

from conftest import exact_spec, seeded


def test_binomial_depth1_shape(binomial1):
    assert len(binomial1.nodes) == 3
    assert sorted(binomial1.spot1(leaf) for leaf in binomial1.leaves) == [-1, 1]
    assert binomial1.spot(binomial1.root) == (0,)


def test_trinomial_depth2_shape(trinomial2):
    assert len(trinomial2.nodes) == 13  # 1 + 3 + 9
    for t in range(3):
        assert len(trinomial2.nodes_at(t)) == 3**t
    assert all(trinomial2.time(leaf) == 2 for leaf in trinomial2.leaves)


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
    for nid in tree.nodes:
        kids = tree.children(nid)
        if not kids:
            assert tree.time(nid) == spec["depth"]
            continue
        assert list(kids) == list(range(kids[0], kids[0] + k))
        assert kids[0] > nid
        assert all(tree.parent(c) == nid and tree.time(c) == tree.time(nid) + 1 for c in kids)
    assert tree.subtree_nodes(tree.root) == list(range(len(tree.nodes)))


@pytest.mark.parametrize("spec,k", INVARIANT_SPECS)
def test_tree_pickle_round_trip(spec, k):
    tree = build_tree(spec)
    cached = (tree.leaves, tree.internal_nodes, tree.depth)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree
    assert (clone.leaves, clone.internal_nodes, clone.depth) == cached
    assert pickle.loads(pickle.dumps(build_tree(spec))) == tree  # before caching


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


# -- the per-node builder the array-backed tree replaced ----------------------


@dataclass(frozen=True)
class Node:
    """One node of the reference builder, as a value."""

    id: int
    t: int
    x: tuple
    parent: Optional[int]
    children: tuple


def naive_build_tree(spec):
    """(nodes, levels, leaves, internal_nodes) of the spec, built one Node per
    id as the package did before its trees became generator-backed: every
    spot is `tuple(map(add, parent.x, off))`, parents first."""
    dim = int(spec.get("dim", 1))
    depth = int(spec["depth"])
    offsets = _offsets_from_generator(spec["generator"])
    k = len(offsets)
    n_internal = sum(k**t for t in range(depth))
    ids = list(range(n_internal + k**depth))
    nodes = [Node(ids[0], 0, tuple(0 for _ in range(dim)), None, tuple(ids[1 : k + 1]))]
    for pid in range(n_internal):
        parent = nodes[pid]
        for off in offsets:
            first = k * len(nodes) + 1  # past the last id for a leaf: no children
            nodes.append(
                Node(ids[len(nodes)], parent.t + 1, tuple(map(add, parent.x, off)), parent.id,
                     tuple(ids[first : first + k]))
            )
    ts = [n.t for n in nodes]
    starts = [bisect_left(ts, t) for t in range(ts[-1] + 2)]
    levels = tuple(map(range, starts, starts[1:]))
    leaves = tuple(n.id for n in nodes if not n.children)
    internal = tuple(n.id for n in nodes if n.children)
    return nodes, levels, leaves, internal


def explicit_spec(dim, depth, offsets):
    return {"dim": dim, "depth": depth, "generator": {"kind": "explicit", "offsets": offsets}}


D2_OFFSETS = [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]
REFERENCE_SPECS = [spec for spec, _ in INVARIANT_SPECS] + [
    # Fraction offsets, as --exact reads them from a config
    exact_spec({"dim": 1, "depth": 4, "generator": {"kind": "trinomial", "step": 0.1}}),
    exact_spec(explicit_spec(1, 4, [1.5, -0.25, -0.5])),
    exact_spec(explicit_spec(2, 3, D2_OFFSETS)),
    # accumulated float spots
    {"dim": 1, "depth": 6, "generator": {"kind": "trinomial", "step": 0.1}},
    {"dim": 1, "depth": 5, "generator": {"kind": "binomial", "up": 0.3}},
    # mixed int and float offsets
    explicit_spec(1, 4, [-1, 0.5, 2, -0.3]),
    explicit_spec(2, 3, D2_OFFSETS),
]


def random_tree_specs(n):
    """Specs of `n` random_tree draws, read back from the drawn trees."""
    out = []
    for i in range(n):
        tree = random_tree(seeded(300 + i))
        out.append(explicit_spec(1, tree.depth, [o for (o,) in tree.offsets]))
        assert build_tree(out[-1]) == tree
    return out


def assert_matches_reference(tree, spec):
    nodes, levels, leaves, internal = naive_build_tree(spec)
    assert tree.nodes == range(len(nodes))
    # repr: spot values and types
    for ref in nodes:
        i = ref.id
        assert repr(tree.spot(i)) == repr(ref.x) and repr(tree.spot1(i)) == repr(ref.x[0])
        assert (tree.time(i), tree.parent(i), tuple(tree.children(i))) == (ref.t, ref.parent, ref.children)
        assert tree.is_leaf(i) == (not ref.children)
    assert repr(tree.levels) == repr(levels)
    assert tuple(tree.leaves) == leaves
    assert tuple(tree.internal_nodes) == internal
    assert tree.depth == len(levels) - 1
    for t in range(-1, len(levels) + 1):
        assert tuple(tree.nodes_at(t)) == tuple(n.id for n in nodes if n.t == t)
    id_sets = (tree.nodes, tree.leaves, tree.internal_nodes, tree.nodes_at(0), tree.nodes_at(-1))
    assert all(type(ids) is range for ids in id_sets + tuple(map(tree.children, tree.nodes)))


@pytest.mark.parametrize("spec", REFERENCE_SPECS + random_tree_specs(50))
def test_tree_matches_per_node_builder(spec):
    tree = build_tree(spec)
    assert_matches_reference(tree, spec)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree
    assert repr(clone.coords) == repr(tree.coords)
    assert_matches_reference(clone, spec)


SPOT_ARRAY_SPECS = REFERENCE_SPECS + [
    # one more level would put an int spot past INT_SPOT_BOUND = 2**51
    explicit_spec(1, 4, [-(2**49), 0.5, 2**49]),
    explicit_spec(1, 5, [-(2**49), 0.5, 2**49]),
    explicit_spec(1, 3, [-(2**52) - 1, 0, 2**52 + 3]),
    # floats past 2**53, where a step of 1.0 rounds away
    explicit_spec(1, 4, [1e16, 1.0, -1.0]),
    explicit_spec(1, 3, [True, -1]),
]


@pytest.mark.parametrize("spec", SPOT_ARRAY_SPECS + random_tree_specs(10))
def test_spot_array_matches_coordinate_lists(spec):
    """float64 exactly when every spot is a float or an int within the
    bound, with the values `float` gives them; otherwise the spots
    themselves.  Built once per coordinate."""
    tree = build_tree(spec)
    for j, xs in enumerate(tree.coords):
        arr = tree.spot_array(j)
        assert tree.spot_array(j) is arr and len(arr) == len(xs)
        small = all(
            type(x) is float or (type(x) is int and abs(x) <= market_tree.INT_SPOT_BOUND) for x in xs
        )
        if small:
            assert arr.dtype == float
            assert repr(arr.tolist()) == repr([float(x) for x in xs])  # signed zeros included
        else:
            assert arr.dtype == object
            assert all(a is x for a, x in zip(arr.tolist(), xs))


# float, int, mixed int and float, and Fraction spots, in d = 1 and d = 2
ON_DEMAND_SPECS = [
    {"dim": 1, "depth": 5, "generator": {"kind": "trinomial", "step": 0.1}},
    {"dim": 1, "depth": 4, "generator": {"kind": "binomial"}},
    explicit_spec(1, 4, [-1, 0.5, 2, -0.3]),
    explicit_spec(2, 3, D2_OFFSETS),
    exact_spec({"dim": 1, "depth": 4, "generator": {"kind": "trinomial", "step": 0.1}}),
    exact_spec(explicit_spec(2, 3, D2_OFFSETS)),
]


def read_orders(tree):
    """Orders in which to read every spot: deepest leaf first, then the
    root; root first; a middle level first; one leaf's step first."""
    ids = list(tree.nodes)
    mid = list(tree.levels[len(tree.levels) // 2])
    leaf = tree.leaves[-1]
    yield "deepest-first", ids[::-1], None
    yield "root-first", ids, None
    yield "middle-first", mid + ids, None
    yield "step-first", ids, (tree.parent(leaf), leaf)


@pytest.mark.parametrize("spec", ON_DEMAND_SPECS)
def test_spots_on_demand_match_reference_in_any_read_order(spec):
    """However the spot lists are grown, each spot is `repr`-equal to the
    per-node builder's: the same additions, in the same order."""
    nodes = naive_build_tree(spec)[0]
    orders = list(read_orders(build_tree(spec)))
    for order, ids, edge in orders:
        tree = build_tree(spec)
        if edge is not None:
            n, c = edge
            assert repr(tree.step(n, c)) == repr(tuple(a - b for a, b in zip(nodes[c].x, nodes[n].x))), order
        for i in ids:
            assert repr(tree.spot(i)) == repr(nodes[i].x), (order, i)
            assert repr(tree.spot1(i)) == repr(nodes[i].x[0]), (order, i)
        assert repr(tree.coords) == repr(tuple(list(xs) for xs in zip(*(n.x for n in nodes)))), order
    # the full lists first, then the reads
    tree = build_tree(spec)
    tree.coords
    assert all(repr(tree.spot(n.id)) == repr(n.x) for n in nodes)


def test_deep_path_grows_only_the_narrow_spot_levels():
    """Claim, DP, hedge and verification on a float tree read the spot
    arrays, built from the offsets; only the DP's per-node levels (fewer than
    LEVEL_BATCH_MIN nodes) read spots from the lists, so these are not grown
    past the first level of LEVEL_BATCH_MIN or more nodes, and the full
    lists are never built."""
    tree = build_tree({"dim": 1, "depth": 8, "generator": {"kind": "trinomial", "step": 0.5}})
    first_wide = next(level for level in tree.levels if len(level) >= LEVEL_BATCH_MIN)
    fam = FamilySpec(cls=MARTINGALE)
    for kind in ("lookback", "asian"):
        xi = make_claim(tree, {"kind": kind, "strike": 0.1})
        Y = backward_value(tree, xi, fam)
        rep = verify_superhedge(tree, Y[tree.root], extract_strategy(tree, Y, fam), xi, fam)
        assert rep.ok and rep.polar == polar_paths(tree, fam) == []
    assert 1 < len(tree._xs[0]) <= first_wide.stop
    assert "coords" not in vars(tree)


# -- id-indexed values -------------------------------------------------------


def test_node_values_reads_like_a_dict():
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial", "step": 0.5}})
    xi = make_claim(tree, {"kind": "linear"})
    want = {leaf: tree.spot1(leaf) for leaf in tree.leaves}
    assert isinstance(xi, NodeValues) and xi.ids == tree.levels[-1]
    assert xi == want and want == xi and xi != {**want, 4: 1.0}
    assert repr(xi) == repr(want)
    assert list(xi.items()) == sorted(want.items())  # id order
    assert list(xi) == list(tree.leaves) and list(xi.values()) == [want[l] for l in tree.leaves]
    assert len(xi) == 9 and 0.5 in xi.values() and NEG_INF not in xi.values()
    assert xi.array.tolist() == list(want.values())
    for missing in (tree.root, 3, 13, -1, "4", None):
        assert missing not in xi
        assert xi.get(missing) is None and xi.get(missing, "x") == "x"
        with pytest.raises(KeyError):
            xi[missing]
    with pytest.raises(KeyError):
        xi[13] = 1.0  # no id outside the range can be added
    emptied = xi.copy()
    del emptied[5]
    assert 5 not in emptied and emptied.get(5) is None and len(emptied) == 8
    assert list(emptied) == [l for l in tree.leaves if l != 5]
    assert repr(emptied) == repr({l: v for l, v in want.items() if l != 5}) and xi == want


def test_node_values_assignment_keeps_the_array_in_step():
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    xi = make_claim(tree, {"kind": "abs"})
    arr = xi.array
    assert arr.dtype == float and arr.tolist() == list(xi.values())
    with pytest.raises(ValueError):
        arr[0] = 5.0  # a read-only view
    xi[7] = NEG_INF
    assert xi.array[7 - 4] == NEG_INF and xi[7] == NEG_INF
    assert repr(xi.array.tolist()) == repr(list(xi.values()))
    del xi[8]
    assert xi.array is None  # not every id holds a value
    xi[8] = -0.0
    assert repr(xi.array.tolist()) == repr(list(xi.values()))
    xi[9] = Fraction(1, 3)
    assert xi.array is None and xi[9] == Fraction(1, 3)
    field = NodeValues(range(3))
    field.write(range(1, 3), [1.0, 2.0], np.array([1.0, 2.0]))
    assert field.array is None and field == {1: 1.0, 2: 2.0}
    field[0] = 0.5
    assert field.array.tolist() == [0.5, 1.0, 2.0]


def test_exact_claims_keep_their_rationals():
    tree = build_tree(exact_spec({"dim": 1, "depth": 2, "generator": {"kind": "explicit", "offsets": [-0.5, 0.25, 1]}}))
    for spec in ({"kind": "asian", "strike": 0.1}, {"kind": "table", "values": {str(l): l / 3 for l in tree.leaves}}):
        xi = make_claim(tree, spec, exact=True)
        assert xi.array is None
        assert all(type(v) is Fraction for v in xi.values())


def test_node_values_pickle_and_copy_keep_values_and_empty_ids():
    values = NodeValues(range(10, 14), [1.5, Fraction(1, 2), NEG_INF, -0.0], np.array([0.0] * 4))
    del values[11]
    for clone in (pickle.loads(pickle.dumps(values)), copy.deepcopy(values), copy.copy(values), values.copy()):
        assert repr(clone) == repr(values) and len(clone) == 3 and 11 not in clone
        clone[11] = 2.0
        assert 11 not in values


def test_node_vectors_read_tuples_from_columns():
    h = NodeVectors.empty(range(4), 2)
    for nid in reversed(range(4)):
        h[nid] = (float(nid), Fraction(nid, 2))
    want = {nid: (float(nid), Fraction(nid, 2)) for nid in range(4)}
    assert h == want and repr(h) == repr(want) and list(h.values()) == list(want.values())
    assert [list(c.values()) for c in h.columns] == [[0.0, 1.0, 2.0, 3.0], [Fraction(n, 2) for n in range(4)]]
    with pytest.raises(ValueError):
        h[0] = (1.0,)
    with pytest.raises(KeyError):
        h[4]


def test_float_deep_path_reads_no_value_id_by_id(monkeypatch):
    """Claim, DP, hedge and verification hand each other float64 arrays on
    a d = 1 martingale tree: values are read one id at a time only by the
    per-node solves of the levels narrower than LEVEL_BATCH_MIN, which
    read their children, and by the two checks of the root."""
    read = []
    getitem = NodeValues.__getitem__  # `in` and get() read through it too

    def counted(self, nid):
        read.append(nid)
        return getitem(self, nid)

    monkeypatch.setattr(NodeValues, "__getitem__", counted)
    tree = build_tree({"dim": 1, "depth": 6, "generator": {"kind": "trinomial", "step": 0.1}})
    fam = FamilySpec(cls=MARTINGALE)
    xi = make_claim(tree, {"kind": "lookback", "strike": 0.1})
    Y = backward_value(tree, xi, fam)
    # levels 0-3 (40 nodes) go node by node; level 4 is one array pass
    assert read and max(read) < tree.levels[5].start
    read.clear()
    H = extract_strategy(tree, Y, fam)
    rep = verify_superhedge(tree, 0.25, H, xi, fam)
    assert read == [tree.root, tree.root] and len(rep.slacks) == len(tree.leaves)


# -- the gap of two values over [-inf, inf) --------------------------------

INF = float("inf")
VALUE_GAPS = [
    (NEG_INF, NEG_INF, 0.0),
    (NEG_INF, 1.0, INF),
    (NEG_INF, 0, INF),
    (Fraction(1, 3), NEG_INF, INF),
    (1.5, 1.0, 0.5),
    (3, Fraction(7, 2), Fraction(1, 2)),
    (Fraction(1, 10), Fraction(1, 10), Fraction(0)),
    (Fraction(1, 2), 0.25, 0.25),
    (0.1, Fraction(1, 10), abs(0.1 - Fraction(1, 10))),  # a float result, not 0
]


@pytest.mark.parametrize("a,b,gap", VALUE_GAPS)
def test_value_gap_over_the_extended_reals(a, b, gap):
    """Both -inf is no gap, one -inf an infinite one; otherwise |a - b| in
    the numbers' own arithmetic, exact between ints and Fractions."""
    assert value_gap(a, b) == gap and value_gap(b, a) == gap
    if not any(isinstance(v, float) for v in (a, b)):
        assert type(value_gap(a, b)) is type(gap)
