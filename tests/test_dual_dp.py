from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from robusthedge import dual_dp
from robusthedge.claims import NAMED_KINDS, make_claim
from robusthedge.dual_dp import (
    LEVEL_BATCH_MIN,
    ValueField,
    backward_value,
    check_supermartingale,
    check_tower,
    one_step_sup,
    optimizer_measure,
)
from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    MeasureError,
    TreeMeasure,
)
from robusthedge.oracle_lp import global_sup_lp
from robusthedge.primal_hedge import extract_strategy, primal_lp
from robusthedge.random_instances import (
    random_claim,
    random_family,
    random_measure,
    random_ordered_stopping_pair,
    random_tree,
)
from robusthedge.simplex import RAT

from conftest import WIDE_GENERATORS, claim_is_exact, in_id_order, per_node_field, seeded, wide_tree

MART = FamilySpec(cls=MARTINGALE)


def one_step_tree(offsets):
    return build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": offsets}}
    )


def by_spot(tree, values):
    return {
        leaf: values[tree.spot1(leaf)] for leaf in tree.leaves
    }


# -- one-step solves -----------------------------------------------------


def test_one_step_unique_martingale_kernel():
    tree = one_step_tree([-1, 1])
    sol = one_step_sup(tree, 0, by_spot(tree, {-1: 1, 1: 1}), MART, exact=True)
    assert sol.value == 1
    assert sol.h == (0,)
    assert sorted(sol.kernel.probs.values()) == [RAT(1, 2), RAT(1, 2)]


def test_one_step_trinomial_two_point_optimum():
    tree = one_step_tree([-1, 0, 1])
    sol = one_step_sup(tree, 0, by_spot(tree, {-1: 1, 0: 0, 1: 1}), MART, exact=True)
    assert sol.value == 1
    lo = next(l for l in tree.leaves if tree.spot1(l) == -1)
    hi = next(l for l in tree.leaves if tree.spot1(l) == 1)
    assert sol.kernel.probs == {lo: RAT(1, 2), hi: RAT(1, 2)}


def test_one_step_infeasible_polytope_is_neg_inf():
    tree = one_step_tree([1, 2])
    sol = one_step_sup(tree, 0, by_spot(tree, {1: 5, 2: 7}), MART, exact=True)
    assert sol.value == NEG_INF and sol.kernel is None


def test_one_step_neg_inf_child_excluded():
    tree = one_step_tree([-1, 0, 1])
    sol = one_step_sup(tree, 0, by_spot(tree, {-1: 1, 0: NEG_INF, 1: 1}), MART, exact=True)
    assert sol.value == 1
    mid = next(l for l in tree.leaves if tree.spot1(l) == 0)
    assert sol.kernel.probs.get(mid, 0) == 0


def test_one_step_variance_cap_binds():
    tree = one_step_tree([-1, 0, 1])
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=RAT(1, 5), var_hi=RAT(3, 5))
    sol = one_step_sup(tree, 0, by_spot(tree, {-1: 1, 0: 0, 1: 1}), fam, exact=True)
    assert sol.value == RAT(3, 5)
    probs = {tree.spot1(c): p for c, p in sol.kernel.probs.items()}
    assert probs == {-1: RAT(3, 10), 0: RAT(2, 5), 1: RAT(3, 10)}


def test_one_step_all_family_picks_best_dirac():
    tree = one_step_tree([1, 2])
    sol = one_step_sup(tree, 0, by_spot(tree, {1: 5, 2: 7}), FamilySpec(cls=ALL), exact=True)
    assert sol.value == 7 and sol.h == (0,)
    assert list(sol.kernel.probs.values()) == [1]


# -- backward recursion --------------------------------------------------


def test_binomial_abs_value(binomial1):
    xi = {leaf: abs(binomial1.spot1(leaf)) for leaf in binomial1.leaves}
    assert backward_value(binomial1, xi, MART)[binomial1.root] == 1


def test_trinomial_abs_value(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    assert backward_value(trinomial1, xi, MART)[trinomial1.root] == 1


def test_constant_claim_propagates(trinomial2):
    xi = {leaf: RAT(7, 3) for leaf in trinomial2.leaves}
    Y = backward_value(trinomial2, xi, MART)
    assert all(v == RAT(7, 3) for v in Y.values())


def test_skewed_binomial_square_claim():
    tree = one_step_tree([-1, 2])
    xi = {leaf: tree.spot1(leaf) ** 2 for leaf in tree.leaves}
    Y = backward_value(tree, xi, MART)
    assert Y[tree.root] == 2
    assert Y.hedge == {tree.root: (1,)}


def test_linear_claim_replicates():
    tree = build_tree({"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}})
    xi = {leaf: tree.spot1(leaf) for leaf in tree.leaves}
    Y = backward_value(tree, xi, MART)
    assert set(Y.hedge) == set(tree.internal_nodes)
    for nid in tree.internal_nodes:
        assert Y[nid] == tree.spot1(nid)
        assert Y.hedge[nid] == (1,)


# -- value-field properties ----------------------------------------------


def test_optimizer_measure_attains_value(trinomial2):
    rng = seeded(11)
    xi = random_claim(trinomial2, rng)
    P = optimizer_measure(trinomial2, xi, MART)
    Y = backward_value(trinomial2, xi, MART)
    assert P.expectation(trinomial2, xi) == pytest.approx(Y[trinomial2.root], abs=1e-12)


def test_optimizer_measure_none_when_family_empty():
    tree = one_step_tree([1, 2])
    xi = {leaf: 1.0 for leaf in tree.leaves}
    assert optimizer_measure(tree, xi, MART) is None


def test_supermartingale_equality_under_optimizer(trinomial2):
    rng = seeded(12)
    xi = random_claim(trinomial2, rng)
    Y = backward_value(trinomial2, xi, MART)
    P = optimizer_measure(trinomial2, xi, MART)
    ok, _ = check_supermartingale(trinomial2, Y, P, MART)
    assert ok
    mass = P.node_mass(trinomial2)
    for nid in trinomial2.internal_nodes:
        if mass[nid] == 0:
            continue
        cond = sum(
            P.prob(nid, c) * Y[c] for c in trinomial2.children(nid)
        )
        assert cond == pytest.approx(Y[nid], abs=1e-12)


def test_value_under_all_family_is_running_max(trinomial2):
    xi = {leaf: float(leaf % 5) for leaf in trinomial2.leaves}
    fam = FamilySpec(cls=ALL)
    Y = backward_value(trinomial2, xi, fam)
    assert Y[trinomial2.root] == max(xi.values())
    # Dirac chain to the argmax child is a supermartingale witness
    kernels = {}
    for nid in trinomial2.internal_nodes:
        best = max(trinomial2.children(nid), key=lambda c: Y[c])
        kernels[nid] = Kernel(nid, {best: 1.0})
    ok, _ = check_supermartingale(trinomial2, Y, TreeMeasure(kernels), fam)
    assert ok


def test_supermartingale_rejects_non_member():
    tree = one_step_tree([-1, 1])
    lo, hi = tree.children(0)
    P = TreeMeasure({0: Kernel(0, {lo: 0.2, hi: 0.8})})
    with pytest.raises(MeasureError):
        check_supermartingale(tree, {0: 0, lo: 0, hi: 0}, P, MART)


# -- tower identity ------------------------------------------------------


def test_tower_trivial_pairs(trinomial2):
    rng = seeded(13)
    xi = random_claim(trinomial2, rng)
    leaves = set(trinomial2.leaves)
    assert check_tower(trinomial2, xi, MART, {trinomial2.root}, leaves)
    mids = set(trinomial2.nodes_at(1))
    assert check_tower(trinomial2, xi, MART, mids, mids)


def test_tower_random_pairs():
    for i in range(20):
        rng = seeded(100 + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        sigma, tau = random_ordered_stopping_pair(tree, rng)
        assert check_tower(tree, xi, fam, sigma, tau)


def test_tower_rejects_unordered_pair(trinomial2):
    xi = {leaf: 0.0 for leaf in trinomial2.leaves}
    mids = set(trinomial2.nodes_at(1))
    with pytest.raises(MeasureError):
        check_tower(trinomial2, xi, MART, set(trinomial2.leaves), mids)


# -- selections ----------------------------------------------------------


def test_optimizer_kernels_attain_node_values(trinomial2):
    rng = seeded(14)
    xi = random_claim(trinomial2, rng)
    Y = backward_value(trinomial2, xi, MART)
    P = optimizer_measure(trinomial2, xi, MART)
    assert set(P.kernels) == set(trinomial2.internal_nodes)
    for nid, k in P.kernels.items():
        got = sum(p * Y[c] for c, p in k.probs.items())
        assert got == pytest.approx(Y[nid], abs=1e-12)


def recorded_kernels(tree, xi, fam):
    """The kernels the backward loop found, recorded as it went, in node
    order (None if the root is -inf): each node solved once, against the
    values below it."""
    exact = claim_is_exact(xi)
    values, kernels = {}, {}
    for nid in reversed(tree.subtree_nodes(tree.root)):
        if tree.is_leaf(nid):
            values[nid] = xi[nid]
            continue
        sol = one_step_sup(tree, nid, values, fam, exact=exact)
        values[nid] = sol.value
        if sol.kernel is not None:
            kernels[nid] = sol.kernel
    if values[tree.root] == NEG_INF:
        return None
    return {n: kernels[n] for n in tree.internal_nodes if n in kernels}


@pytest.mark.parametrize("exact", [False, True])
def test_optimizer_kernels_equal_recorded_kernels(exact):
    seen = set()
    for i in range(24):
        rng = seeded(300 + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng, exact=exact)
        if i % 3 == 0:
            for leaf in rng.sample(tree.leaves, max(1, len(tree.leaves) // 3)):
                xi[leaf] = NEG_INF
        fam = FamilySpec(cls=ALL) if i % 4 == 0 else random_family(tree, rng, exact=exact)
        want = recorded_kernels(tree, xi, fam)
        P = optimizer_measure(tree, xi, fam)
        if want is None:
            assert P is None
            continue
        assert repr(P.kernels) == repr(want)  # probabilities bitwise, node order
        seen.add(fam.cls)
    assert seen == {ALL, MARTINGALE, VAR_BOUNDED}


# -- float/exact agreement ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_and_float_roots_agree(seed):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    xi_exact = random_claim(tree, rng, exact=True)
    xi_float = {leaf: float(v) for leaf, v in xi_exact.items()}
    ve = backward_value(tree, xi_exact, MART)[tree.root]
    vf = backward_value(tree, xi_float, MART)[tree.root]
    if ve == NEG_INF or vf == NEG_INF:
        assert ve == vf
    else:
        assert float(ve) == pytest.approx(vf, abs=1e-9)


# -- numeric mode ----------------------------------------------------------

# trees whose spots are floats, with exact claims: the claim sets the mode
TRINOMIAL_01 = {"dim": 1, "depth": 3, "generator": {"kind": "trinomial", "step": 0.1}}
D2_FLOAT = {"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]}}
FLOAT_SPOT_CASES = {
    "martingale": (TRINOMIAL_01, {"kind": "call", "strike": 0.05}, MART),
    "var-bounded": (TRINOMIAL_01, {"kind": "call", "strike": 0.05}, FamilySpec(cls=VAR_BOUNDED, var_lo=0.002, var_hi=0.006)),
    "d2": (D2_FLOAT, {"kind": "call", "strike": 0.5}, MART),
}


@pytest.mark.parametrize("name", list(FLOAT_SPOT_CASES))
def test_exact_claim_on_float_spots_gives_an_exact_field(name):
    """Float spots and variance bounds are read by their exact binary value,
    as the exact LPs read them: every value and multiplier is rational, and
    the root equals both exact LPs."""
    spec, claim, fam = FLOAT_SPOT_CASES[name]
    tree = build_tree(spec)
    xi = make_claim(tree, claim, exact=True)
    Y = backward_value(tree, xi, fam)
    assert Y.exact
    assert all(type(v) is RAT for v in Y.values())
    assert all(type(v) is RAT for h in Y.hedge.values() for v in h)
    root = Y[tree.root]
    assert root == global_sup_lp(tree, xi, fam, exact=True)[0] == primal_lp(tree, xi, fam, exact=True)[0]
    assert extract_strategy(tree, Y, fam).h == Y.hedge


@pytest.mark.parametrize("fam", [MART, FamilySpec(cls=ALL), FamilySpec(cls=VAR_BOUNDED, var_lo=RAT(1, 5), var_hi=RAT(3, 5))], ids=lambda f: f.cls)
def test_mixed_claim_gives_a_float_field(fam):
    """One float leaf puts the claim in float mode: the field, leaves
    included, and its multipliers are the floats of the all-float claim."""
    tree = build_tree({"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}})
    xi = {leaf: RAT(leaf % 5, 3) if leaf % 2 else (leaf % 7) / 4 for leaf in tree.leaves}
    xi[tree.leaves[4]] = NEG_INF
    Y = backward_value(tree, xi, fam)
    assert not Y.exact
    assert all(type(v) is float for v in Y.values())
    assert all(type(v) is float for h in Y.hedge.values() for v in h)
    ref = backward_value(tree, {leaf: float(v) for leaf, v in xi.items()}, fam)
    assert repr(Y) == repr(ref) and repr(Y.hedge) == repr(ref.hedge)


# -- level pass ------------------------------------------------------------


def counting_one_step_sup(monkeypatch):
    calls = []
    solve = dual_dp.one_step_sup

    def counted(tree, nid, *args, **kwargs):
        calls.append(nid)
        return solve(tree, nid, *args, **kwargs)

    monkeypatch.setattr(dual_dp, "one_step_sup", counted)
    return calls


def narrow_internal_nodes(tree):
    """The ids of the internal levels narrower than LEVEL_BATCH_MIN."""
    return [nid for level in tree.levels[:-1] if len(level) < LEVEL_BATCH_MIN for nid in level]


def table_claim(tree, rng, share, values):
    """A float table claim with a `share` of -inf leaves, so that some
    internal nodes have no martingale kernel left, and the other leaves
    drawn from `values`."""
    table = {leaf: "-inf" if rng.random() < share else rng.choice(values)() for leaf in tree.leaves}
    return make_claim(tree, {"kind": "table", "values": table})


def assert_fields_identical(Y, ref):
    assert isinstance(Y, ValueField)
    assert repr(Y) == in_id_order(ref)  # values bitwise, sign of zero, type, key set
    assert repr(Y.hedge) == in_id_order(ref.hedge)
    assert all(type(v) is float for v in Y.values())
    assert all(type(h1) is float for (h1,) in Y.hedge.values())


@pytest.mark.parametrize("block_rows", [dual_dp._BLOCK_ROWS, 7])  # one block, or many and a short one
@pytest.mark.parametrize("name", list(WIDE_GENERATORS))
def test_level_pass_equals_per_node_solves(name, block_rows, monkeypatch):
    monkeypatch.setattr(dual_dp, "_BLOCK_ROWS", block_rows)
    tree = wide_tree(WIDE_GENERATORS[name])
    rng = seeded(800)
    claims = [make_claim(tree, {"kind": kind, "strike": strike}) for kind in NAMED_KINDS for strike in (-1.5, 0, 0.5, 2)]
    mixed = [lambda: rng.uniform(-3, 3), lambda: -0.0, lambda: 0.0, lambda: 1.0]
    claims += [table_claim(tree, rng, share, mixed) for share in (0.1, 0.4, 0.7)]
    # every candidate is a signed zero: the first maximum decides the sign
    claims += [table_claim(tree, rng, share, [lambda: -0.0, lambda: 0.0]) for share in (0, 0.2)]
    narrow = narrow_internal_nodes(tree)  # the levels straddle LEVEL_BATCH_MIN
    assert 0 < len(narrow) < len(tree.internal_nodes)
    calls = counting_one_step_sup(monkeypatch)
    neg_inf_nodes = 0
    for xi in claims:
        for fam in (MART, MART.with_claim(xi)):
            calls.clear()
            Y = backward_value(tree, xi, fam)
            assert sorted(calls) == narrow  # only the narrow levels go node by node
            assert_fields_identical(Y, per_node_field(tree, xi, fam))
            neg_inf_nodes += sum(Y[n] == NEG_INF for n in tree.internal_nodes)
    assert neg_inf_nodes > 0


def row_block_values(pattern, offsets, rng, n):
    """n x k child values: finite, with -inf children, signed zeros (with
    and without -inf), or -inf at every child whose step is not up, so that
    no node has a martingale kernel."""
    k = len(offsets)
    if pattern == "no-kernel":
        return [rng.uniform(-3, 3) if o > 0 else NEG_INF for _ in range(n) for o in offsets]
    pools = {
        "finite": [lambda: rng.uniform(-3, 3)],
        "neg-inf": [lambda: rng.uniform(-3, 3)] * 3 + [lambda: NEG_INF],
        "signed-zero": [lambda: -0.0, lambda: 0.0],
        "signed-zero-neg-inf": [lambda: -0.0, lambda: 0.0, lambda: NEG_INF],
    }
    return [rng.choice(pools[pattern])() for _ in range(n * k)]


@pytest.mark.parametrize("pattern", ["finite", "neg-inf", "signed-zero", "signed-zero-neg-inf", "no-kernel"])
@pytest.mark.parametrize("offsets", [[-1, 0, 1], [-2, -1, 0, 1, 2], [-1, 3], [0, 1, 2], [1, 2]], ids=str)
def test_one_step_row_equals_repeated_rows(offsets, pattern):
    """`_martingale_rows` on one (1 x k) row of steps gives the values and
    multipliers of the same block with that row repeated at every node, bit
    for bit (one-sided rows and blocks without a kernel included)."""
    import numpy as np

    rng = seeded(820)
    n, k = 40, len(offsets)
    row = np.array([offsets], dtype=float)
    for _ in range(5):
        vals = np.array(row_block_values(pattern, offsets, rng, n))
        value, h = dual_dp._martingale_rows(row, vals, k)
        ref_value, ref_h = dual_dp._martingale_rows(np.repeat(row, n, axis=0), vals, k)
        assert value.shape == h.shape == (n,)
        assert value.tobytes() == ref_value.tobytes() and h.tobytes() == ref_h.tobytes()
    if pattern == "no-kernel":
        assert (value == NEG_INF).all() and not h.any()


D2_WIDE = {"dim": 2, "depth": 4, "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]}}


def per_node_cases():
    """Trees with wide levels whose every internal node still goes through
    `one_step_sup`: exact claims, Fraction and large int spots, VAR_BOUNDED,
    ALL, d = 2."""
    tri = build_tree({"dim": 1, "depth": 5, "generator": {"kind": "trinomial"}})
    frac = build_tree({"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [Fraction(-1, 3), 0, Fraction(1, 2)]}})
    # odd steps past 2**51: the spots are ints that no double holds exactly
    big = build_tree({"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [-(2**52) - 1, 0, 2**52 + 3]}})
    d2 = build_tree(D2_WIDE)
    lookback = {"kind": "lookback", "strike": 0.5}
    return [
        ("exact", tri, make_claim(tri, lookback, exact=True), MART),
        ("fraction-spots", frac, make_claim(frac, lookback), MART),
        ("large-int-spots", big, make_claim(big, {"kind": "abs"}), MART),
        ("var-bounded", tri, make_claim(tri, lookback), FamilySpec(cls=VAR_BOUNDED, var_lo=0.2, var_hi=0.6)),
        ("all", tri, make_claim(tri, lookback), FamilySpec(cls=ALL)),
        ("d2", d2, make_claim(d2, {"kind": "call", "strike": 0.5}), MART),
    ]


PER_NODE_CASES = per_node_cases()


@pytest.mark.parametrize("label,tree,xi,fam", PER_NODE_CASES, ids=[c[0] for c in PER_NODE_CASES])
def test_other_levels_solve_every_node(label, tree, xi, fam, monkeypatch):
    assert max(len(level) for level in tree.levels[:-1]) >= LEVEL_BATCH_MIN
    calls = counting_one_step_sup(monkeypatch)
    Y = backward_value(tree, xi, fam)
    assert sorted(calls) == list(tree.internal_nodes)
    ref = per_node_field(tree, xi, fam)
    assert repr(Y) == in_id_order(ref) and repr(Y.hedge) == in_id_order(ref.hedge)

