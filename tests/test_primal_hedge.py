import pytest
from hypothesis import given, settings, strategies as st

from robusthedge import dual_dp, oracle_lp, simplex
from robusthedge.dual_dp import backward_value, optimizer_measure
from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    MeasureError,
    TreeMeasure,
    alive_nodes,
)
from robusthedge.primal_hedge import (
    HedgeError,
    Strategy,
    certify_hedge,
    doob_meyer,
    extract_strategy,
    primal_lp,
    verify_superhedge,
    wealth,
)
from robusthedge.oracle_lp import (
    ORACLE_MAX_LEAVES,
    OracleScaleError,
    certify_leaf_law,
    global_sup_lp,
    leaf_law_rows,
)
from robusthedge.random_instances import random_claim, random_family, random_tree
from robusthedge.simplex import RAT, rat

from conftest import all_paths, counting_calls, seeded

MART = FamilySpec(cls=MARTINGALE)


def one_step_tree(offsets):
    return build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": offsets}}
    )


def zero_strategy(tree):
    return Strategy(h={n: (0.0,) for n in tree.internal_nodes})


def unit_strategy(tree):
    return Strategy(h={n: (1.0,) for n in tree.internal_nodes})


# -- wealth --------------------------------------------------------------


def test_wealth_zero_strategy_is_constant(trinomial2):
    H = zero_strategy(trinomial2)
    for path in all_paths(trinomial2):
        assert wealth(trinomial2, 3.5, H, path) == 3.5


def test_wealth_unit_strategy_telescopes(trinomial2):
    H = unit_strategy(trinomial2)
    for path in all_paths(trinomial2):
        assert wealth(trinomial2, 0.0, H, path) == trinomial2.spot1(path[-1])


def test_wealth_skewed_binomial():
    tree = one_step_tree([-1, 2])
    H = unit_strategy(tree)
    lo = next(l for l in tree.leaves if tree.spot1(l) == -1)
    hi = next(l for l in tree.leaves if tree.spot1(l) == 2)
    assert wealth(tree, 2.0, H, [tree.root, lo]) == 1.0
    assert wealth(tree, 2.0, H, [tree.root, hi]) == 4.0


# -- strategy extraction and verification --------------------------------


def test_extracted_hedge_dominates_trinomial_abs(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    Y = backward_value(trinomial1, xi, MART)
    H = extract_strategy(trinomial1, Y, MART)
    rep = verify_superhedge(trinomial1, Y[trinomial1.root], H, xi, MART)
    assert rep.ok and rep.min_slack == 0
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    assert rep.slacks[mid] == 1  # slack 1 at the zero leaf, 0 at both ends


def test_neg_inf_path_excluded_from_verification(trinomial1):
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    xi = {leaf: (NEG_INF if leaf == mid else 1.0) for leaf in trinomial1.leaves}
    fam = MART.with_claim(xi)
    rep = verify_superhedge(trinomial1, 1.0, zero_strategy(trinomial1), xi, fam)
    assert rep.ok
    assert [p[-1] for p in rep.polar] == [mid]
    assert mid not in rep.slacks


def test_underfunded_hedge_fails(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    Y = backward_value(trinomial1, xi, MART)
    H = extract_strategy(trinomial1, Y, MART)
    rep = verify_superhedge(trinomial1, Y[trinomial1.root] - 0.1, H, xi, MART)
    assert not rep.ok and rep.violations


def test_nan_claim_value_is_a_violation(trinomial1):
    """A NaN slack is not >= -tol, so its path is a violation, not a pass."""
    xi = {leaf: float(abs(trinomial1.spot1(leaf))) for leaf in trinomial1.leaves}
    Y = backward_value(trinomial1, xi, MART)
    H = extract_strategy(trinomial1, Y, MART)
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    rep = verify_superhedge(trinomial1, Y[trinomial1.root], H, {**xi, mid: float("nan")}, MART)
    assert not rep.ok
    assert rep.violations == [trinomial1.path_to(mid)]


def test_extract_strategy_requires_finite_root():
    tree = one_step_tree([1, 2])
    Y = backward_value(tree, {leaf: 1.0 for leaf in tree.leaves}, MART)
    with pytest.raises(HedgeError):
        extract_strategy(tree, Y, MART)


def test_extract_strategy_rejects_other_fields(trinomial2):
    xi = {leaf: abs(trinomial2.spot1(leaf)) for leaf in trinomial2.leaves}
    Y = backward_value(trinomial2, xi, MART)
    twin = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    rootless = backward_value(trinomial2, xi, MART)
    del rootless[trinomial2.root]  # this tree and family, but no root value
    others = (
        dict(Y),  # same values, no multipliers
        backward_value(trinomial2, xi, FamilySpec(cls=ALL)),
        backward_value(twin, xi, MART),  # an equal tree, not this one
        rootless,
    )
    for other in others:
        with pytest.raises(HedgeError):
            extract_strategy(trinomial2, other, MART)
    assert extract_strategy(trinomial2, Y, FamilySpec(cls=MARTINGALE)).h == extract_strategy(trinomial2, Y, MART).h


def test_extract_strategy_solves_nothing(trinomial2, monkeypatch):
    xi = random_claim(trinomial2, seeded(21))
    Y = backward_value(trinomial2, xi, MART)

    def fail(*args, **kwargs):
        raise AssertionError("extract_strategy solved a one-step problem")

    monkeypatch.setattr(dual_dp, "one_step_sup", fail)
    monkeypatch.setattr(simplex, "solve", fail)
    H = extract_strategy(trinomial2, Y, MART)
    assert H.h == {n: Y.hedge[n] for n in trinomial2.internal_nodes}


# -- primal LP -----------------------------------------------------------


def test_primal_binomial_abs(binomial1):
    xi = {leaf: abs(binomial1.spot1(leaf)) for leaf in binomial1.leaves}
    X0, H = primal_lp(binomial1, xi, MART)
    assert X0 == 1
    assert H.h[binomial1.root] == (0,)


def test_primal_trinomial_call(trinomial1):
    xi = {
        leaf: max(trinomial1.spot1(leaf), 0) for leaf in trinomial1.leaves
    }
    X0, H = primal_lp(trinomial1, xi, MART)
    assert X0 == RAT(1, 2)
    assert H.h[trinomial1.root] == (RAT(1, 2),)


def test_primal_all_polar_is_neg_inf():
    tree = one_step_tree([1, 2])
    X0, H = primal_lp(tree, {leaf: 1.0 for leaf in tree.leaves}, MART)
    assert X0 == NEG_INF


@pytest.mark.parametrize("exact", [False, True])
def test_primal_unbounded_lp_is_neg_inf(binomial1, exact):
    """An unrestricted family whose every kernel charges the -inf leaf: the
    finite leaf's row leaves the LP unbounded, and the value is -inf, with
    every node flagged, as the DP and the oracle have it."""
    up = next(l for l in binomial1.leaves if binomial1.spot1(l) > 0)
    xi = {leaf: (NEG_INF if leaf == up else 1.0) for leaf in binomial1.leaves}
    X0, H = primal_lp(binomial1, xi, MART, exact=exact)
    assert X0 == NEG_INF and H.flagged == set(binomial1.internal_nodes)
    assert backward_value(binomial1, xi, MART)[binomial1.root] == NEG_INF
    assert global_sup_lp(binomial1, xi, MART, exact=exact)[0] == NEG_INF


def test_primal_value_ignores_polar_leaf(trinomial1):
    # changing the claim on a polar path must not move the hedging cost
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    xi = {leaf: (NEG_INF if leaf == mid else 1.0) for leaf in trinomial1.leaves}
    fam = MART.with_claim(xi)
    base, _ = primal_lp(trinomial1, xi, fam)
    assert base == 1
    assert backward_value(trinomial1, xi, fam)[trinomial1.root] == 1


# -- certificates of the leaf-law LP solve --------------------------------


def solved_var_bounded(exact):
    """A depth-2 trinomial VAR_BOUNDED abs instance (mean and variance rows),
    its lift and its solved leaf-law LP."""
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    xi = {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}
    lo, hi = (RAT(1, 4), RAT(3, 4)) if exact else (0.25, 0.75)
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi)
    leaves, claim, eq, ub = leaf_law_rows(tree, xi, fam, tree.root)
    _, _, res = oracle_lp.leaf_law_lp(tree, xi, fam, tree.root, exact)
    assert res.status == "optimal" and ub
    return claim, eq, ub, res


@pytest.mark.parametrize("exact", [False, True])
def test_certificates_accept_the_solve(exact):
    claim, eq, ub, res = solved_var_bounded(exact)
    certify_hedge(claim, eq, ub, res.y_eq, res.y_ub, res.value, exact)
    certify_leaf_law(claim, eq, ub, res.x, res.value, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_hedge_certificate_rejects_a_leaf_below_its_claim(exact):
    """Moving the root's spot position by 1 lowers the wealth on one side
    of the root by a whole step, far below the claim there."""
    claim, eq, ub, res = solved_var_bounded(exact)
    y_eq = list(res.y_eq)
    y_eq[1] += 1
    with pytest.raises(HedgeError, match="below the claim"):
        certify_hedge(claim, eq, ub, y_eq, res.y_ub, res.value, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_hedge_certificate_rejects_a_negative_position(exact):
    claim, eq, ub, res = solved_var_bounded(exact)
    i = res.y_ub.index(0)  # a variance bound that does not bind
    for y in (-1, -RAT(1, 10**30)) if exact else (-1.0, -1e-6):
        y_ub = list(res.y_ub)
        y_ub[i] = y
        with pytest.raises(HedgeError, match="negative position"):
            certify_hedge(claim, eq, ub, res.y_eq, y_ub, res.value, exact)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("row", ["=", "<="])
def test_leaf_law_certificate_rejects_a_violated_row(row, exact):
    """Mass moved between leaves keeps the total and the signs but breaks
    one of the root's lifted rows: the first leaf's mass moved below the
    root's middle child breaks its mean row; the mass of the middle
    child's middle leaf spread over the outer children's middle leaves
    keeps every mean row and raises the root's variance past var_hi."""
    claim, eq, ub, res = solved_var_bounded(exact)
    q = list(res.x)
    assert claim == [2, 1, 0, 1, 0, 1, 0, 1, 2] and min(q) > 0
    if row == "=":
        q[3], q[0] = q[3] + q[0], 0 * q[0]
    else:
        q[1], q[7], q[4] = q[1] + q[4] / 2, q[7] + q[4] / 2, 0 * q[4]
    with pytest.raises(MeasureError, match=f"fails a lifted {row} row of node 0"):
        certify_leaf_law(claim, eq, ub, q, res.value, exact)


def test_float_certificates_allow_rounding_and_exact_ones_do_not():
    claim, eq, ub, res = solved_var_bounded(True)
    y_ub = list(res.y_ub)
    y_ub[y_ub.index(0)] = -1e-12
    certify_hedge(claim, eq, ub, res.y_eq, y_ub, res.value, exact=False)
    with pytest.raises(HedgeError, match="is not the LP value"):
        certify_hedge(claim, eq, ub, res.y_eq, res.y_ub, res.value + RAT(1, 10**30), exact=True)
    with pytest.raises(MeasureError, match="mean claim"):
        certify_leaf_law(claim, eq, ub, res.x, res.value + RAT(1, 10**30), exact=True)


# -- compensator ---------------------------------------------------------


def test_compensator_zero_under_optimizer(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    Y = backward_value(trinomial1, xi, MART)
    H = extract_strategy(trinomial1, Y, MART)
    P = optimizer_measure(trinomial1, xi, MART)
    K = doob_meyer(trinomial1, Y, H, P)
    assert all(v == 0 for v in K.values())


def test_compensator_positive_on_slack_path(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    Y = backward_value(trinomial1, xi, MART)
    H = extract_strategy(trinomial1, Y, MART)
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    P = TreeMeasure({trinomial1.root: Kernel(trinomial1.root, {mid: 1.0})})
    K = doob_meyer(trinomial1, Y, H, P)
    assert K[mid] == 1


def test_compensator_zero_for_linear_claim():
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    xi = {leaf: float(tree.spot1(leaf)) for leaf in tree.leaves}
    Y = backward_value(tree, xi, MART)
    H = extract_strategy(tree, Y, MART)
    from robusthedge.random_instances import random_measure

    for i in range(5):
        P = random_measure(tree, seeded(500 + i), MART)
        K = doob_meyer(tree, Y, H, P)
        assert all(abs(v) <= 1e-12 for v in K.values())


def test_compensator_accounting_identity():
    # E[K at leaves] = Y(root) - E[claim] under any family measure
    from robusthedge.random_instances import random_measure

    for i in range(10):
        rng = seeded(600 + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng)
        Y = backward_value(tree, xi, MART)
        if Y[tree.root] == NEG_INF:
            continue
        H = extract_strategy(tree, Y, MART)
        P = random_measure(tree, rng, MART)
        K = doob_meyer(tree, Y, H, P)
        law = P.leaf_law(tree)
        ek = sum(law[l] * K[l] for l in tree.leaves if law[l] > 0)
        assert ek == pytest.approx(
            Y[tree.root] - P.expectation(tree, xi), abs=1e-9
        )


# -- three-way agreement -------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_primal_matches_dual_value(seed, exact):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    xi = random_claim(tree, rng, exact=exact)
    fam = random_family(tree, rng, exact=exact)
    dp = backward_value(tree, xi, fam)[tree.root]
    pv, _ = primal_lp(tree, xi, fam, exact=exact)
    if dp == NEG_INF or pv == NEG_INF:
        assert dp == pv
    elif exact:
        assert dp == pv
    else:
        assert dp == pytest.approx(pv, abs=1e-9)


def var_bounded_neg_inf_instances(exact):
    """(tree, xi, fam): 20 five-offset depth-2 trees with -inf table leaves
    under a VAR_BOUNDED family, without and with the claim filter."""
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]}})
    base = FamilySpec(cls=VAR_BOUNDED, var_lo=0.5, var_hi=2.5)
    if exact:
        base = FamilySpec(cls=VAR_BOUNDED, var_lo=rat(0.5), var_hi=rat(2.5))
    for i in range(20):
        rng = seeded(800 + i)
        xi = random_claim(tree, rng, exact=exact, kind="table")
        for leaf in rng.sample(tree.leaves, rng.randint(1, 12)):
            xi[leaf] = NEG_INF
        for fam in (base, base.with_claim(xi)):
            yield tree, xi, fam


@pytest.mark.parametrize("exact", [False, True])
def test_var_bounded_primal_lp_with_neg_inf_leaves(exact):
    """The VAR_BOUNDED primal LP hedges below the alive nodes only (those
    where some family measure avoids the -inf leaves).  On five-offset
    trees with -inf table leaves it meets the DP and the oracle, claim
    filter or not, and it flags exactly the nodes where the DP is -inf."""
    neg_roots = flagged = 0
    for tree, xi, fam in var_bounded_neg_inf_instances(exact):
        Y = backward_value(tree, xi, fam)
        dp = Y[tree.root]
        lp, _ = global_sup_lp(tree, xi, fam, exact=exact)
        pv, H = primal_lp(tree, xi, fam, exact=exact)
        if dp == NEG_INF:
            neg_roots += 1
            assert lp == pv == NEG_INF
            continue
        if exact:
            assert dp == lp == pv
        else:
            assert abs(dp - lp) <= 1e-9 and abs(dp - pv) <= 1e-9
        assert H.flagged == {n for n in tree.internal_nodes if Y[n] == NEG_INF}
        flagged += bool(H.flagged)
    assert neg_roots >= 2 and flagged >= 2  # each under both families


def test_exact_primal_takes_the_nodes_its_law_charges_as_alive(monkeypatch):
    """An exact certified leaf law avoids the -inf leaves, so every node it
    charges is alive: given those nodes, `alive_nodes` returns the flags it
    finds alone, on the -inf instances above.  When the law charges every
    internal node (the one martingale kernel of a binomial tree has
    variance 1), the exact primal enumerates no vertex kernel; the float
    primal, whose law is no proof, does."""
    charged_some = 0
    for tree, xi, fam in var_bounded_neg_inf_instances(True):
        value, law = global_sup_lp(tree, xi, fam)
        if law is None:
            continue
        charged = {n for leaf, q in law.items() if q for n in tree.path_to(leaf)[:-1]}
        alive = alive_nodes(tree, fam, xi)
        assert all(alive[n] for n in charged)
        assert alive_nodes(tree, fam, xi, charged) == alive
        charged_some += bool(charged)
    assert charged_some >= 10
    tree = build_tree({"dim": 1, "depth": 3, "generator": {"kind": "binomial"}})
    xi = {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}
    enumerations = counting_calls(monkeypatch, oracle_lp, "enumerate_vertex_kernels")
    for exact, lo, hi in ((True, RAT(1, 2), RAT(2)), (False, 0.5, 2.0)):
        del enumerations[:]
        pv, H = primal_lp(tree, xi, FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi), exact=exact)
        assert abs(pv - RAT(3, 2)) <= 1e-9 and not H.flagged  # E|S_3| of the symmetric walk
        assert (len(enumerations) == 0) == exact


def test_zero_rhs_rows_start_on_their_slacks_and_their_duals_certify(monkeypatch):
    """Every lifted VAR_BOUNDED row is a `<=` row with rhs 0: the exact
    leaf-law LP starts it on its slack, with no artificial column (phase 1
    has one artificial per equality row), and its dual, read from the
    slack's reduced cost, passes `certify_hedge`, some of them positive."""
    starts = []
    run = simplex._run_simplex

    def recorded(T, D, basis, n_enter):
        starts.append((list(basis), len(T[0]) - 1))
        return run(T, D, basis, n_enter)

    monkeypatch.setattr(simplex, "_run_simplex", recorded)
    claim, eq, ub, res = solved_var_bounded(True)
    (basis, ncols), _ = starts  # phase 1, phase 2
    nv, n_eq, n_ub = len(claim), 1 + len(eq), len(ub)
    assert ncols == nv + n_ub + n_eq
    assert basis == [*range(nv + n_ub, ncols), *range(nv, nv + n_ub)]
    certify_hedge(claim, eq, ub, res.y_eq, res.y_ub, res.value, True)
    assert any(y > 0 for y in res.y_ub)


@pytest.mark.parametrize("fam", [MART, FamilySpec(cls=ALL)], ids=["martingale", "all"])
def test_exact_primal_lp_refuses_trees_past_the_leaf_limit(monkeypatch, fam):
    tree = build_tree({"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}})
    assert len(tree.leaves) == 2187 > ORACLE_MAX_LEAVES
    xi = {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}

    def no_rows(*args, **kwargs):
        raise AssertionError("the LP was built")

    monkeypatch.setattr(simplex, "solve", no_rows)
    monkeypatch.setattr(oracle_lp, "leaf_law_rows", no_rows)
    with pytest.raises(OracleScaleError):
        primal_lp(tree, xi, fam, exact=True)
