import itertools

import pytest
from hypothesis import given, settings, strategies as st

from robusthedge import oracle_lp, simplex
from robusthedge.claims import make_claim
from robusthedge.dual_dp import backward_value, one_step_sup
from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    TreeMeasure,
    in_family,
    one_step_rows,
    polar_paths,
)
from robusthedge.oracle_lp import (
    ORACLE_MAX_CHILDREN,
    ORACLE_MAX_LEAVES,
    HedgeError,
    OracleScaleError,
    _polytope_vertices,
    enumerate_vertex_kernels,
    ess_sup_check,
    global_sup_lp,
    upper_concave_envelope,
    upward_directed_check,
)
from robusthedge.primal_hedge import primal_lp
from robusthedge.random_instances import (
    random_claim,
    random_family,
    random_measure,
    random_stopping_time,
    random_tree,
)
from robusthedge.simplex import RAT, rat

from conftest import (
    counting_calls,
    enumerate_polytope_vertices,
    fair_measure,
    reference_factorize_leaf_law,
    reference_path_lp,
    reference_solve_unique,
    seeded,
)

MART = FamilySpec(cls=MARTINGALE)


def one_step_tree(offsets):
    return build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": offsets}}
    )


# -- vertex enumeration --------------------------------------------------


def test_unique_martingale_vertex():
    tree = one_step_tree([-1, 1])
    verts = enumerate_vertex_kernels(tree, 0, MART)
    assert len(verts) == 1
    assert sorted(verts[0].probs.values()) == [RAT(1, 2), RAT(1, 2)]


def test_trinomial_martingale_vertices():
    tree = one_step_tree([-1, 0, 1])
    verts = enumerate_vertex_kernels(tree, 0, MART)
    supports = sorted(
        tuple(sorted(tree.spot1(c) for c in v.support())) for v in verts
    )
    assert supports == [(-1, 1), (0,)]


def test_all_family_vertices_are_diracs():
    tree = one_step_tree([-1, 0, 1])
    verts = enumerate_vertex_kernels(tree, 0, FamilySpec(cls=ALL))
    assert sorted(len(v.support()) for v in verts) == [1, 1, 1]


def test_infeasible_node_has_no_vertices():
    tree = one_step_tree([1, 2])
    assert enumerate_vertex_kernels(tree, 0, MART) == []


# -- memoised vertex enumeration -----------------------------------------


def uncached_vertices(n, A_eq, b_eq, A_ub=(), b_ub=()):
    """The enumeration loop as it ran before the memo, solved afresh in
    rationals (`reference_solve_unique`)."""
    A_eq = [[rat(v) for v in row] for row in A_eq]
    b_eq = [rat(v) for v in b_eq]
    A_ub = [[rat(v) for v in row] for row in A_ub]
    b_ub = [rat(v) for v in b_ub]
    seen, out = set(), []
    for k_act in range(len(A_ub) + 1):
        for act in itertools.combinations(range(len(A_ub)), k_act):
            rows = A_eq + [A_ub[i] for i in act]
            rhs = b_eq + [b_ub[i] for i in act]
            for size in range(1, min(n, len(rows)) + 1):
                for support in itertools.combinations(range(n), size):
                    sol = reference_solve_unique([[row[j] for j in support] for row in rows], rhs)
                    if sol is None or any(v < 0 for v in sol):
                        continue
                    x = [RAT(0)] * n
                    for j, v in zip(support, sol):
                        x[j] = v
                    if all(sum(a * xx for a, xx in zip(r, x)) <= bb for r, bb in zip(A_ub, b_ub)):
                        if tuple(x) not in seen:
                            seen.add(tuple(x))
                            out.append(x)
    out.sort()
    return out


def node_vertex_lists(tree, fam):
    """(memoised, uncached) vertex lists of every internal node's polytope."""
    out = []
    for nid in tree.internal_nodes:
        k = len(tree.children(nid))
        rows = one_step_rows(tree, nid, tree.children(nid), fam)
        out.append((enumerate_polytope_vertices(k, *rows), uncached_vertices(k, *rows)))
    return out


@pytest.mark.parametrize("exact", [False, True])
def test_memoised_vertices_match_uncached_on_random_trees(exact):
    classes = set()
    for i in range(12):
        rng = seeded(700 + i)
        tree = random_tree(rng, max_depth=3, max_branch=4)
        fam = random_family(tree, rng, exact=exact)
        classes.add(fam.cls)
        for cached, fresh in node_vertex_lists(tree, fam):
            assert cached == fresh
    assert classes == {MARTINGALE, VAR_BOUNDED}


def test_memoised_vertices_match_uncached_in_two_dimensions():
    tree = build_tree(
        {"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-1, 2], [-0.5, -0.5]]}}
    )
    pairs = node_vertex_lists(tree, MART)
    assert pairs[0][0]  # a martingale kernel exists
    for cached, fresh in pairs:
        assert cached == fresh


def test_float_steps_that_differ_in_the_last_bit_are_separate_keys():
    tree = build_tree(
        {"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": [-0.2, 0.1, 0.3]}}
    )
    steps = {tuple(tree.step(n, c) for c in tree.children(n)) for n in tree.internal_nodes}
    assert len(steps) > 1  # (x + 0.1) - x != 0.1 at some node
    for fam in (MART, FamilySpec(cls=VAR_BOUNDED, var_lo=0.01, var_hi=0.05)):
        pairs = node_vertex_lists(tree, fam)
        for cached, fresh in pairs:
            assert cached == fresh
        assert len({repr(cached) for cached, _ in pairs}) > 1


def test_mutating_returned_vertices_leaves_the_memo_intact():
    rows = one_step_rows(one_step_tree([-1, 0, 1]), 0, (1, 2, 3), MART)
    first = enumerate_polytope_vertices(3, *rows)
    expected = [list(v) for v in first]
    first[0][0] = RAT(7)
    first.append([RAT(1)] * 3)
    assert enumerate_polytope_vertices(3, *rows) == expected


def test_memo_stays_within_its_bound():
    for k in range(1, 300):
        verts = enumerate_polytope_vertices(2, [[1, 1], [-1, k]], [1, 0])
        assert verts == [[RAT(k, k + 1), RAT(1, k + 1)]]
    info = _polytope_vertices.cache_info()
    assert info.maxsize == 256
    assert info.currsize <= 256


def uncached_kernels(tree, nid, fam):
    """`enumerate_vertex_kernels` without the memo: fresh rows, fresh vertices."""
    children = tree.children(nid)
    rows = one_step_rows(tree, nid, children, fam)
    return [
        Kernel(nid, {c: p for c, p in zip(children, v) if p > 0})
        for v in uncached_vertices(len(children), *rows)
    ]


def assert_kernels_match_uncached(tree, fam):
    for nid in tree.internal_nodes:
        cached = enumerate_vertex_kernels(tree, nid, fam)
        fresh = uncached_kernels(tree, nid, fam)
        # equal values in the same child order, and one fresh dict per kernel
        assert [(k.node, list(k.probs.items())) for k in cached] == [
            (k.node, list(k.probs.items())) for k in fresh
        ]
        again = enumerate_vertex_kernels(tree, nid, fam)
        assert all(a.probs is not b.probs for a, b in zip(cached, again))


@pytest.mark.parametrize("exact", [False, True])
def test_vertex_kernels_match_uncached_on_random_trees(exact):
    classes = set()
    for i in range(12):
        rng = seeded(700 + i)
        tree = random_tree(rng, max_depth=3, max_branch=4)
        fam = random_family(tree, rng, exact=exact)
        classes.add(fam.cls)
        assert_kernels_match_uncached(tree, fam)
    assert classes == {MARTINGALE, VAR_BOUNDED}


@pytest.mark.parametrize("offsets", [
    [[1, 1], [-1, -1], [2, -1], [-1, 2], [-0.5, -0.5]],
    [[1, 1], [-1, -1], [2, -1], [-1, 2], [RAT(-1, 2), RAT(-1, 2)]],
], ids=["float", "fraction"])
def test_vertex_kernels_match_uncached_in_two_dimensions(offsets):
    tree = build_tree({"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": offsets}})
    assert enumerate_vertex_kernels(tree, tree.root, MART)  # a martingale kernel exists
    assert_kernels_match_uncached(tree, MART)
    assert_kernels_match_uncached(tree, FamilySpec(cls=ALL))


@pytest.mark.parametrize("float_first", [True, False])
def test_float_tree_and_its_exact_twin_keep_separate_entries(float_first):
    offsets = [-0.2, 0.1, 0.3]
    flt, twin = (
        build_tree({"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": offs}})
        for offs in (offsets, [rat(v) for v in offsets])
    )
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=0.01, var_hi=0.05)
    twin_fam = FamilySpec(cls=VAR_BOUNDED, var_lo=rat(0.01), var_hi=rat(0.05))
    root_rows = [one_step_rows(t, t.root, t.children(t.root), f) for t, f in ((flt, fam), (twin, twin_fam))]
    # the steps are equal as exact values, the squared steps are not
    assert root_rows[0][0] == root_rows[1][0] and root_rows[0][3] == root_rows[1][3]
    assert root_rows[0][2] != root_rows[1][2]
    _polytope_vertices.cache_clear()
    pairs = [(flt, fam), (twin, twin_fam)]
    for tree, f in pairs if float_first else pairs[::-1]:
        assert_kernels_match_uncached(tree, f)
    roots = [enumerate_vertex_kernels(t, t.root, f) for t, f in pairs]
    assert roots[0] and roots[0] != roots[1]


# -- fraction-free elimination against the rational reference -------------


def random_number(rng):
    """0, a small int, a small-denominator Fraction or a random double
    (denominators up to 2**52 and beyond)."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-5, 5)
    if kind == 2:
        return RAT(rng.randint(-9, 9), rng.randint(1, 8))
    return rng.uniform(-3, 3)


def test_integer_elimination_matches_the_rational_reference():
    """`_solve_unique` on integer-scaled rows gives the solution of
    `reference_solve_unique`, or None with it, on square, overdetermined,
    rank-deficient and inconsistent systems."""
    rng = seeded(900)
    outcomes = set()
    for _ in range(600):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        A = [[random_number(rng) for _ in range(n)] for _ in range(m)]
        b = [random_number(rng) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # a repeated row: consistent or not
            A[-1] = list(A[0])
            b[-1] = b[0] if rng.random() < 0.5 else b[0] + 1
        rows = [simplex.over_common_denominator([*a, bb])[0] for a, bb in zip(A, b)]
        got = oracle_lp._solve_unique(rows, n)
        want = reference_solve_unique(A, b)
        if got is not None:
            nums, den = got
            assert den > 0
            got = [RAT(v, den) for v in nums]
        assert got == want
        outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("bounds", ["fraction", "float", "infeasible"])
def test_integer_enumeration_matches_the_rational_reference(bounds):
    """The vertices of VAR_BOUNDED one-step polytopes from the integer
    enumeration equal those of the rational reference loop: with Fraction
    variance bounds, with random float bounds (2**52 denominators) and
    with bounds no kernel meets (no vertex)."""
    rng = seeded(910)
    found = 0
    for _ in range(12):
        offsets = sorted({rng.choice([-2, -1, -0.5, 0, 0.3, 1, 1.5, 2, RAT(2, 3)]) for _ in range(rng.randint(2, 5))})
        tree = one_step_tree(offsets)
        if bounds == "fraction":
            lo = RAT(rng.randint(1, 8), rng.randint(4, 9))
            fam = FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=lo + RAT(rng.randint(0, 9), 7))
        elif bounds == "float":
            lo = rng.uniform(0.05, 1.0)
            fam = FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=lo + rng.uniform(0, 2))
        else:
            fam = FamilySpec(cls=VAR_BOUNDED, var_lo=100, var_hi=200)
        rows = one_step_rows(tree, tree.root, tree.children(tree.root), fam)
        _polytope_vertices.cache_clear()
        got = enumerate_polytope_vertices(len(offsets), *rows)
        assert got == uncached_vertices(len(offsets), *rows)
        assert all(type(p) is RAT for v in got for p in v)
        found += len(got)
    assert (found == 0) == (bounds == "infeasible")


# -- global LP oracle ----------------------------------------------------


def test_global_lp_binomial_abs(binomial1):
    xi = {leaf: abs(binomial1.spot1(leaf)) for leaf in binomial1.leaves}
    val, law = global_sup_lp(binomial1, xi, MART)
    assert val == 1
    assert sum(q * xi[leaf] for leaf, q in law.items()) == val


def test_global_lp_trinomial_abs(trinomial1):
    xi = {leaf: abs(trinomial1.spot1(leaf)) for leaf in trinomial1.leaves}
    val, law = global_sup_lp(trinomial1, xi, MART)
    assert val == 1
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    assert law[mid] == 0
    assert sum(q * xi[leaf] for leaf, q in law.items()) == val


def test_global_lp_forces_zero_on_restricted_leaf(trinomial1):
    mid = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    xi = {leaf: (NEG_INF if leaf == mid else 1) for leaf in trinomial1.leaves}
    fam = MART.with_claim(xi)
    val, law = global_sup_lp(trinomial1, xi, fam)
    assert val == 1
    assert law[mid] == 0
    assert sum(q * xi[leaf] for leaf, q in law.items() if leaf != mid) == val


def test_global_lp_empty_family_is_neg_inf():
    tree = one_step_tree([1, 2])
    xi = {leaf: 1.0 for leaf in tree.leaves}
    val, law = global_sup_lp(tree, xi, MART)
    assert val == NEG_INF and law is None


@pytest.mark.parametrize("exact", [True, False])
def test_global_lp_optimizer_stays_in_family(exact):
    """In exact mode the optimal law, factorized by the reference, is a
    family measure whose mean claim is the value.  In float mode the law
    meets the reference rows of its family (mass 1 among them), has no
    entry below 0 and has the value as its mean claim, each within 1e-9.
    Both modes give the -inf leaves 0."""
    for i in range(15):
        rng = seeded(300 + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng, exact=exact)
        fam = random_family(tree, rng, exact=exact)
        val, law = global_sup_lp(tree, xi, fam, exact=exact)
        if val == NEG_INF:
            continue
        assert all(q == 0 for leaf, q in law.items() if xi[leaf] == NEG_INF)
        if exact:
            P = reference_factorize_leaf_law(tree, fam, law, tree.root)
            ok, why = in_family(tree, P, fam.with_claim(xi))
            assert ok, why
            assert P.expectation(tree, xi) == val
            continue
        leaves, A_eq, b_eq, A_ub, b_ub, c_obj = reference_path_lp(tree, xi, fam, tree.root)
        q = [law[leaf] for leaf in leaves]
        assert min(q) >= -1e-9
        for row, b in zip(A_eq, b_eq):
            assert abs(sum(a * p for a, p in zip(row, q)) - b) <= 1e-9
        for row, b in zip(A_ub, b_ub):
            assert sum(a * p for a, p in zip(row, q)) <= b + 1e-9
        assert abs(sum(c * p for c, p in zip(c_obj, q)) - val) <= 1e-9


def test_oracle_scale_guard():
    assert ORACLE_MAX_CHILDREN == 12
    verts = enumerate_vertex_kernels(one_step_tree(list(range(-6, 6))), 0, MART)
    assert len(verts) == 1 + 6 * 5  # the Dirac at 0 and one pair per (down, up)
    for hi in (7, 8):  # 13 and 14 children
        with pytest.raises(OracleScaleError):
            enumerate_vertex_kernels(one_step_tree(list(range(-6, hi))), 0, MART)


def test_oracle_leaf_limit():
    """The leaf limit binds the exact leaf-law LP only; the float one runs
    past it and meets the DP."""
    tree = build_tree({"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}})
    assert len(tree.leaves) == 2187 > ORACLE_MAX_LEAVES
    xi = {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}
    with pytest.raises(OracleScaleError, match="2187 leaves exceed the oracle leaf limit 2000"):
        global_sup_lp(tree, xi, MART, exact=True)
    value, _ = global_sup_lp(tree, xi, MART, exact=False)
    assert abs(value - backward_value(tree, xi, MART)[tree.root]) <= 1e-9


def test_restricted_polar_paths_past_the_leaf_limit_build_no_lp(monkeypatch):
    """The claim-restricted polar set comes from the node-local passes, so
    the oracle leaf limit does not apply and no leaf-law LP row is built.
    Leaf 0 is the -inf up child of its parent; its down sibling then has no
    alive upward partner, and only the flat sibling stays chargeable."""
    tree = build_tree({"dim": 1, "depth": 7, "generator": {"kind": "trinomial"}})
    assert len(tree.leaves) == 2187 > ORACLE_MAX_LEAVES
    xi = {leaf: 0.0 for leaf in tree.leaves}
    xi[tree.leaves[0]] = NEG_INF
    fam = MART.with_claim(xi)

    def no_rows(*args, **kwargs):
        raise AssertionError("a leaf-law LP row was built")

    monkeypatch.setattr(oracle_lp, "leaf_law_rows", no_rows)
    monkeypatch.setattr(simplex, "solve", no_rows)
    want = [tree.path_to(tree.leaves[0]), tree.path_to(tree.leaves[2])]
    assert polar_paths(tree, fam) == want
    assert polar_paths(tree, fam, xi) == want


# -- the leaf-law LP memo -------------------------------------------------


def lookback_instance(exact):
    tree = build_tree({"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}})
    return tree, make_claim(tree, {"kind": "lookback", "strike": 0.5}, exact=exact), FamilySpec(cls=MARTINGALE)


def counting_solves(monkeypatch):
    calls = []
    solve = simplex.solve

    def counted(*args, **kwargs):
        calls.append(kwargs["exact"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve", counted)
    return calls


@pytest.mark.parametrize("exact", [False, True])
def test_oracle_then_primal_on_equal_instances_solve_once(monkeypatch, exact):
    """The oracle and the primal on two distinct but equal instances (trees,
    claims and families built twice) share one solve and one run of each
    certificate: the second call is a memo hit, and both read the same
    LPResult."""
    calls = counting_solves(monkeypatch)
    laws = counting_calls(monkeypatch, oracle_lp, "certify_leaf_law")
    hedges = counting_calls(monkeypatch, oracle_lp, "certify_hedge")
    lp, _ = global_sup_lp(*lookback_instance(exact), exact=exact)
    pv, _ = primal_lp(*lookback_instance(exact), exact=exact)
    assert calls == [exact]
    assert len(laws) == len(hedges) == 1
    info = oracle_lp._solved_leaf_law.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert type(lp) is type(pv) is (RAT if exact else float)
    assert lp == pv if exact else abs(lp - pv) <= 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_oracle_then_primal_lift_an_instance_once(monkeypatch, exact):
    """The memo is keyed on the instance, so the primal after the oracle
    reads the lift and the solve of the oracle: `leaf_law_rows` runs once."""
    lifts = counting_calls(monkeypatch, oracle_lp, "leaf_law_rows")
    for build in (lookback_instance, var_bounded_instance):
        del lifts[:]
        tree, xi, fam = build(exact)
        lp, _ = global_sup_lp(tree, xi, fam, exact=exact)
        pv, _ = primal_lp(tree, xi, fam, exact=exact)
        assert len(lifts) == 1
        assert lp == pv if exact else abs(lp - pv) <= 1e-9


def var_bounded_instance(exact):
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    lo, hi = (RAT(1, 4), RAT(3, 4)) if exact else (0.25, 0.75)
    return tree, {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}, FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi)


def test_a_float_tree_and_its_exact_twin_are_lifted_apart(monkeypatch):
    """A tree compares its offsets by value, and a family its variance
    bounds, so a float tree and its exact twin are equal, while their spots
    and squared steps are not: the memo key holds the numbers' types, so the
    twin is lifted and solved on its own, to the value of a fresh solve, and
    a repeat on either is a hit."""
    offsets = [-0.2, 0.1, 0.3]
    flt, twin = (
        build_tree({"dim": 1, "depth": 2, "generator": {"kind": "explicit", "offsets": offs}})
        for offs in (offsets, [rat(v) for v in offsets])
    )
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=0.02, var_hi=0.04)
    twin_fam = FamilySpec(cls=VAR_BOUNDED, var_lo=rat(0.02), var_hi=rat(0.04))
    assert flt == twin and fam == twin_fam
    xi = {leaf: abs(flt.spot1(leaf)) for leaf in flt.leaves}  # one claim for both
    fresh = []
    for tree, f in ((flt, fam), (twin, twin_fam)):
        oracle_lp._solved_leaf_law.cache_clear()
        fresh.append(global_sup_lp(tree, xi, f)[0])
    assert fresh[0] != fresh[1]
    lifts = counting_calls(monkeypatch, oracle_lp, "leaf_law_rows")
    for tree, f, want in ((flt, fam, fresh[0]), (twin, twin_fam, fresh[1]), (twin, twin_fam, fresh[1])):
        assert global_sup_lp(tree, xi, f)[0] == want
    assert len(lifts) == 2


def lex_smallest_law(tree, xi, fam, exact):
    """The leaf law and mean claim of the measure made of the vertex
    oracle's first kernel, the lexicographically smallest, at every node."""
    P = TreeMeasure({n: enumerate_vertex_kernels(tree, n, fam)[0] for n in tree.internal_nodes})
    law = P.leaf_law(tree)
    q = [law[leaf] if exact else float(law[leaf]) for leaf in tree.leaves]
    return q, P.expectation(tree, xi) if exact else float(P.expectation(tree, xi))


@pytest.mark.parametrize("exact", [False, True])
def test_a_feasible_but_suboptimal_law_is_refused(monkeypatch, exact):
    """A solver that hands back a feasible law below the optimum, with its
    mean as the value and the true row duals, passes the law's certificate
    but not the hedge's: weak duality needs both, so the oracle and the
    primal raise instead of reporting the lower value."""
    tree, xi, fam = lookback_instance(exact)
    q, mean = lex_smallest_law(tree, xi, fam, exact)
    solve = simplex.solve

    def suboptimal(*args, **kwargs):
        res = solve(*args, **kwargs)
        assert mean < res.value
        return simplex.LPResult(status="optimal", x=q, value=mean, y_eq=res.y_eq, y_ub=res.y_ub)

    monkeypatch.setattr(simplex, "solve", suboptimal)
    laws = counting_calls(monkeypatch, oracle_lp, "certify_leaf_law")
    for cross_check in (lambda: global_sup_lp(tree, xi, fam, exact=exact), lambda: primal_lp(tree, xi, fam, exact=exact)):
        with pytest.raises(HedgeError, match="is not the LP value"):
            cross_check()
    assert len(laws) == 2  # the law passed its certificate both times


@pytest.mark.parametrize("exact", [False, True])
def test_an_infeasible_lp_at_an_alive_start_raises(monkeypatch, exact):
    """An "infeasible" from the solver while a family measure avoids the
    -inf leaves is a solver failure, not the value -inf, in both modes."""
    monkeypatch.setattr(simplex, "solve", lambda *args, **kwargs: simplex.LPResult(status="infeasible"))
    tree, xi, fam = lookback_instance(exact)
    mode = "exact" if exact else "float"
    want = f"{mode} path LP infeasible, but a family measure below node 0 avoids the -inf leaves"
    with pytest.raises(HedgeError, match=want):
        global_sup_lp(tree, xi, fam, exact=exact)
    with pytest.raises(HedgeError, match=want):
        primal_lp(tree, xi, fam, exact=exact)


def test_mutated_claim_misses_the_memo(monkeypatch):
    """A claim changed in place between two calls is a new LP: it is solved
    again, and its value is that of a fresh solve."""
    calls = counting_solves(monkeypatch)
    tree, xi, fam = lookback_instance(True)
    before, _ = global_sup_lp(tree, xi, fam)
    for leaf in tree.leaves:
        xi[leaf] += 1
    after, _ = global_sup_lp(tree, xi, fam)
    assert len(calls) == 2 and after == before + 1
    oracle_lp._solved_leaf_law.cache_clear()
    assert global_sup_lp(tree, xi, fam)[0] == after


@pytest.mark.parametrize("exact_first", [True, False])
def test_float_and_exact_modes_never_share_an_entry(monkeypatch, exact_first):
    """The same lift in both modes (an int claim, which both modes read as
    itself) is solved once per mode, each in its own arithmetic, and the
    memo never holds more than one entry."""
    calls = counting_solves(monkeypatch)
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    xi = {leaf: abs(tree.spot1(leaf)) for leaf in tree.leaves}
    fam = FamilySpec(cls=MARTINGALE)
    for exact in (exact_first, not exact_first):
        value, _ = global_sup_lp(tree, xi, fam, exact=exact)
        assert type(value) is (RAT if exact else float) and value == 1
        assert oracle_lp._solved_leaf_law.cache_info().currsize <= 1
    assert calls == [exact_first, not exact_first]


# -- concave envelope ----------------------------------------------------


def test_envelope_interpolates_hull():
    pts = [(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
    assert upper_concave_envelope(pts, 0.0) == 1.0
    assert upper_concave_envelope(pts, 0.5) == 1.0
    assert upper_concave_envelope(pts, -1.0) == 1.0
    assert upper_concave_envelope(pts, 2.0) == NEG_INF  # outside the hull


def test_envelope_ignores_neg_inf_points():
    pts = [(-1.0, 1.0), (0.0, NEG_INF), (1.0, 1.0)]
    assert upper_concave_envelope(pts, 0.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_envelope_matches_one_step_solver(seed):
    rng = seeded(seed)
    k = rng.randint(2, 6)
    offs = sorted({round(rng.uniform(-3, 3), 6) for _ in range(k)})
    if len(offs) < 2:
        offs = [-1.0, 1.0]
    tree = one_step_tree(offs)
    V = {leaf: rng.uniform(-2, 2) for leaf in tree.leaves}
    sol = one_step_sup(tree, 0, V, MART, exact=False)
    env = upper_concave_envelope([(tree.spot1(l), V[l]) for l in tree.leaves], 0.0)
    if sol.value == NEG_INF or env == NEG_INF:
        assert sol.value == env
    else:
        assert abs(sol.value - env) <= 1e-10


# -- subtree representation ----------------------------------------------


def test_ess_sup_trivial_stopping_times(trinomial2):
    rng = seeded(21)
    xi = random_claim(trinomial2, rng)
    P = random_measure(trinomial2, rng, MART)
    assert ess_sup_check(trinomial2, xi, MART, {trinomial2.root}, P)
    assert ess_sup_check(trinomial2, xi, MART, set(trinomial2.leaves), P)


def test_ess_sup_random_pairs():
    for i in range(15):
        rng = seeded(400 + i)
        tree = random_tree(rng, max_depth=3, max_branch=3)
        xi = random_claim(tree, rng)
        fam = random_family(tree, rng)
        tau = random_stopping_time(tree, rng)
        P = random_measure(tree, rng, fam)
        assert ess_sup_check(tree, xi, fam, tau, P)


@pytest.mark.parametrize("avoid", [True, False], ids=["one-neg-inf", "both-neg-inf"])
def test_upward_directed_with_neg_inf_expectations(trinomial2, avoid):
    """P1 charges a -inf leaf below node 1.  When P2 avoids it (a point mass
    on the flat step) the bifurcation takes P2 there and meets the finite
    expectation; when P2 charges it too, both sides are -inf."""
    low = trinomial2.children(1)[0]
    xi = {leaf: (NEG_INF if leaf == low else abs(trinomial2.spot1(leaf))) for leaf in trinomial2.leaves}
    P1 = fair_measure(trinomial2)
    P2 = P1
    if avoid:
        flat = next(c for c in trinomial2.children(1) if trinomial2.step(1, c) == (0,))
        P2 = TreeMeasure({**P1.kernels, 1: Kernel(1, {flat: 1.0})})
    assert P1.expectation(trinomial2, xi, start=1) == NEG_INF
    assert (P2.expectation(trinomial2, xi, start=1) == NEG_INF) is not avoid
    assert upward_directed_check(trinomial2, xi, MART, 1, P1, P2)
    assert upward_directed_check(trinomial2, xi, MART, 1, P2, P1)


# -- dp vs lp agreement --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_dp_equals_global_lp(seed, exact):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    xi = random_claim(tree, rng, exact=exact)
    fam = random_family(tree, rng, exact=exact)
    dp = backward_value(tree, xi, fam)[tree.root]
    lp, _ = global_sup_lp(tree, xi, fam, exact=exact)
    if dp == NEG_INF or lp == NEG_INF:
        assert dp == lp
    elif exact:
        assert dp == lp
    else:
        assert dp == pytest.approx(lp, abs=1e-9)
