import pytest
from hypothesis import given, settings, strategies as st

from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    Kernel,
    MeasureError,
    TreeMeasure,
    bifurcate,
    chargeable_children,
    conditional_abs_terminal,
    family_from_doc,
    in_family,
    is_martingale_kernel,
    kernel_mean,
    kernel_variance,
    one_step_rows,
    paste,
    polar_paths,
    rcpd,
    truncate_kernels,
    validate_kernel,
)
from robusthedge.random_instances import (
    random_measure,
    random_stopping_time,
    random_tree,
)

from conftest import fair_measure, seeded


def _tri_kernel(tree, q):
    lo, mid, hi = tree.children(tree.root)
    return Kernel(tree.root, {lo: q, mid: 1 - 2 * q, hi: q})


# -- kernel-level checks -------------------------------------------------


def test_kernel_mean_cases(binomial1, trinomial1):
    lo, hi = binomial1.children(binomial1.root)
    assert kernel_mean(binomial1, Kernel(0, {lo: 0.5, hi: 0.5})) == (0.0,)
    skew = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [-1, 2]}}
    )
    a, b = skew.children(skew.root)
    assert kernel_mean(skew, Kernel(0, {a: 2 / 3, b: 1 / 3}))[0] == pytest.approx(0.0)
    three = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [3, 4]}}
    )
    assert kernel_mean(three, Kernel(0, {three.children(0)[0]: 1.0})) == (3.0,)


def test_martingale_kernel_cases(binomial1, trinomial1):
    lo, hi = binomial1.children(binomial1.root)
    assert is_martingale_kernel(binomial1, Kernel(0, {lo: 0.5, hi: 0.5}))
    assert not is_martingale_kernel(binomial1, Kernel(0, {lo: 0.4, hi: 0.6}))
    pos = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [1, 2]}}
    )
    a, b = pos.children(pos.root)
    for p in (0.0, 0.3, 1.0):
        assert not is_martingale_kernel(pos, Kernel(0, {a: p, b: 1 - p}))
    assert is_martingale_kernel(trinomial1, _tri_kernel(trinomial1, 0.3))


def test_kernel_variance_cases(binomial1, trinomial1):
    lo, hi = binomial1.children(binomial1.root)
    assert kernel_variance(binomial1, Kernel(0, {lo: 0.5, hi: 0.5})) == 1.0
    for q in (0.1, 0.25, 0.5):
        assert kernel_variance(trinomial1, _tri_kernel(trinomial1, q)) == pytest.approx(2 * q)
    mid = trinomial1.children(trinomial1.root)[1]
    assert kernel_variance(trinomial1, Kernel(0, {mid: 1.0})) == 0


def test_validate_kernel_rejects_bad_mass(binomial1):
    lo, hi = binomial1.children(binomial1.root)
    with pytest.raises(MeasureError):
        validate_kernel(binomial1, Kernel(0, {lo: 0.6, hi: 0.6}))
    with pytest.raises(MeasureError):
        validate_kernel(binomial1, Kernel(0, {lo: -0.2, hi: 1.2}))


# -- membership ----------------------------------------------------------


def test_fair_binomial_is_martingale_member(binomial2):
    P = fair_measure(binomial2)
    ok, why = in_family(binomial2, P, FamilySpec(cls=MARTINGALE))
    assert ok, why


def test_claim_filter_rejects_charging_neg_inf_leaf(binomial1):
    P = fair_measure(binomial1)
    down = min(binomial1.leaves, key=binomial1.spot1)
    xi = {leaf: (NEG_INF if leaf == down else 1.0) for leaf in binomial1.leaves}
    fam = FamilySpec(cls=MARTINGALE, claim=xi)
    ok, why = in_family(binomial1, P, fam)
    assert not ok and str(down) in why


def test_variance_floor_rejects_low_dispersion_kernel(trinomial1):
    P = TreeMeasure({trinomial1.root: _tri_kernel(trinomial1, 0.1)})
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=0.5, var_hi=1.0)
    ok, why = in_family(trinomial1, P, fam)
    assert not ok  # variance 0.2 < 0.5


# -- conditioning --------------------------------------------------------


def test_one_step_rows_cases(trinomial1):
    root = trinomial1.root
    kids = trinomial1.children(root)
    assert one_step_rows(trinomial1, root, kids, FamilySpec(cls=ALL)) == ([[1, 1, 1]], [1], [], [])
    var = FamilySpec(cls=VAR_BOUNDED, var_lo=0.5, var_hi=2)
    assert one_step_rows(trinomial1, root, kids[::-1], var) == (
        [[1, 1, 1], [1, 0, -1]],
        [1, 0],
        [[1, 0, 1], [-1, 0, -1]],
        [2, -0.5],
    )
    d2 = build_tree({"dim": 2, "depth": 1, "generator": {"kind": "explicit", "offsets": [[1, 0], [-1, 0], [0, 1], [0, -1]]}})
    A_eq, _, A_ub, _ = one_step_rows(d2, d2.root, d2.children(d2.root), FamilySpec(cls=MARTINGALE))
    assert A_eq[1:] == [[1, -1, 0, 0], [0, 0, 1, -1]] and A_ub == []
    with pytest.raises(MeasureError, match="d = 1 only"):
        one_step_rows(d2, d2.root, d2.children(d2.root), var)


# 27 significant bits: on some C libraries pow(x, 2) rounds x * x the wrong
# way in the last bit for this step (glibc 2.36 among them)
POW_STEP = 0.8585355058312416


def test_float_variance_rows_square_by_multiplication():
    """The variance row of a float step and `kernel_variance` hold
    dx * dx bitwise, whatever the C library's pow gives for dx ** 2."""
    tree = build_tree({"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [-POW_STEP, 0.0, POW_STEP]}})
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=0.25, var_hi=0.75)
    kids = tree.children(tree.root)
    A_eq, _, A_ub, _ = one_step_rows(tree, tree.root, kids, fam)
    assert A_eq[1] == [-POW_STEP, 0.0, POW_STEP]
    squares = [dx * dx for dx in A_eq[1]]
    assert repr(A_ub) == repr([squares, [-v for v in squares]])
    assert repr(kernel_variance(tree, Kernel(tree.root, {kids[2]: 1.0}))) == repr(POW_STEP * POW_STEP)


def test_rcpd_at_root_is_identity(binomial2):
    P = fair_measure(binomial2)
    assert rcpd(binomial2, P, binomial2.root).kernels == P.kernels


def test_rcpd_at_mid_node_is_one_step_coin(binomial2):
    P = fair_measure(binomial2)
    up = binomial2.children(binomial2.root)[1]
    piece = rcpd(binomial2, P, up)
    assert set(piece.kernels) == {up}
    assert piece.prob(up, binomial2.children(up)[0]) == 0.5


def test_rcpd_conditional_expectation_identity():
    # E[xi] = sum over tau-nodes of P(reach m) * E_rcpd(m)[xi restricted]
    rng = seeded(1)
    tree = build_tree({"dim": 1, "depth": 3, "generator": {"kind": "trinomial"}})
    fam = FamilySpec(cls=MARTINGALE)
    P = random_measure(tree, rng, fam)
    xi = {leaf: rng.uniform(-2, 2) for leaf in tree.leaves}
    mass = P.node_mass(tree)
    for m in tree.nodes_at(1):
        lhs = sum(
            mass[leaf] * xi[leaf] for leaf in tree.leaves_below(m)
        )
        rhs = mass[m] * rcpd(tree, P, m).expectation(tree, xi, start=m)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- pasting and bifurcation ---------------------------------------------


def test_paste_at_root_returns_replacement(trinomial2):
    P = fair_measure(trinomial2)
    rng = seeded(2)
    nu_root = random_measure(trinomial2, rng, FamilySpec(cls=MARTINGALE))
    glued = paste(trinomial2, P, {trinomial2.root}, {trinomial2.root: nu_root})
    assert glued.kernels == nu_root.kernels


def test_paste_at_leaves_returns_original(trinomial2):
    P = fair_measure(trinomial2)
    glued = paste(trinomial2, P, set(trinomial2.leaves), {})
    assert glued.kernels == P.kernels


def test_paste_rejects_bad_stopping_time(trinomial2):
    P = fair_measure(trinomial2)
    with pytest.raises(MeasureError):
        paste(trinomial2, P, {trinomial2.root, trinomial2.leaves[0]}, {})


def test_bifurcate_extreme_selections(trinomial2):
    rng = seeded(3)
    fam = FamilySpec(cls=MARTINGALE)
    P1 = random_measure(trinomial2, rng, fam)
    tau = set(trinomial2.nodes_at(1))
    fresh = random_measure(trinomial2, rng, fam)
    below = set()
    for m in tau:
        below.update(trinomial2.subtree_nodes(m))
    P2 = TreeMeasure(
        {
            n: (fresh.kernels[n] if n in below else P1.kernels[n])
            for n in P1.kernels
        }
    )
    assert bifurcate(trinomial2, P1, P2, tau, tau).kernels == P1.kernels
    assert bifurcate(trinomial2, P1, P2, tau, set()).kernels == P2.kernels


def test_bifurcate_rejects_disagreement_above_tau(trinomial2):
    rng = seeded(4)
    fam = FamilySpec(cls=MARTINGALE)
    P1 = random_measure(trinomial2, rng, fam)
    P2 = random_measure(trinomial2, rng, fam)
    tau = set(trinomial2.nodes_at(1))
    if any(
        abs(P1.prob(0, c) - P2.prob(0, c)) > 1e-12 for c in trinomial2.children(0)
    ):
        with pytest.raises(MeasureError):
            bifurcate(trinomial2, P1, P2, tau, set())


# -- terminal moments and truncation -------------------------------------


def test_conditional_abs_terminal_cases(binomial1, binomial2):
    P1 = fair_measure(binomial1)
    assert conditional_abs_terminal(binomial1, P1, binomial1.leaves[0]) == 0
    assert conditional_abs_terminal(binomial1, P1, binomial1.root) == 1
    P2 = fair_measure(binomial2)
    # paths end at -2, 0, 0, 2 with probability 1/4 each
    assert conditional_abs_terminal(binomial2, P2, binomial2.root) == 1


def test_truncation_no_cap_keeps_everything(trinomial2):
    rng = seeded(5)
    fam = FamilySpec(cls=MARTINGALE)
    P = random_measure(trinomial2, rng, fam)
    tau = set(trinomial2.nodes_at(1))
    nu = {m: random_measure(trinomial2, rng, fam, start=m) for m in tau}
    nu_n, E_n = truncate_kernels(trinomial2, P, tau, nu, float("inf"))
    assert E_n == tau
    assert all(nu_n[m].kernels == nu[m].kernels for m in tau)


def test_truncation_zero_cap_replaces_dispersed_subtrees(trinomial2):
    rng = seeded(6)
    fam = FamilySpec(cls=MARTINGALE)
    P = random_measure(trinomial2, rng, fam)
    tau = set(trinomial2.nodes_at(1))
    nu = {m: random_measure(trinomial2, rng, fam, start=m) for m in tau}
    nu_n, E_n = truncate_kernels(trinomial2, P, tau, nu, 0)
    for m in tau:
        if conditional_abs_terminal(trinomial2, nu[m], m) > 0:
            assert m not in E_n
            assert nu_n[m].kernels == rcpd(trinomial2, P, m).kernels


def test_truncation_mixed_threshold_replaces_exactly_one():
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    P = fair_measure(tree)
    tau = set(tree.nodes_at(1))
    lo, mid, hi = sorted(tau, key=tree.spot1)
    nu = {}
    for m in tau:
        kernels = dict(rcpd(tree, P, m).kernels)
        if m == hi:
            # Dirac chain drifting up: conditional moment 1 < wide spread
            down, level, up = tree.children(m)
            kernels[m] = Kernel(m, {up: 1.0})
        nu[m] = TreeMeasure(kernels)
    # fair kernels have moment < 1; threshold between them and the Dirac
    assert conditional_abs_terminal(tree, nu[hi], hi) == 1.0
    nu_n, E_n = truncate_kernels(tree, P, tau, nu, 0.9)
    assert E_n == {lo, mid}
    assert nu_n[hi].kernels == rcpd(tree, P, hi).kernels
    assert nu_n[lo].kernels == nu[lo].kernels


# -- chargeability and polar paths ---------------------------------------


def test_chargeable_children_cases(trinomial1):
    fam = FamilySpec(cls=MARTINGALE)
    assert chargeable_children(trinomial1, trinomial1.root, fam) == set(
        trinomial1.children(trinomial1.root)
    )
    pos = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [1, 2]}}
    )
    assert chargeable_children(pos, pos.root, fam) == set()
    assert chargeable_children(pos, pos.root, FamilySpec(cls=ALL)) == set(
        pos.children(pos.root)
    )


def test_polar_paths_cases(binomial1, trinomial1):
    fam = FamilySpec(cls=MARTINGALE)
    assert polar_paths(binomial1, fam) == []
    pos = build_tree(
        {"dim": 1, "depth": 1, "generator": {"kind": "explicit", "offsets": [1, 2]}}
    )
    assert len(polar_paths(pos, fam)) == len(pos.leaves)
    mid_leaf = next(l for l in trinomial1.leaves if trinomial1.spot1(l) == 0)
    xi = {
        leaf: (NEG_INF if leaf == mid_leaf else 1.0) for leaf in trinomial1.leaves
    }
    polar = polar_paths(trinomial1, fam.with_claim(xi), xi)
    assert [p[-1] for p in polar] == [mid_leaf]


# -- randomized closure (small in-process version) -----------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pasting_preserves_martingale_membership(seed):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    fam = FamilySpec(cls=MARTINGALE)
    P = random_measure(tree, rng, fam)
    tau = random_stopping_time(tree, rng)
    nu = {
        m: random_measure(tree, rng, fam, start=m)
        for m in tau
        if not tree.is_leaf(m)
    }
    glued = paste(tree, P, tau, nu)
    ok, why = in_family(tree, glued, fam, tol=1e-9)
    assert ok, why


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_vertex_mixture_is_martingale(seed):
    rng = seeded(seed)
    tree = random_tree(rng, max_depth=3, max_branch=3)
    fam = FamilySpec(cls=MARTINGALE)
    P = random_measure(tree, rng, fam)
    ok, why = in_family(tree, P, fam, tol=1e-9)
    assert ok, why


# -- serialization -------------------------------------------------------


def test_family_from_doc():
    for doc, fam in (
        ({"class": "all"}, FamilySpec(cls=ALL)),
        ({"class": "martingale", "claim_restricted": False}, FamilySpec(cls=MARTINGALE)),
        (
            {"class": "var_bounded", "var_lo": 0.2, "var_hi": 0.6},
            FamilySpec(cls=VAR_BOUNDED, var_lo=0.2, var_hi=0.6),
        ),
    ):
        assert family_from_doc(doc, claim={1: 1.0}) == fam
        assert family_from_doc(doc, claim={1: 1.0}).claim is None
    claim = {1: 1.0}
    restricted = family_from_doc({"class": "martingale", "claim_restricted": True}, claim)
    assert restricted.claim is claim


def test_family_spec_validation():
    with pytest.raises(MeasureError):
        FamilySpec(cls="weird")
    with pytest.raises(MeasureError):
        FamilySpec(cls=VAR_BOUNDED, var_lo=0.5, var_hi=0.2)
    with pytest.raises(MeasureError):
        FamilySpec(cls=VAR_BOUNDED)
