"""The linear-time tree passes against the per-path definitions they replace.

Each oracle below walks one root-to-leaf path per leaf (or pops a BFS queue
from the front), as the package did before its passes became top-down over
the breadth-first ids; the hedge oracle solves every node's one-step problem
a second time, as extraction did before the DP kept its multipliers; the LP
references write each family class's rows out in leaf space, and the
primal LP over wealth paths and over node values, as the LP builders did
before both LP cross-checks read one lift of `one_step_rows`, and over
that lift, as `primal_lp` solved it before it read the leaf-law LP's
duals.  The passes must reproduce them exactly: `==` on floats and on
rationals, not a tolerance.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from robusthedge import oracle_lp, simplex
from robusthedge.claims import NAMED_KINDS, make_claim
from robusthedge.dual_dp import backward_value, one_step_sup
from robusthedge.market_tree import (
    NEG_INF,
    build_tree,
    stopping_time_below,
    validate_stopping_time,
)
from robusthedge.measure_families import (
    ALL,
    MARTINGALE,
    VAR_BOUNDED,
    FamilySpec,
    MeasureError,
    _martingale_dead_leaves_1d,
    alive_nodes,
    chargeable_children,
    in_family,
    polar_paths,
)
from robusthedge.oracle_lp import enumerate_vertex_kernels
from robusthedge.primal_hedge import (
    HedgeError,
    Strategy,
    extract_strategy,
    primal_lp,
    verify_superhedge,
    wealth,
)
from robusthedge.random_instances import (
    random_claim,
    random_ordered_stopping_pair,
    random_stopping_time,
    random_tree,
)
from robusthedge.simplex import rat

from conftest import (
    WIDE_GENERATORS,
    all_paths,
    claim_is_exact,
    exact_spec,
    in_id_order,
    per_node_field,
    reference_factorize_leaf_law,
    reference_path_lp,
    seeded,
    wide_tree,
)

# -- per-path oracles -------------------------------------------------------


def naive_subtree(tree, nid):
    out, queue = [], [nid]
    while queue:
        cur = queue.pop(0)
        out.append(cur)
        queue.extend(tree.children(cur))
    return out


def naive_chargeable(tree, nid, fam, alive=None):
    """The pairwise rule over the children in `alive` (every child when
    None); the vertex supports inside `alive` where no pairwise rule is
    known."""
    kids = [c for c in tree.children(nid) if alive is None or c in alive]
    if fam.cls == MARTINGALE and tree.dim == 1:
        xn = tree.spot1(nid)
        deltas = {c: tree.spot1(c) - xn for c in kids}
        return {
            c for c, dc in deltas.items()
            if dc == 0 or any(dc * do < 0 for do in deltas.values())
        }
    if alive is None:
        return chargeable_children(tree, nid, fam)
    supports = [v.support() for v in enumerate_vertex_kernels(tree, nid, fam.unrestricted())]
    return {c for s in supports if set(s) <= alive for c in s}


def reference_primal_lp_var_bounded(tree, xi, fam, exact):
    """The VAR_BOUNDED node-value primal with its variance rows written out:
    per alive internal node the variables W, h, lhi, llo."""
    alive = alive_nodes(tree, fam, xi)
    if not alive[tree.root]:
        return NEG_INF, Strategy(
            h={n: tuple([0.0] * tree.dim) for n in tree.internal_nodes},
            flagged=set(tree.internal_nodes),
        )
    internal = [n for n in tree.internal_nodes if alive[n]]
    var_index = {}
    for n in internal:
        var_index[("W", n)] = len(var_index)
        var_index[("h", n)] = len(var_index)
        var_index[("lhi", n)] = len(var_index)
        var_index[("llo", n)] = len(var_index)
    nv = len(var_index)
    free = [var_index[("W", n)] for n in internal] + [
        var_index[("h", n)] for n in internal
    ]
    A_ub, b_ub = [], []
    for n in internal:
        xn = tree.spot1(n)
        for c in tree.children(n):
            if not alive[c]:
                continue
            dx = tree.spot1(c) - xn
            row = [0] * nv
            rhs = 0
            row[var_index[("W", n)]] = -1
            row[var_index[("h", n)]] = -dx
            row[var_index[("lhi", n)]] = fam.var_hi - dx * dx
            row[var_index[("llo", n)]] = dx * dx - fam.var_lo
            if tree.is_leaf(c):
                rhs = -xi[c]
            else:
                row[var_index[("W", c)]] = 1
            A_ub.append(row)
            b_ub.append(rhs)
    c_obj = [0] * nv
    c_obj[var_index[("W", tree.root)]] = 1
    res = simplex.solve(c_obj, None, None, A_ub, b_ub, maximize=False, free_vars=free, exact=exact)
    if res.status != "optimal":
        raise HedgeError(f"primal LP status {res.status}")
    x = res.x
    X0 = x[var_index[("W", tree.root)]]
    h, flagged = {}, set()
    zero = tuple([0.0] * tree.dim)
    for n in tree.internal_nodes:
        if alive[n]:
            h[n] = (x[var_index[("h", n)]],)
        else:
            h[n] = zero
            flagged.add(n)
    return X0, Strategy(h=h, flagged=flagged)


def reference_primal_lp_paths(tree, xi, fam, exact):
    """The MARTINGALE and ALL primal over wealth paths: one row per
    non-polar leaf whose claim is finite, X0 plus the hedge gains along its
    path >= the claim, with a free hedge variable per coordinate at every
    node on such a path, and for ALL the admissible cone h . step <= 0 on
    every edge below a hedge node.  An unbounded LP (no family measure
    avoids the -inf leaves) gives -inf."""
    polar_leaves = {p[-1] for p in naive_polar_paths(tree, fam, xi, lp=False)}
    paths = [p for p in all_paths(tree) if p[-1] not in polar_leaves and xi[p[-1]] != NEG_INF]
    if not paths:
        return NEG_INF, Strategy(
            h={n: tuple([0.0] * tree.dim) for n in tree.internal_nodes},
            flagged=set(tree.internal_nodes),
        )
    d = tree.dim
    hedge_nodes = sorted({n for p in paths for n in p[:-1]})
    var_index = {"X0": 0}
    for n in hedge_nodes:
        for k in range(d):
            var_index[(n, k)] = len(var_index)
    nv = len(var_index)
    A_ub, b_ub = [], []
    for p in paths:
        row = [0] * nv
        row[0] = -1
        for i in range(len(p) - 1):
            n, c = p[i], p[i + 1]
            step = tree.step(n, c)
            for k in range(d):
                row[var_index[(n, k)]] -= step[k]
        A_ub.append(row)
        b_ub.append(-xi[p[-1]])
    if fam.cls == ALL:
        for n in hedge_nodes:
            for c in tree.children(n):
                step = tree.step(n, c)
                row = [0] * nv
                for k in range(d):
                    row[var_index[(n, k)]] = step[k]
                A_ub.append(row)
                b_ub.append(0)
    c_obj = [0] * nv
    c_obj[0] = 1
    res = simplex.solve(c_obj, None, None, A_ub, b_ub, maximize=False, free_vars=range(nv), exact=exact)
    if res.status == "unbounded":
        return NEG_INF, Strategy(
            h={n: tuple([0.0] * tree.dim) for n in tree.internal_nodes},
            flagged=set(tree.internal_nodes),
        )
    if res.status != "optimal":
        raise HedgeError(f"primal LP status {res.status}")
    x = res.x
    h, flagged = {}, set()
    zero = tuple([0.0] * d)
    for n in tree.internal_nodes:
        if n in hedge_nodes:
            h[n] = tuple(x[var_index[(n, k)]] for k in range(d))
        else:
            h[n] = zero
            flagged.add(n)
    return x[0], Strategy(h=h, flagged=flagged)


def reference_primal_lp_lifted(tree, xi, fam, exact):
    """The primal LP over the lift, solved as an LP of its own: minimize X0
    such that X0 + sum_r y_r (a_c - b) >= xi_l at every leaf l whose claim
    is finite, one row per leaf and one variable per row of
    `oracle_lp.leaf_law_rows` (free for an equality row, >= 0 for a `<=`
    row), the leaf-law LP's matrix transposed and negated.  An unbounded
    LP (no family measure avoids the -inf leaves) gives -inf; otherwise the
    hedge is the mean rows' variables at the `alive_nodes`, 0 elsewhere."""
    leaves, claim, eq, ub = oracle_lp.leaf_law_rows(tree, xi, fam, tree.root)
    nv = 1 + len(eq) + len(ub)
    A_ub = [[-1] + [0] * (nv - 1) for _ in leaves]
    for j, (_, blocks) in enumerate(eq + ub, 1):
        for lo, hi, v in blocks:
            v = 0 - v  # not -v: a float 0.0 stays +0.0
            for row in A_ub[lo:hi]:
                row[j] = v
    c_obj = [1] + [0] * (nv - 1)
    free = range(1 + len(eq))  # X0 and the equality rows' variables
    res = simplex.solve(c_obj, None, None, A_ub, [-v for v in claim], maximize=False, free_vars=free, exact=exact)
    internal, zero = tree.internal_nodes, tuple([0.0] * tree.dim)
    if res.status == "unbounded":
        return NEG_INF, Strategy(h=dict.fromkeys(internal, zero), flagged=set(internal))
    if res.status != "optimal":
        raise HedgeError(f"primal LP status {res.status}")
    alive = alive_nodes(tree, fam, xi)
    hedge = {n: [] for n in internal if alive[n]}
    for (n, _), y in zip(eq, res.x[1:]):
        if n in hedge:
            hedge[n].append(y)  # the node's mean rows come first, one per coordinate
    h = {n: tuple(hedge[n][: tree.dim]) if hedge.get(n) else zero for n in internal}
    return res.x[0], Strategy(h=h, flagged={n for n in internal if not alive[n]})


def leaf_chargeable(tree, fam, leaf):
    """Does some family measure (claim filter included) charge this leaf?
    One exact leaf-law LP, the rows of `reference_path_lp`: maximize the
    leaf's probability."""
    xi = fam.claim or {}
    if xi.get(leaf) == NEG_INF:
        return False
    leaves, A_eq, b_eq, A_ub, b_ub, _ = reference_path_lp(tree, xi, fam, tree.root)
    if leaf not in leaves:
        return False
    c = [1 if l == leaf else 0 for l in leaves]
    res = simplex.solve(c, A_eq, b_eq, A_ub, b_ub, exact=True)
    return res.status == "optimal" and res.value > 0


def dp_finite_nodes(tree, xi, fam):
    Y = backward_value(tree, xi, fam)
    return {n for n, v in Y.items() if v != NEG_INF}


def naive_polar_paths(tree, fam, xi=None, lp=True):
    """Per path: polar when some step is not chargeable or the claim is -inf.

    With the claim filter active (a claim-restricted family and a -inf
    leaf), a surviving leaf is also polar when no family measure that
    avoids the -inf leaves charges it: one exact leaf-law LP per leaf when
    `lp`, else a walk down the path in which each step must be chargeable
    among the children where the DP value is finite."""
    if xi is None:
        xi = fam.claim
    restricted = xi is not None and fam.claim is not None and NEG_INF in xi.values()
    if restricted and not lp:
        finite = dp_finite_nodes(tree, xi, fam)
        charge = {n: naive_chargeable(tree, n, fam, finite) for n in tree.internal_nodes}
    else:
        charge = {n: naive_chargeable(tree, n, fam) for n in tree.internal_nodes}
    polar = []
    for path in all_paths(tree):
        if any(path[i + 1] not in charge[path[i]] for i in range(len(path) - 1)):
            polar.append(path)
        elif xi is not None and xi.get(path[-1]) == NEG_INF:
            polar.append(path)
        elif restricted and lp and not leaf_chargeable(tree, fam.with_claim(xi), path[-1]):
            polar.append(path)
    return sorted(polar, key=lambda p: p[-1])


def _pos(v):
    return v if v > 0 else 0 * v


def naive_claim(tree, kind, strike, exact):
    """Named payoff from the root-to-leaf spot list.  The asian sum is a
    left fold from 0, which is what sum() does on Python 3.11."""
    k = rat(strike) if exact else float(strike)
    conv = rat if exact else float
    out = {}
    for leaf in tree.leaves:
        spots = [conv(tree.spot(n)[0]) for n in tree.path_to(leaf)]
        terminal = spots[-1]
        if kind == "call":
            out[leaf] = _pos(terminal - k)
        elif kind == "abs":
            out[leaf] = abs(terminal)
        elif kind == "lookback":
            out[leaf] = _pos(max(spots) - k)
        elif kind == "asian":
            total = 0
            for s in spots:
                total = total + s
            out[leaf] = _pos(total / len(spots) - k)
        elif kind == "digital":
            one = rat(1) if exact else 1.0
            out[leaf] = one if terminal >= k else 0 * one
        elif kind == "linear":
            out[leaf] = terminal
    return out


def resolved_hedge(tree, Y, fam):
    """(h, flagged) from a second one-step solve per finite internal node."""
    h, flagged = {}, set()
    zero = tuple([0.0] * tree.dim)
    for nid in tree.internal_nodes:
        if Y[nid] == NEG_INF:
            h[nid] = zero
            flagged.add(nid)
            continue
        h[nid] = one_step_sup(tree, nid, {c: Y[c] for c in tree.children(nid)}, fam, exact=Y.exact).h
    return h, flagged


def is_ancestor(tree, a, b):
    """True iff `a` is a weak ancestor of `b` (a == b counts)."""
    cur = b
    while cur is not None:
        if cur == a:
            return True
        cur = tree.parent(cur)
    return False


def naive_validate_stopping_time(tree, members):
    """Pairwise antichain test, then one hit count per root-to-leaf path."""
    S = set(members)
    for nid in S:
        if not (0 <= nid < len(tree.nodes)):
            return False, f"unknown node id {nid}"
    for a in sorted(S):
        for b in sorted(S):
            if a != b and is_ancestor(tree, a, b):
                return False, f"{a} is an ancestor of {b}"
    for path in all_paths(tree):
        hits = [n for n in path if n in S]
        if len(hits) != 1:
            return False, f"path to leaf {path[-1]} meets the set {len(hits)} times"
    return True, None


def naive_stopping_time_below(tree, sigma, tau):
    sig, ta = set(sigma), set(tau)
    for path in all_paths(tree):
        i_s = next(i for i, n in enumerate(path) if n in sig)
        i_t = next(i for i, n in enumerate(path) if n in ta)
        if i_s > i_t:
            return False
    return True


# -- instances --------------------------------------------------------------

# every step moves both coordinates, so wealth sums two nonzero terms per
# edge; (2, -1) is charged by no martingale kernel
D2_TREE = {"dim": 2, "depth": 2, "generator": {"kind": "explicit", "offsets": [[1, 1], [-1, -1], [2, -1], [-0.5, -0.5]]}}
FIVE_OFFSET_TREE = {"dim": 1, "depth": 2, "generator": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]}}
# d = 1 trees whose martingale family leaves some or all children uncharged
ONE_SIDED_TREES = (
    {"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": [0, 1, 2]}},
    {"dim": 1, "depth": 2, "generator": {"kind": "explicit", "offsets": [1, 2]}},
)


def instances():
    """(label, tree, claim, family) covering random trees, a d = 2 tree,
    one-sided trees, -inf table claims and claim-restricted families."""
    out = []
    for i in range(12):
        rng = seeded(700 + i)
        tree = random_tree(rng, max_depth=3, max_branch=4)
        exact = i % 2 == 0
        xi = random_claim(tree, rng, exact=exact)
        if i % 3 == 0:
            for leaf in rng.sample(tree.leaves, max(1, len(tree.leaves) // 4)):
                xi[leaf] = NEG_INF
        for fam in (FamilySpec(cls=MARTINGALE), FamilySpec(cls=ALL)):
            out.append((f"random{i}-{fam.cls}", tree, xi, fam))
            out.append((f"random{i}-{fam.cls}-restricted", tree, xi, fam.with_claim(xi)))
    d2 = build_tree(D2_TREE)

    def d2_claim(exact):
        xi = make_claim(d2, {"kind": "call", "strike": 0.5}, exact=exact)
        # leaf 9 is node 2's only upward child, so node 2 is worth -inf
        xi[d2.leaves[3]] = xi[9] = NEG_INF
        return xi

    xi = d2_claim(exact=False)
    out.append(("d2", d2, xi, FamilySpec(cls=MARTINGALE)))
    out.append(("d2-restricted", d2, xi, FamilySpec(cls=MARTINGALE).with_claim(xi)))
    for j, spec in enumerate(ONE_SIDED_TREES):
        tree = build_tree(spec)
        xi = make_claim(tree, {"kind": "lookback", "strike": 1}, exact=True)
        out.append((f"one-sided{j}", tree, xi, FamilySpec(cls=MARTINGALE)))
    tree = build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})
    xi = make_claim(tree, {"kind": "abs"}, exact=True)
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=Fraction(1, 5), var_hi=Fraction(3, 5))
    out.append(("var-bounded", tree, xi, fam))
    xi = make_claim(tree, {"kind": "abs"})
    fam = FamilySpec(cls=VAR_BOUNDED, var_lo=0.2, var_hi=0.6)
    out.append(("var-bounded-float", tree, xi, fam))
    xi = d2_claim(exact=True)
    out.append(("d2-exact", d2, xi, FamilySpec(cls=MARTINGALE)))
    out.append(("d2-exact-restricted", d2, xi, FamilySpec(cls=MARTINGALE).with_claim(xi)))
    # claim-restricted VAR_BOUNDED families with -inf table leaves: five
    # offsets leave some roots finite, and the restriction kills paths
    # that the -inf leaves alone do not
    five = build_tree(FIVE_OFFSET_TREE)
    for i in range(8):
        rng = seeded(760 + i)
        exact = i % 2 == 0
        xi = random_claim(five, rng, exact=exact, kind="table")
        for leaf in rng.sample(five.leaves, 5 + i):
            xi[leaf] = NEG_INF
        lo, hi = (Fraction(1, 2), Fraction(5, 2)) if exact else (0.5, 2.5)
        fam = FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi).with_claim(xi)
        out.append((f"var-bounded{i}-restricted", five, xi, fam))
    return out


INSTANCES = instances()
IDS = [label for label, *_ in INSTANCES]

# trees with levels of 64 to 729 nodes, where the DP, the claims, the wealth
# and the polar flags run their level passes
WIDE_TREES = {
    "trinomial-0.1": {"dim": 1, "depth": 6, "generator": {"kind": "trinomial", "step": 0.1}},
    "five": {"dim": 1, "depth": 4, "generator": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]}},
    "one-sided": {"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [0, 1, 2]}},
    "fraction": exact_spec({"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [1.5, -0.25, -0.5]}}),
    "d2": dict(D2_TREE, depth=4),
    # float spots past 2**53, where a step of 1.0 rounds to 0: some nodes
    # keep only one nonzero step, and their up child is dead although every
    # offset has a counterpart of the other sign
    "rounding": {"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [1e16, 1.0, -1.0]}},
    "rounding-symmetric": {"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [1e16, -1e16, 1.0]}},
    # int spots past 2**51: no double holds every step, so the object route
    "large-int": {"dim": 1, "depth": 5, "generator": {"kind": "explicit", "offsets": [-(2**52) - 1, 0, 2**52 + 3]}},
}


def wide_instances():
    """(label, tree, claim, family): float and exact claims, -inf table
    leaves, claim-restricted families, with and without -inf leaves."""
    out = []
    for name, spec in WIDE_TREES.items():
        tree = build_tree(spec)
        rng = random.Random(name)
        fam = FamilySpec(cls=MARTINGALE)
        xi = make_claim(tree, {"kind": "lookback", "strike": 0.5})
        out.append((f"{name}-float", tree, xi, fam))
        out.append((f"{name}-float-restricted", tree, xi, fam.with_claim(xi)))
        xi = make_claim(tree, {"kind": "asian", "strike": 0.5}, exact=True)
        out.append((f"{name}-exact-restricted", tree, xi, fam.with_claim(xi)))
        xi = {leaf: rng.uniform(-3, 3) for leaf in tree.leaves}
        for leaf in rng.sample(tree.leaves, len(tree.leaves) // 7):
            xi[leaf] = NEG_INF
        out.append((f"{name}-neg-inf", tree, xi, fam))
        out.append((f"{name}-neg-inf-restricted", tree, xi, fam.with_claim(xi)))
        xi = random_claim(tree, rng, exact=True, kind="table")
        for leaf in rng.sample(tree.leaves, len(tree.leaves) // 5):
            xi[leaf] = NEG_INF
        out.append((f"{name}-exact-neg-inf", tree, xi, fam))
        out.append((f"{name}-exact-neg-inf-restricted", tree, xi, fam.with_claim(xi)))
    return out


WIDE_INSTANCES = wide_instances()
WIDE_IDS = [f"wide-{label}" for label, *_ in WIDE_INSTANCES]
# each instance with the rule its polar reference uses for the claim filter:
# one exact leaf-law LP per leaf on INSTANCES, the DP's finite set on the
# wide trees, where one LP per leaf is too slow
POLAR_CASES = [(*inst, True) for inst in INSTANCES] + [(*inst, False) for inst in WIDE_INSTANCES]


def strategies(tree, rng):
    """A float and a rational hedge with nonzero entries at every node."""
    return (
        Strategy(h={n: tuple(rng.uniform(-2, 2) for _ in range(tree.dim)) for n in tree.internal_nodes}),
        Strategy(h={n: tuple(Fraction(rng.randint(-9, 9), 4) for _ in range(tree.dim)) for n in tree.internal_nodes}),
    )


# -- tests ------------------------------------------------------------------


@pytest.mark.parametrize("label,tree,xi,fam,lp", POLAR_CASES, ids=IDS + WIDE_IDS)
def test_polar_paths_match_per_path_definition(label, tree, xi, fam, lp):
    assert repr(polar_paths(tree, fam, xi)) == repr(naive_polar_paths(tree, fam, xi, lp))
    assert repr(polar_paths(tree, fam)) == repr(naive_polar_paths(tree, fam, lp=lp))


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES + WIDE_INSTANCES, ids=IDS + WIDE_IDS)
def test_alive_nodes_are_the_dp_finite_nodes(label, tree, xi, fam):
    alive = alive_nodes(tree, fam, xi)
    assert len(alive) == len(tree.nodes)
    assert {n for n, flag in enumerate(alive) if flag} == dp_finite_nodes(tree, xi, fam)


def test_claim_filter_kills_paths_below_finite_roots():
    """The polar comparison sees the claim filter remove paths that the
    -inf leaves alone do not, below a finite root: VAR_BOUNDED in both
    modes against the leaf-law LPs, the martingale family in both modes on
    the wide trees."""
    seen = set()
    for label, tree, xi, fam, lp in POLAR_CASES:
        if fam.claim is None or tree.root not in dp_finite_nodes(tree, xi, fam):
            continue
        if len(polar_paths(tree, fam, xi)) > len(polar_paths(tree, fam.unrestricted(), xi)):
            exact = claim_is_exact(xi)
            seen.add((fam.cls, lp, exact))
    for exact in (False, True):
        assert (VAR_BOUNDED, True, exact) in seen and (MARTINGALE, False, exact) in seen


def test_martingale_dead_flags_charge_alive_children_only():
    """The d = 1 martingale level masks with alive flags, before the -inf
    leaves are masked: a path is dead iff some step on it is charged by no
    kernel on the alive children, by the pairwise rule."""
    cases = 0
    for label, tree, xi, fam, lp in POLAR_CASES:
        if fam.cls != MARTINGALE or tree.dim != 1 or NEG_INF not in xi.values():
            continue
        finite = dp_finite_nodes(tree, xi, fam)
        charge = {n: naive_chargeable(tree, n, fam, finite) for n in tree.internal_nodes}
        want = [any(p[i + 1] not in charge[p[i]] for i in range(len(p) - 1)) for p in all_paths(tree)]
        assert _martingale_dead_leaves_1d(tree, alive_nodes(tree, fam, xi)).tolist() == want
        cases += 1
    assert cases >= 20


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES, ids=IDS)
def test_chargeable_children_match_pairwise_rule(label, tree, xi, fam):
    alive = alive_nodes(tree, fam, xi)
    finite = dp_finite_nodes(tree, xi, fam)
    for n in tree.internal_nodes:
        assert chargeable_children(tree, n, fam) == naive_chargeable(tree, n, fam)
        assert chargeable_children(tree, n, fam, alive) == naive_chargeable(tree, n, fam, finite)


@pytest.mark.parametrize("label,tree,xi,fam,lp", POLAR_CASES, ids=IDS + WIDE_IDS)
def test_verify_slacks_equal_pathwise_wealth(label, tree, xi, fam, lp):
    rng = random.Random(label)
    hedges = list(strategies(tree, rng))
    Y = backward_value(tree, xi, fam)
    if Y[tree.root] != NEG_INF and fam.cls != VAR_BOUNDED:
        hedges.append(extract_strategy(tree, Y, fam))
    X0s = (Fraction(3, 2), 0.25)
    polar = naive_polar_paths(tree, fam, xi, lp)
    polar_leaves = {p[-1] for p in polar}
    for H in hedges:
        for X0 in X0s:
            rep = verify_superhedge(tree, X0, H, xi, fam)
            assert rep.polar == polar
            expected = {
                p[-1]: wealth(tree, X0, H, p) - xi[p[-1]]
                for p in all_paths(tree)
                if p[-1] not in polar_leaves and xi[p[-1]] != NEG_INF
            }
            assert repr(rep.slacks) == repr(expected)  # bitwise, types and leaf order
            assert rep.min_slack == (min(expected.values()) if expected else None)
            assert repr(rep.min_slack) == repr(min(expected.values()) if expected else None)
            assert rep.violations == [
                p for p in all_paths(tree) if p[-1] in expected and expected[p[-1]] < -1e-9
            ]
            assert rep.ok == (not rep.violations)


def test_wide_trees_cover_both_spot_dtypes_and_rounded_steps():
    trees = {name: build_tree(spec) for name, spec in WIDE_TREES.items()}
    assert trees["rounding"].spot_array(0).dtype == float
    assert trees["large-int"].spot_array(0).dtype == object
    assert trees["fraction"].spot_array(0).dtype == object
    # dead leaves, which the signs of the offsets alone would not give
    assert naive_polar_paths(trees["rounding"], FamilySpec(cls=MARTINGALE))


def step_trees():
    """Every wide tree and wide generator tree, the two deep workload shapes
    at depth 4, a d = 2 tree with an int and a float coordinate, and bool
    offsets."""
    trees = {f"wide-{name}": build_tree(spec) for name, spec in WIDE_TREES.items()}
    trees.update({f"generator-{name}": wide_tree(gen) for name, gen in WIDE_GENERATORS.items()})
    trees["deep-trinomial"] = build_tree({"dim": 1, "depth": 4, "generator": {"kind": "trinomial"}})
    trees["deep-five"] = build_tree({"dim": 1, "depth": 4, "generator": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]}})
    trees["d2-int-float"] = build_tree({"dim": 2, "depth": 4, "generator": {"kind": "explicit", "offsets": [[1, 0.1], [-1, 0.2], [0, -0.3]]}})
    trees["bool"] = build_tree({"dim": 1, "depth": 4, "generator": {"kind": "explicit", "offsets": [True, False, -1]}})
    return trees


STEP_TREES = step_trees()


@pytest.mark.parametrize("name", list(STEP_TREES))
def test_child_steps_are_the_spot_differences(name):
    """At every node, `child_steps` holds x_c - x_n of the spot array, with
    its value (signed zeros included), type and dtype; it is one read-only
    (1 x k) row, the same object for every id range, exactly when the spot
    array is float64 and every offset of the coordinate is an int."""
    tree = STEP_TREES[name]
    k = len(tree.offsets)
    for j in range(tree.dim):
        xs = tree.spot_array(j)
        one_row = xs.dtype == float and all(type(off[j]) in (int, bool) for off in tree.offsets)
        rows = set()
        for level in tree.levels[:-1]:
            for ids in (level, level[len(level) // 2 :]):
                steps = tree.child_steps(ids, j)
                assert steps.dtype == xs.dtype
                assert steps.shape == ((1, k) if one_row else (len(ids), k))
                if one_row:
                    assert not steps.flags.writeable
                    rows.add(id(steps))
                for i, n in enumerate(ids):
                    for step, c in zip(steps[i if len(steps) > 1 else 0], tree.children(n)):
                        want = xs[c] - xs[n]
                        assert type(step) is type(want) and repr(step) == repr(want)
        assert len(rows) == one_row


def test_step_trees_cover_one_row_and_per_node_steps():
    one_row = {
        (name, j)
        for name, tree in STEP_TREES.items()
        for j in range(tree.dim)
        if len(tree.child_steps(tree.levels[-2], j)) == 1
    }
    assert one_row == {
        ("wide-five", 0),
        ("wide-one-sided", 0),
        ("generator-binomial", 0),
        ("generator-trinomial", 0),
        ("generator-five-offset", 0),
        ("generator-one-sided", 0),
        ("generator-one-sided-up", 0),
        ("deep-trinomial", 0),
        ("deep-five", 0),
        ("d2-int-float", 0),
        ("bool", 0),
    }


@pytest.mark.parametrize("name", list(WIDE_TREES))
def test_signed_zero_slacks_match_pathwise_wealth(name):
    """Zero hedges, zero capital and a zero claim: each slack is a signed
    zero, and the minimum is the first of them in leaf order."""
    tree = build_tree(WIDE_TREES[name])
    xi = {leaf: 0.0 for leaf in tree.leaves}
    fam = FamilySpec(cls=MARTINGALE)
    signs = set()
    for z in (0.0, -0.0):
        H = Strategy(h={n: tuple([z] * tree.dim) for n in tree.internal_nodes})
        for X0 in (0.0, -0.0):
            rep = verify_superhedge(tree, X0, H, xi, fam)
            polar_leaves = {p[-1] for p in naive_polar_paths(tree, fam, xi)}
            expected = {
                p[-1]: wealth(tree, X0, H, p) - xi[p[-1]]
                for p in all_paths(tree)
                if p[-1] not in polar_leaves
            }
            assert repr(rep.slacks) == repr(expected)
            assert repr(rep.min_slack) == repr(min(expected.values()))
            signs.update(repr(v) for v in expected.values())
    assert {"0.0", "-0.0"} <= signs


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES, ids=IDS)
def test_extracted_hedge_equals_resolved_multipliers(label, tree, xi, fam):
    Y = backward_value(tree, xi, fam)
    if Y[tree.root] == NEG_INF:
        with pytest.raises(HedgeError):
            extract_strategy(tree, Y, fam)
        return
    H = extract_strategy(tree, Y, fam)
    h, flagged = resolved_hedge(tree, Y, fam)
    assert repr(H.h) == repr(h)  # values bitwise, types and node order
    assert H.flagged == flagged
    # the claim's mode, d2-exact's float offsets notwithstanding: no float
    # multiplier at a finite node in exact mode, only floats in float mode
    assert Y.exact == claim_is_exact(xi)
    assert all(isinstance(v, float) != Y.exact for n in tree.internal_nodes if n not in flagged for v in H.h[n])


DEPTH8 = {"dim": 1, "depth": 8, "generator": {"kind": "trinomial"}}


@pytest.mark.parametrize("claim", ["lookback", "asian", "table-neg-inf"])
def test_depth8_container_path_equals_per_node_dicts(claim):
    """On 6,561 leaves in float mode, the id-indexed path (the claim's
    array, the DP's level slices, the strategy's masks, the slack arrays)
    gives the values, hedge, strategy and slacks of per-node dict
    references bit for bit, with the same types and ids."""
    tree = build_tree(DEPTH8)
    fam = FamilySpec(cls=MARTINGALE)
    if claim == "table-neg-inf":
        rng = random.Random(claim)
        table = {str(leaf): rng.choice([-0.0, 0.0, 0.5, rng.uniform(-2, 2)]) for leaf in tree.leaves}
        for leaf in rng.sample(tree.leaves, 300):
            table[str(leaf)] = "-inf"
        xi = make_claim(tree, {"kind": "table", "values": table})
        ref_xi = {leaf: NEG_INF if table[str(leaf)] == "-inf" else table[str(leaf)] for leaf in tree.leaves}
        fam = fam.with_claim(xi)
    else:
        xi = make_claim(tree, {"kind": claim, "strike": 0.5})
        ref_xi = naive_claim(tree, claim, 0.5, exact=False)
    assert repr(xi) == repr(ref_xi)
    Y = backward_value(tree, xi, fam)
    ref = per_node_field(tree, ref_xi, fam.with_claim(ref_xi) if fam.claim is not None else fam)
    assert repr(Y) == in_id_order(ref) and repr(Y.hedge) == in_id_order(ref.hedge)
    H = extract_strategy(tree, Y, fam)
    h, flagged = resolved_hedge(tree, ref, fam)
    assert repr(H.h) == repr(h) and H.flagged == flagged
    X0 = Y[tree.root]
    rep = verify_superhedge(tree, X0, H, xi, fam)
    polar_leaves = {p[-1] for p in naive_polar_paths(tree, fam, ref_xi, lp=False)}
    assert (len(polar_leaves) > 300) == (claim == "table-neg-inf")
    ref_H = Strategy(h=h, flagged=flagged)
    expected = {
        p[-1]: wealth(tree, X0, ref_H, p) - ref_xi[p[-1]] for p in all_paths(tree) if p[-1] not in polar_leaves
    }
    assert repr(rep.slacks) == repr(expected)
    assert repr(rep.min_slack) == repr(min(expected.values()))


def test_hedge_instances_cover_classes_modes_and_neg_inf_nodes():
    """The comparison above sees every family class in both numeric modes
    with a finite root, and -inf internal nodes below a finite root."""
    seen, flagged = set(), set()
    for label, tree, xi, fam in INSTANCES:
        Y = backward_value(tree, xi, fam)
        if Y[tree.root] == NEG_INF:
            continue
        seen.add((fam.cls, Y.exact))
        if any(Y[n] == NEG_INF for n in tree.internal_nodes):
            flagged.add((fam.cls, fam.claim is not None, tree.dim))
    assert seen == {(cls, exact) for cls in (ALL, MARTINGALE, VAR_BOUNDED) for exact in (False, True)}
    assert (MARTINGALE, True, 1) in flagged and (MARTINGALE, True, 2) in flagged


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_make_claim_matches_per_path_formula(kind, exact):
    trees = [random_tree(seeded(900 + i), max_depth=4, max_branch=3) for i in range(6)]
    trees += [build_tree(D2_TREE), build_tree(ONE_SIDED_TREES[0])]
    trees.append(build_tree({"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": [-0.3, 0.1, 0.7]}}))
    trees += [build_tree(spec) for spec in WIDE_TREES.values()]
    for tree in trees:
        for strike in (-1.5, 0, 0.5, 2):
            got = make_claim(tree, {"kind": kind, "strike": strike}, exact=exact)
            want = naive_claim(tree, kind, strike, exact)
            assert repr(got) == repr(want)  # values bitwise, types and leaf order


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES[::4], ids=IDS[::4])
def test_subtree_nodes_match_naive_bfs(label, tree, xi, fam):
    for n in range(len(tree.nodes)):
        assert tree.subtree_nodes(n) == naive_subtree(tree, n)


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES, ids=IDS)
def test_levels_match_per_node_scan(label, tree, xi, fam):
    assert len(tree.levels) == tree.depth + 1
    for t in range(-1, tree.depth + 2):
        want = tuple(n for n in tree.nodes if len(tree.path_to(n)) == t + 1)
        assert tuple(tree.nodes_at(t)) == want
        if 0 <= t <= tree.depth:
            assert tuple(tree.levels[t]) == want


def stopping_time_cases(tree, rng):
    """Valid stopping times and sets that break them in every way the
    validator reports: ancestor pairs, missed paths, unknown ids."""
    n = len(tree.nodes)
    cases = [{tree.root}, set(tree.leaves), set()]
    for _ in range(6):
        tau = random_stopping_time(tree, rng)
        cases.append(tau)
        nodes = sorted(tau)
        cases.append(tau - {rng.choice(nodes)})  # some path is missed
        cases.append(tau | {rng.randrange(n)})  # maybe an ancestor pair
        cases.append(tau | {tree.parent(m) for m in nodes if m != tree.root})
        cases.append(set(rng.sample(range(n), rng.randint(1, min(n, 8)))))
    cases.append({tree.root, n + 3})
    cases.append({-1} | set(tree.leaves))
    return cases


@pytest.mark.parametrize("i", range(12))
def test_stopping_time_checks_match_pairwise_and_per_path(i):
    rng = seeded(700 + i)
    if i < 10:
        tree = random_tree(rng, max_depth=4, max_branch=4)
    else:
        tree = build_tree(D2_TREE if i == 10 else ONE_SIDED_TREES[0])
    seen = set()
    for members in stopping_time_cases(tree, rng):
        got = validate_stopping_time(tree, members)
        assert got == naive_validate_stopping_time(tree, members)
        seen.add(got[0])
    assert seen == {True, False}
    for _ in range(8):
        sigma, tau = random_ordered_stopping_pair(tree, rng)
        other = random_stopping_time(tree, rng)
        for a, b in ((sigma, tau), (tau, sigma), (sigma, other), (other, tau), (tau, tau)):
            assert stopping_time_below(tree, a, b) == naive_stopping_time_below(tree, a, b)


# -- the family's rows from one source ----------------------------------------

# float offsets whose steps between spots are not the offsets themselves;
# the variance entries are squares of these steps
FLOAT_OFFSET_TREE = {"dim": 1, "depth": 3, "generator": {"kind": "explicit", "offsets": [-0.7, -0.1, 0.3, 0.9]}}


def lp_cases():
    """Every instance above, plus VAR_BOUNDED on a float-offset tree and on
    its exact image, each with and without -inf leaves and the claim
    filter."""
    out = list(INSTANCES + WIDE_INSTANCES)
    for exact in (False, True):
        tree = build_tree(exact_spec(FLOAT_OFFSET_TREE) if exact else FLOAT_OFFSET_TREE)
        lo, hi = (Fraction(1, 10), Fraction(1, 2)) if exact else (0.1, 0.5)
        fam = FamilySpec(cls=VAR_BOUNDED, var_lo=lo, var_hi=hi)
        label = "float-offsets-" + ("exact" if exact else "float")
        xi = make_claim(tree, {"kind": "asian", "strike": 0.1}, exact=exact)
        out.append((label, tree, xi, fam))
        xi = dict(xi)
        for leaf in random.Random(label).sample(tree.leaves, 12):
            xi[leaf] = NEG_INF
        out.append((f"{label}-neg-inf", tree, xi, fam))
        out.append((f"{label}-neg-inf-restricted", tree, xi, fam.with_claim(xi)))
    return out


LP_CASES = lp_cases()
LP_IDS = [label for label, *_ in LP_CASES]
VAR_BOUNDED_CASES = [case for case in LP_CASES if case[3].cls == VAR_BOUNDED]


def lp_starts(tree):
    """Every internal node of a tree of depth <= 3, else the root only."""
    return tree.internal_nodes if tree.depth <= 3 else (tree.root,)


class _Handed(Exception):
    """Raised in place of solving, once an LP builder has handed its LP over."""


def handed_lp(build, *args, **kwargs):
    """(c, A_eq, b_eq, A_ub, b_ub, keywords) that `build` hands to
    `simplex.solve`, which is not run; None when it solves nothing."""
    handed = []

    def record(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, **kw):
        handed.append((c, A_eq, b_eq, A_ub, b_ub, kw))
        raise _Handed

    with mock.patch.object(simplex, "solve", record):
        try:
            build(*args, **kwargs)
        except _Handed:
            pass
    assert len(handed) <= 1
    return handed[0] if handed else None


@pytest.mark.parametrize("label,tree,xi,fam", LP_CASES, ids=LP_IDS)
def test_leaf_law_rows_equal_per_class_rows(label, tree, xi, fam):
    """The leaf-law LP that `global_sup_lp` hands the solver, read from the
    lift, is the reference's, below every start."""
    for start in lp_starts(tree):
        leaves, A_eq, b_eq, A_ub, b_ub, c_obj = reference_path_lp(tree, xi, fam, start)
        assert oracle_lp.leaf_law_rows(tree, xi, fam, start)[0] == leaves
        lp = handed_lp(oracle_lp.global_sup_lp, tree, xi, fam, start=start, exact=True)
        if not leaves:
            assert lp is None
            continue
        assert repr(lp[:5]) == repr((c_obj, A_eq, b_eq, A_ub, b_ub))  # values bitwise, types and order


def test_lp_cases_cover_classes_modes_and_shapes():
    """The row comparisons see every family class, -inf leaves, d = 2,
    subtree starts below the root, VAR_BOUNDED in float and in exact, and
    float steps that are not the offsets."""
    seen = set()
    for label, tree, xi, fam in LP_CASES:
        exact = claim_is_exact(xi)
        seen.add((fam.cls, exact))
        seen.add(("neg-inf", NEG_INF in xi.values()))
        seen.add(("dim", tree.dim))
        seen.add(("starts", len(lp_starts(tree)) > 1))
    assert {(cls, exact) for cls in (ALL, MARTINGALE, VAR_BOUNDED) for exact in (False, True)} <= seen
    assert {("neg-inf", True), ("dim", 2), ("starts", True)} <= seen
    tree = build_tree(FLOAT_OFFSET_TREE)
    steps = {tree.spot1(c) - tree.spot1(n) for n in tree.internal_nodes for c in tree.children(n)}
    assert len(steps) > len(tree.offsets)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("label,tree,xi,fam", LP_CASES, ids=LP_IDS)
def test_primal_matrix_is_the_negated_transpose_of_the_lifted_rows(label, tree, xi, fam, exact):
    """The reference primal LP is the LP dual of the leaf-law LP that
    `global_sup_lp` hands the solver.  The primal's row of a leaf is -1 for
    X0, then minus the leaf-law LP's column of that leaf over its rows
    after the mass row, entry by entry; its rhs is minus the leaf-law
    objective, and X0 and the equality rows' variables are free."""
    primal = handed_lp(reference_primal_lp_lifted, tree, xi, fam, exact=exact)
    oracle = handed_lp(oracle_lp.global_sup_lp, tree, xi, fam, exact=exact)
    c, A_eq, b_eq, A_ub, b_ub, kw = primal
    assert A_eq is None and b_eq is None
    assert kw["maximize"] is False and kw["exact"] is exact
    if oracle is None:  # no leaf has a finite claim
        assert A_ub == b_ub == [] and c == [1] + [0] * (len(c) - 1)
        return
    claim, oracle_eq, _, oracle_ub, _, _ = oracle
    lifted = oracle_eq[1:] + oracle_ub
    assert c == [1] + [0] * len(lifted)
    assert b_ub == [-v for v in claim]
    assert [row[0] for row in A_ub] == [-1] * len(claim)
    assert [[row[1 + j] for row in A_ub] for j in range(len(lifted))] == [[-v for v in r] for r in lifted]
    assert sorted(kw["free_vars"]) == list(range(len(oracle_eq)))


def spots_past_2_52(tree):
    return max(abs(x) for xs in tree.coords for x in xs) >= 2**52


# HiGHS reports the primal LP infeasible (and the leaf-law LP too, where the
# float oracle raises) on the trees whose spots pass 2**52
FLOAT_LP_FAILS = pytest.mark.xfail(raises=HedgeError, strict=True, reason="float LPs on spots past 2**52")
# every case in float mode; in exact mode those of exact claims on the
# small trees, where the exact primal LPs take milliseconds
PRIMAL_VALUE_CASES = [
    pytest.param(*case, False, marks=FLOAT_LP_FAILS if spots_past_2_52(case[1]) else ())
    for case in LP_CASES
] + [pytest.param(*case, True) for case in LP_CASES if claim_is_exact(case[2]) and len(case[1].leaves) <= 100]


@pytest.mark.parametrize(
    "label,tree,xi,fam,exact",
    PRIMAL_VALUE_CASES,
    ids=[f"{c.values[0]}-{'exact' if c.values[4] else 'float'}" for c in PRIMAL_VALUE_CASES],
)
def test_primal_value_equals_the_dp_and_the_references(label, tree, xi, fam, exact):
    """The primal, read from the leaf-law LP's duals, meets the DP, the
    oracle, the primal LP over the lift solved as an LP of its own, and the
    reference primal of its class (over wealth paths, or over node values
    for VAR_BOUNDED): `==` in exact mode, within 1e-9 in float mode.  It
    flags the nodes where the DP is -inf, every internal node when the root
    is, as the lifted primal LP does."""
    Y = backward_value(tree, xi, fam)
    pv, H = primal_lp(tree, xi, fam, exact=exact)
    reference = reference_primal_lp_var_bounded if fam.cls == VAR_BOUNDED else reference_primal_lp_paths
    lifted, H_lifted = reference_primal_lp_lifted(tree, xi, fam, exact)
    values = (Y[tree.root], oracle_lp.global_sup_lp(tree, xi, fam, exact=exact)[0], lifted, reference(tree, xi, fam, exact)[0])
    assert H.flagged == H_lifted.flagged
    if pv == NEG_INF:
        assert values == (NEG_INF,) * 4
        assert H.flagged == set(tree.internal_nodes)
        return
    for v in values:
        assert v == pv if exact else abs(v - pv) <= 1e-9
    assert H.flagged == {n for n in tree.internal_nodes if Y[n] == NEG_INF}
    zero = tuple([0.0] * tree.dim)
    assert all(H.h[n] == zero for n in H.flagged)


@pytest.mark.parametrize("name", ["rounding", "rounding-symmetric", "large-int"])
def test_float_oracle_raises_where_highs_fails_on_a_finite_value(name):
    """HiGHS reports the leaf-law LP infeasible on spots past 2**52 while the
    DP and the exact LP are finite: the float oracle raises rather than
    report -inf."""
    tree = build_tree(WIDE_TREES[name])
    xi = make_claim(tree, {"kind": "lookback", "strike": 0.5})
    fam = FamilySpec(cls=MARTINGALE)
    assert backward_value(tree, xi, fam)[tree.root] != NEG_INF
    assert oracle_lp.global_sup_lp(tree, xi, fam, exact=True)[0] != NEG_INF
    with pytest.raises(MeasureError, match="float path LP infeasible"):
        oracle_lp.global_sup_lp(tree, xi, fam, exact=False)


# MARTINGALE cases with no -inf and no polar leaf, where the path LP has a
# row for every leaf and a column for every node
FULL_MARTINGALE_CASES = [
    case
    for case in LP_CASES
    if case[3].cls == MARTINGALE and NEG_INF not in case[2].values() and not polar_paths(case[1], case[3], case[2])
]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("label,tree,xi,fam", FULL_MARTINGALE_CASES, ids=[c[0] for c in FULL_MARTINGALE_CASES])
def test_full_martingale_primal_is_the_path_lp(label, tree, xi, fam, exact):
    """Without -inf and polar leaves the primal LP over the lift is the path
    LP itself: `repr`-equal matrices, rhs, objective and keywords."""
    got = handed_lp(reference_primal_lp_lifted, tree, xi, fam, exact=exact)
    want = handed_lp(reference_primal_lp_paths, tree, xi, fam, exact=exact)
    assert repr(got) == repr(want)


def test_primal_cases_cover_classes_modes_and_shapes():
    """The value comparison sees every family class in both modes, d = 2,
    and -inf roots; the path LP comparison sees float and exact claims and
    wide trees."""
    seen = set()
    for label, tree, xi, fam, exact in (c.values for c in PRIMAL_VALUE_CASES):
        seen.add((fam.cls, exact))
        seen.add(("dim", tree.dim, exact))
        seen.add(("neg-inf root", backward_value(tree, xi, fam)[tree.root] == NEG_INF))
    assert {(cls, exact) for cls in (ALL, MARTINGALE, VAR_BOUNDED) for exact in (False, True)} <= seen
    assert {("dim", 2, False), ("dim", 2, True), ("neg-inf root", True)} <= seen
    assert {claim_is_exact(case[2]) for case in FULL_MARTINGALE_CASES} == {False, True}
    assert max(len(case[1].leaves) for case in FULL_MARTINGALE_CASES) > 100


@pytest.mark.parametrize("label,tree,xi,fam", INSTANCES, ids=IDS)
def test_factorized_kernels_equal_per_path_masses(label, tree, xi, fam):
    """Below every start, the exact optimal leaf law of `global_sup_lp`,
    factorized by the reference (kernels from per-path node masses), is a
    family measure: every kernel is in the class, it has that law below the
    start, so it charges no -inf leaf there, and its mean claim there is
    the value, `==`."""
    for start in lp_starts(tree):
        value, law = oracle_lp.global_sup_lp(tree, xi, fam, start=start, exact=True)
        if value == NEG_INF:
            assert law is None
            continue
        P = reference_factorize_leaf_law(tree, fam, law, start)
        assert P.leaf_law(tree, start) == law
        # the claim below the start, float values read exactly as the LP
        # reads them; above the start the tree may be dead
        below = {leaf: xi[leaf] if xi[leaf] == NEG_INF else rat(xi[leaf]) for leaf in law}
        ok, why = in_family(tree, P, fam.with_claim(below))
        assert ok, why
        assert P.expectation(tree, below, start=start) == value
