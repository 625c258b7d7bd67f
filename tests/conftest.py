import json
import random
from fractions import Fraction

import pytest

from robusthedge import oracle_lp
from robusthedge.dual_dp import LEVEL_BATCH_MIN, one_step_sup
from robusthedge.market_tree import NEG_INF, build_tree
from robusthedge.measure_families import MARTINGALE, VAR_BOUNDED, Kernel, TreeMeasure
from robusthedge.oracle_lp import enumerate_vertex_kernels
from robusthedge.simplex import RAT, rat


@pytest.fixture(autouse=True)
def fresh_leaf_law_memo():
    """Every test starts with an empty leaf-law LP memo (keyed on the
    instance), so one that intercepts `simplex.solve` or `leaf_law_rows`
    sees the lift and the solve even when an earlier test solved the same
    instance."""
    oracle_lp._solved_leaf_law.cache_clear()


@pytest.fixture
def binomial1():
    return build_tree({"dim": 1, "depth": 1, "generator": {"kind": "binomial"}})


@pytest.fixture
def binomial2():
    return build_tree({"dim": 1, "depth": 2, "generator": {"kind": "binomial"}})


@pytest.fixture
def trinomial1():
    return build_tree({"dim": 1, "depth": 1, "generator": {"kind": "trinomial"}})


@pytest.fixture
def trinomial2():
    return build_tree({"dim": 1, "depth": 2, "generator": {"kind": "trinomial"}})


def fair_measure(tree):
    """Uniform kernel at every internal node."""
    kernels = {}
    for nid in tree.internal_nodes:
        ch = tree.children(nid)
        kernels[nid] = Kernel(nid, {c: 1.0 / len(ch) for c in ch})
    return TreeMeasure(kernels)


def all_paths(tree):
    """Every root-to-leaf path as its list of node ids, in leaf order."""
    return [tree.path_to(leaf) for leaf in tree.leaves]


def seeded(i=0):
    return random.Random(20260823 + i)


class DictField(dict):
    """A value field as a plain dict, with the multipliers in a dict `hedge`
    and the numeric mode in `exact`."""

    def __init__(self, exact):
        super().__init__()
        self.hedge, self.exact = {}, exact


def exact_spec(spec):
    """`spec` as `--exact` reads it from a config: decimals become the
    rationals they spell."""
    return json.loads(json.dumps(spec), parse_float=Fraction)


def claim_is_exact(xi):
    """The numeric mode of a claim: exact iff no finite value is a float."""
    return not any(isinstance(v, float) and v != NEG_INF for v in xi.values())


def per_node_field(tree, xi, fam):
    """The reference for the level pass: the value field from one
    `one_step_sup` per internal node, in descending ids, kept in dicts."""
    exact = claim_is_exact(xi)
    Y = DictField(exact)
    for nid in reversed(tree.nodes):
        if tree.is_leaf(nid):
            Y[nid] = xi[nid]
        else:
            sol = one_step_sup(tree, nid, Y, fam, exact=exact)
            Y[nid] = sol.value
            Y.hedge[nid] = sol.h
    return Y


def in_id_order(values):
    """`repr` of a dict as the dict of its items in id order, the order in
    which a `NodeValues` lists them."""
    return repr(dict(sorted(values.items())))


def reference_path_lp(tree, xi, fam, start):
    """Rows of the leaf-law LP below `start`, written out per family class
    in leaf space, with one `below` set per internal node and the child on
    every (node, leaf) path.  -inf leaves are dropped (their probability is
    forced to zero)."""
    xi = {leaf: xi[leaf] for leaf in tree.leaves_below(start)}
    all_leaves = tree.leaves_below(start)
    leaves = [l for l in all_leaves if xi.get(l, 0) != NEG_INF]
    d = tree.dim
    internal = [n for n in tree.subtree_nodes(start) if not tree.is_leaf(n)]
    below = {n: set(tree.leaves_below(n)) for n in internal}
    # step taken at node n on the way to leaf l: spot(child on path) - spot(n)
    child_on_path = {}
    for l in all_leaves:
        path = tree.path_to(l)
        for i, n in enumerate(path[:-1]):
            child_on_path[(n, l)] = path[i + 1]
    A_eq = [[1] * len(leaves)]
    b_eq = [1]
    A_ub, b_ub = [], []
    for n in internal:
        xn = tree.spot(n)
        for k in range(d):
            if fam.cls in (MARTINGALE, VAR_BOUNDED):
                row = []
                for l in leaves:
                    if l in below[n]:
                        c = child_on_path[(n, l)]
                        row.append(tree.spot(c)[k] - xn[k])
                    else:
                        row.append(0)
                A_eq.append(row)
                b_eq.append(0)
        if fam.cls == VAR_BOUNDED:
            hi_row, lo_row = [], []
            for l in leaves:
                if l in below[n]:
                    c = child_on_path[(n, l)]
                    g = (tree.spot1(c) - tree.spot1(n)) ** 2
                    hi_row.append(g - fam.var_hi)
                    lo_row.append(fam.var_lo - g)
                else:
                    hi_row.append(0)
                    lo_row.append(0)
            A_ub.append(hi_row)
            b_ub.append(0)
            A_ub.append(lo_row)
            b_ub.append(0)
    c_obj = [xi.get(l, 0) for l in leaves]
    return leaves, A_eq, b_eq, A_ub, b_ub, c_obj


def reference_factorize_leaf_law(tree, fam, law, start):
    """A measure whose leaf law below `start` is `law` (leaf -> exact
    probability): conditional kernels from node masses summed along each
    leaf's root path, and at every internal node the law does not charge
    (every node outside `start`'s subtree among them) the vertex oracle's
    first kernel of the unrestricted family."""
    mass = dict.fromkeys(tree.nodes, RAT(0))
    for l, ql in law.items():
        path = tree.path_to(l)
        for n in path[path.index(start) :]:
            mass[n] += ql
    kernels = {}
    for n in tree.internal_nodes:
        if mass[n] > 0:
            kernels[n] = Kernel(n, {c: mass[c] / mass[n] for c in tree.children(n) if mass[c] > 0})
        else:
            kernels[n] = enumerate_vertex_kernels(tree, n, fam.unrestricted())[0]
    return TreeMeasure(kernels)


def reference_solve_unique(A, b):
    """Unique exact solution of A x = b (possibly overdetermined), or None,
    by Gauss-Jordan elimination on rationals: the reference for the
    fraction-free elimination of `oracle_lp._solve_unique`."""
    m, n = len(A), len(A[0]) if A else 0
    M = [[rat(v) for v in row] + [rat(bb)] for row, bb in zip(A, b)]
    piv_rows = 0
    piv_cols = []
    for col in range(n):
        piv = next((r for r in range(piv_rows, m) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[piv_rows], M[piv] = M[piv], M[piv_rows]
        inv = 1 / M[piv_rows][col]
        M[piv_rows] = [v * inv for v in M[piv_rows]]
        for r in range(m):
            if r != piv_rows and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * bb for a, bb in zip(M[r], M[piv_rows])]
        piv_cols.append(col)
        piv_rows += 1
    if piv_rows < n:
        return None  # underdetermined
    for r in range(piv_rows, m):
        if M[r][n] != 0:
            return None  # inconsistent
    x = [RAT(0)] * n
    for r, col in enumerate(piv_cols):
        x[col] = M[r][n]
    return x


def enumerate_polytope_vertices(n, A_eq, b_eq, A_ub=(), b_ub=()):
    """All vertices of {x >= 0, A_eq x = b_eq, A_ub x <= b_ub}, exact and
    sorted, as fresh lists, through the memo of `oracle_lp`'s enumeration
    (the rows key it as tuples of their native numbers)."""
    key = oracle_lp._row_key(n, A_eq, b_eq, A_ub, b_ub)
    return [list(v) for v, _ in oracle_lp._polytope_vertices(*key)]


def counting_calls(monkeypatch, module, name):
    """Patch `module.name` to record the positional arguments of each call
    in the returned list."""
    calls = []
    f = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def wide_tree(generator, min_depth=2):
    """The shallowest tree from `generator` with an internal level at least
    LEVEL_BATCH_MIN wide."""
    depth = min_depth
    while True:
        tree = build_tree({"dim": 1, "depth": depth, "generator": generator})
        if len(tree.levels[-2]) >= LEVEL_BATCH_MIN:
            return tree
        depth += 1


# generators whose trees `wide_tree` grows until a level is batched: int,
# float, mixed and one-sided offsets
WIDE_GENERATORS = {
    "binomial": {"kind": "binomial"},
    "binomial-up0.1": {"kind": "binomial", "up": 0.1},
    "trinomial": {"kind": "trinomial"},
    "five-offset": {"kind": "explicit", "offsets": [-2, -1, 0, 1, 2]},
    "float-offsets": {"kind": "explicit", "offsets": [-0.3, -0.1, 0, 0.2, 0.7]},
    "mixed-offsets": {"kind": "explicit", "offsets": [-1, 0.5, 2]},
    "one-sided": {"kind": "explicit", "offsets": [0, 1, 2]},
    "one-sided-up": {"kind": "explicit", "offsets": [1, 2]},
}
