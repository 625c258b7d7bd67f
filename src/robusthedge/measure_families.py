"""Kernels, tree measures, measure families, and measure surgery.

A family is node-local: a measure belongs to it iff every one-step kernel
passes a per-node test (all kernels / martingale kernels / variance-bounded
martingale kernels), optionally combined with the claim filter that rejects
measures charging a leaf where the claim is -inf.  Node-locality is what
makes the pasting / conditioning / bifurcation closure properties hold on
trees, and it is exactly what the surgery operations below exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .market_tree import NEG_INF, MarketTree, node_array, validate_stopping_time

FEAS_TOL = 1e-12

ALL = "all"
MARTINGALE = "martingale"
VAR_BOUNDED = "var_bounded"


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class Kernel:
    """One-step transition law at a node: child id -> probability."""

    node: int
    probs: Mapping[int, object]

    def support(self) -> tuple:
        return tuple(sorted(c for c, p in self.probs.items() if p > 0))


@dataclass(frozen=True)
class TreeMeasure:
    """Node-indexed family of kernels; one kernel per non-leaf node."""

    kernels: Mapping[int, Kernel]

    def kernel(self, nid: int) -> Kernel:
        return self.kernels[nid]

    def prob(self, nid: int, child: int):
        return self.kernels[nid].probs.get(child, 0)

    def node_mass(self, tree: MarketTree, start: Optional[int] = None) -> dict:
        """Probability of reaching each node from `start` (default: root)."""
        start = tree.root if start is None else start
        mass = dict.fromkeys(tree.nodes, 0)
        mass[start] = 1
        for nid in tree.subtree_nodes(start):
            m = mass[nid]
            if m == 0 or tree.is_leaf(nid):
                continue
            k = self.kernels.get(nid)
            if k is None:
                raise MeasureError(f"charged node {nid} has no kernel")
            for c in tree.children(nid):
                mass[c] = m * k.probs.get(c, 0)
        return mass

    def leaf_law(self, tree: MarketTree, start: Optional[int] = None) -> dict:
        start = tree.root if start is None else start
        mass = self.node_mass(tree, start)
        return {leaf: mass[leaf] for leaf in tree.leaves_below(start)}

    def expectation(self, tree: MarketTree, xi: Mapping, start: Optional[int] = None):
        """E[xi]; -inf as soon as a -inf leaf is charged (never 0 * inf)."""
        law = self.leaf_law(tree, start)
        total = 0
        for leaf, q in law.items():
            if q == 0:
                continue
            v = xi[leaf]
            if v == NEG_INF:
                return NEG_INF
            total += q * v
        return total


@dataclass(frozen=True)
class FamilySpec:
    """Which measure class: ALL, MARTINGALE, or VAR_BOUNDED martingale.

    var_lo/var_hi are positive scalars (d = 1 only); claim, when present,
    activates the filter that drops measures charging a -inf leaf.
    """

    cls: str = MARTINGALE
    var_lo: Optional[object] = None
    var_hi: Optional[object] = None
    claim: Optional[Mapping] = field(default=None, compare=False)

    def __post_init__(self):
        if self.cls not in (ALL, MARTINGALE, VAR_BOUNDED):
            raise MeasureError(f"unknown family class {self.cls!r}")
        if self.cls == VAR_BOUNDED:
            if self.var_lo is None or self.var_hi is None:
                raise MeasureError("VAR_BOUNDED needs var_lo and var_hi")
            if not (0 < self.var_lo <= self.var_hi):
                raise MeasureError("need 0 < var_lo <= var_hi")

    def with_claim(self, xi: Optional[Mapping]) -> "FamilySpec":
        return FamilySpec(self.cls, self.var_lo, self.var_hi, xi)

    def unrestricted(self) -> "FamilySpec":
        return FamilySpec(self.cls, self.var_lo, self.var_hi, None)


# -- kernel-level checks -------------------------------------------------


def validate_kernel(tree: MarketTree, kernel: Kernel, tol: float = FEAS_TOL) -> None:
    children = set(tree.children(kernel.node))
    if not children:
        raise MeasureError(f"node {kernel.node} is a leaf")
    for c, p in kernel.probs.items():
        if c not in children:
            raise MeasureError(f"kernel at {kernel.node} charges non-child {c}")
        if p < -tol:
            raise MeasureError(f"negative probability {p} at {kernel.node}->{c}")
    s = sum(kernel.probs.values())
    if abs(s - 1) > tol:
        raise MeasureError(f"kernel at {kernel.node} sums to {s}")


def kernel_mean(tree: MarketTree, kernel: Kernel) -> tuple:
    d = tree.dim
    out = [0] * d
    for c, p in kernel.probs.items():
        xc = tree.spot(c)
        for k in range(d):
            out[k] += p * xc[k]
    return tuple(out)


def is_martingale_kernel(tree: MarketTree, kernel: Kernel, tol: float = FEAS_TOL) -> bool:
    mean = kernel_mean(tree, kernel)
    xn = tree.spot(kernel.node)
    return all(abs(mean[k] - xn[k]) <= tol for k in range(tree.dim))


def kernel_variance(tree: MarketTree, kernel: Kernel):
    """One-step conditional variance around the node spot (scalar for d=1)."""
    xn = tree.spot(kernel.node)
    d = tree.dim
    if d == 1:
        dxs = [(p, tree.spot(c)[0] - xn[0]) for c, p in kernel.probs.items()]
        return sum(p * (dx * dx) for p, dx in dxs)
    out = [[0] * d for _ in range(d)]
    for c, p in kernel.probs.items():
        dx = [tree.spot(c)[k] - xn[k] for k in range(d)]
        for i in range(d):
            for j in range(d):
                out[i][j] += p * dx[i] * dx[j]
    return tuple(tuple(row) for row in out)


def kernel_in_class(tree: MarketTree, kernel: Kernel, fam: FamilySpec, tol: float = FEAS_TOL):
    """(ok, reason) for the per-node class test, ignoring the claim filter."""
    try:
        validate_kernel(tree, kernel, tol)
    except MeasureError as exc:
        return False, str(exc)
    if fam.cls == ALL:
        return True, None
    if not is_martingale_kernel(tree, kernel, tol):
        return False, f"kernel at node {kernel.node} is not a martingale kernel"
    if fam.cls == VAR_BOUNDED:
        if tree.dim != 1:
            raise MeasureError("VAR_BOUNDED is implemented for d = 1 only")
        v = kernel_variance(tree, kernel)
        if v < fam.var_lo - tol or v > fam.var_hi + tol:
            return False, (
                f"kernel variance {v} at node {kernel.node} outside "
                f"[{fam.var_lo}, {fam.var_hi}]"
            )
    return True, None


def in_family(tree: MarketTree, P: TreeMeasure, fam: FamilySpec, tol: float = FEAS_TOL):
    """(ok, first-violation report).  Claim filter: no mass on -inf leaves."""
    for nid in tree.internal_nodes:
        if nid not in P.kernels:
            return False, f"no kernel at non-leaf node {nid}"
        ok, why = kernel_in_class(tree, P.kernel(nid), fam, tol)
        if not ok:
            return False, why
    if fam.claim is not None:
        law = P.leaf_law(tree)
        for leaf in sorted(law):
            if law[leaf] > 0 and fam.claim.get(leaf) == NEG_INF:
                return False, f"measure charges -inf leaf {leaf} (E[xi^-] = +inf)"
    return True, None


# -- measure surgery -----------------------------------------------------


def rcpd(tree: MarketTree, P: TreeMeasure, nid: int) -> TreeMeasure:
    """Conditional law given the path to `nid`: kernel restriction to its subtree."""
    if tree.is_leaf(nid):
        raise MeasureError(f"node {nid} is a leaf; its r.c.p.d. is trivial")
    sub = set(tree.subtree_nodes(nid))
    return TreeMeasure({n: P.kernel(n) for n in P.kernels if n in sub})


def paste(tree: MarketTree, P: TreeMeasure, tau: Iterable[int], nu: Mapping[int, TreeMeasure]) -> TreeMeasure:
    """Measure equal to P strictly above tau and to nu(m) below each m in tau.

    nu may omit tau-nodes not charged by P; those subtrees keep P's kernels.
    """
    tau = set(tau)
    ok, why = validate_stopping_time(tree, tau)
    if not ok:
        raise MeasureError(f"invalid stopping time: {why}")
    mass = P.node_mass(tree)
    kernels = {}
    below = set()
    for m in tau:
        for n in tree.subtree_nodes(m):
            below.add(n)
    for nid in tree.internal_nodes:
        if nid not in below:
            kernels[nid] = P.kernel(nid)
    for m in sorted(tau):
        if tree.is_leaf(m):
            continue
        piece = nu.get(m)
        if piece is None:
            if mass[m] > 0:
                raise MeasureError(f"no subtree measure for charged tau-node {m}")
            piece = rcpd(tree, P, m)
        for nid in tree.subtree_nodes(m):
            if not tree.is_leaf(nid):
                kernels[nid] = piece.kernel(nid)
    return TreeMeasure(kernels)


def bifurcate(tree: MarketTree, P1: TreeMeasure, P2: TreeMeasure, tau: Iterable[int], A: Iterable[int], tol: float = FEAS_TOL) -> TreeMeasure:
    """Glue P1 below tau-nodes in A and P2 below the rest; common part above."""
    tau = set(tau)
    A = set(A)
    ok, why = validate_stopping_time(tree, tau)
    if not ok:
        raise MeasureError(f"invalid stopping time: {why}")
    if not A <= tau:
        raise MeasureError("A must be a subset of the tau-nodes")
    below = set()
    for m in tau:
        below.update(tree.subtree_nodes(m))
    kernels = {}
    for nid in tree.internal_nodes:
        if nid in below:
            continue
        k1, k2 = P1.kernel(nid), P2.kernel(nid)
        for c in tree.children(nid):
            if abs(k1.probs.get(c, 0) - k2.probs.get(c, 0)) > tol:
                raise MeasureError(
                    f"P1 and P2 differ above tau at node {nid} (child {c})"
                )
        kernels[nid] = k1
    for m in tau:
        src = P1 if m in A else P2
        for nid in tree.subtree_nodes(m):
            if not tree.is_leaf(nid):
                kernels[nid] = src.kernel(nid)
    return TreeMeasure(kernels)


def conditional_abs_terminal(tree: MarketTree, P: TreeMeasure, nid: int):
    """E under rcpd(P, nid) of |B_N - x_nid| (L1 norm for d > 1)."""
    if tree.is_leaf(nid):
        return 0
    xn = tree.spot(nid)
    piece = rcpd(tree, P, nid)
    total = 0
    # relative leaf masses below nid
    stack = [(nid, 1)]
    while stack:
        cur, m = stack.pop()
        if tree.is_leaf(cur):
            if m:
                xl = tree.spot(cur)
                total += m * sum(abs(xl[k] - xn[k]) for k in range(tree.dim))
            continue
        for c in tree.children(cur):
            stack.append((c, m * piece.prob(cur, c)))
    return total


def truncate_kernels(tree: MarketTree, P: TreeMeasure, tau: Iterable[int], nu: Mapping[int, TreeMeasure], threshold) -> tuple:
    """Replace high-dispersion subtree measures by P's conditional law.

    Returns (nu_n, E_n): nu_n(m) = nu(m) when its conditional terminal
    absolute moment from m is <= threshold, else rcpd(P, m); E_n is the set
    of tau-nodes where no replacement occurred.  E_n grows with the
    threshold and exhausts tau once it dominates every subtree moment.
    """
    tau = set(tau)
    nu_n, E_n = {}, set()
    for m in sorted(tau):
        if tree.is_leaf(m):
            E_n.add(m)
            continue
        piece = nu.get(m)
        if piece is None:
            piece = rcpd(tree, P, m)
        moment = conditional_abs_terminal(tree, piece, m)
        if moment <= threshold:
            nu_n[m] = piece
            E_n.add(m)
        else:
            nu_n[m] = rcpd(tree, P, m)
    return nu_n, E_n


# -- the one-step kernel polytope ----------------------------------------


def one_step_rows(tree: MarketTree, nid: int, children, fam: FamilySpec) -> tuple:
    """(A_eq, b_eq, A_ub, b_ub) of the family's kernels at `nid` restricted to
    `children`, over their probabilities in the given order: total mass 1,
    zero mean step for the martingale classes, and the conditional variance
    in [var_lo, var_hi] for VAR_BOUNDED.  The claim filter is not applied.

    This is the only code that knows a family's constraints.  Its consumers
    rely on the row layout: A_eq[0] is the mass row (all ones, rhs 1),
    A_eq[1 + k] is the mean row of coordinate k (k < d; the DP reads the
    hedge from the duals `y_eq[1 + k]`), further equalities would follow
    them, and A_ub holds the `<=` rows.  The vertex oracle and the DP's
    one-step LP take the rows as they are; `oracle_lp.leaf_law_rows` lifts
    every row after the mass row into leaf space once, and the two LP
    cross-checks read that lift: the leaf-law LP as its rows, the primal
    hedging LP as its columns (one variable per lifted row)."""
    d = tree.dim
    xn = tree.spot(nid)
    A_eq = [[1] * len(children)]
    b_eq = [1]
    if fam.cls in (MARTINGALE, VAR_BOUNDED):
        for k in range(d):
            A_eq.append([tree.spot(c)[k] - xn[k] for c in children])
            b_eq.append(0)
    A_ub, b_ub = [], []
    if fam.cls == VAR_BOUNDED:
        if d != 1:
            raise MeasureError("VAR_BOUNDED is implemented for d = 1 only")
        # the squared steps of the mean row; dx * dx, not dx ** 2, which
        # CPython hands to the C library's pow, not always correctly rounded
        g = [dx * dx for dx in A_eq[1]]
        A_ub.append(g)
        b_ub.append(fam.var_hi)
        A_ub.append([-v for v in g])
        b_ub.append(-fam.var_lo)
    return A_eq, b_eq, A_ub, b_ub


# -- chargeability and polar paths ---------------------------------------


def martingale_chargeable_1d(deltas: Mapping) -> set:
    """Children some d = 1 martingale kernel charges, from the spot steps
    child -> x_c - x_n: c is chargeable iff its step is 0, or it is negative
    and some step is positive, or it is positive and some step is negative."""
    up = max(deltas.values()) > 0
    down = min(deltas.values()) < 0
    return {
        c for c, dc in deltas.items()
        if dc == 0 or (dc < 0 and up) or (dc > 0 and down)
    }


def chargeable_children(tree: MarketTree, nid: int, fam: FamilySpec, alive=None) -> set:
    """Children that some family kernel at `nid` supported on `alive`
    charges (flags by node id, as `alive_nodes` returns; None admits every
    child).  Empty iff no such kernel exists.

    Closed forms cover ALL (the alive children) and the d = 1 martingale
    case (`martingale_chargeable_1d` over the alive children's steps); the
    general case unites the supports of the vertex kernels that lie inside
    `alive`, which are the vertices of the restricted polytope (a face).
    """
    children = tree.children(nid)
    if alive is not None:
        children = [c for c in children if alive[c]]
    if not children:
        return set()
    if fam.cls == ALL:
        return set(children)
    if fam.cls == MARTINGALE and tree.dim == 1:
        xn = tree.spot1(nid)
        return martingale_chargeable_1d({c: tree.spot1(c) - xn for c in children})
    from . import oracle_lp  # local import: oracle_lp depends on this module

    out = set()
    for v in oracle_lp.enumerate_vertex_kernels(tree, nid, fam.unrestricted()):
        support = v.support()
        if alive is None or all(alive[c] for c in support):
            out.update(support)
    return out


def alive_nodes(tree: MarketTree, fam: FamilySpec, xi: Mapping, known: Iterable[int] = ()) -> bytearray:
    """Flags by node id, bottom-up: a leaf is alive when its claim is not
    -inf, an internal node when some family kernel is supported on its alive
    children.  These are the nodes where the DP value is finite, found
    without the DP.  The internal nodes in `known` are taken as alive
    without a look at their children (the nodes that a proven family law
    avoiding the -inf leaves charges, say)."""
    known = set(known)
    alive = bytearray(len(tree.nodes))
    alive[tree.leaves.start :] = bytes(v != NEG_INF for v in map(xi.get, tree.leaves))
    for n in reversed(tree.internal_nodes):
        alive[n] = n in known or bool(chargeable_children(tree, n, fam, alive))
    return alive


def polar_paths(tree: MarketTree, fam: FamilySpec, xi: Optional[Mapping] = None) -> list:
    """Paths charged by no family measure, sorted by leaf.

    Chargeability factorizes over steps for node-local families, so a
    "dead" flag (some edge above is not chargeable) is propagated top-down:
    level by level over the child steps (`MarketTree.child_steps`) for the
    d = 1 martingale family, in id order through `chargeable_children` for
    the others.  A leaf is polar when it is dead or its claim is -inf.  With
    the claim filter active (a claim-restricted family and a -inf leaf) only
    kernels supported on the `alive_nodes` count, a bottom-up pass run
    first.  No LP is solved.
    """
    import numpy as np

    if xi is None:
        xi = fam.claim
    alive = None
    if xi is not None and fam.claim is not None and NEG_INF in xi.values():
        alive = alive_nodes(tree, fam, xi)
    if fam.cls == MARTINGALE and tree.dim == 1:
        gone = _martingale_dead_leaves_1d(tree, alive)
    else:
        flags = bytearray(len(tree.nodes))
        for n in tree.internal_nodes:
            charge = () if flags[n] else chargeable_children(tree, n, fam, alive)
            for c in tree.children(n):
                flags[c] = c not in charge
        gone = np.frombuffer(flags, dtype=bool)[tree.leaves.start :]
    if xi is not None:
        claim = node_array(xi, tree.leaves)
        if claim is None:
            claim = np.fromiter(map(xi.get, tree.leaves), dtype=object, count=len(tree.leaves))
        gone = gone | (claim == NEG_INF)
    return [tree.path_to(tree.leaves[i]) for i in np.flatnonzero(gone).tolist()]


def _martingale_dead_leaves_1d(tree: MarketTree, alive=None):
    """The dead flags of the leaves, in id order, as a bool array, for the
    d = 1 martingale family: level by level, each node's k child steps are
    judged by the rule of `martingale_chargeable_1d` (over the children that
    `alive` flags, when given), and every child of a dead node is dead."""
    import numpy as np

    k = len(tree.offsets)
    if alive is not None:
        alive = np.frombuffer(alive, dtype=bool)
    dead = np.zeros(1, dtype=bool)
    for level, below in zip(tree.levels, tree.levels[1:]):
        steps = tree.child_steps(level)
        up, down = steps > 0, steps < 0
        if alive is not None:
            live = alive[below.start : below.stop].reshape(-1, k)
            up, down = up & live, down & live
        # a step is uncharged when it is nonzero and no (alive) step of its
        # node has the other sign, or when its child is not alive
        uncharged = (up & ~down.any(axis=1, keepdims=True)) | (down & ~up.any(axis=1, keepdims=True))
        if alive is not None:
            uncharged |= ~live
        dead = (dead[:, None] | uncharged).ravel()
    return dead


# -- serialization -------------------------------------------------------


def family_from_doc(doc: Mapping, claim: Optional[Mapping] = None) -> FamilySpec:
    return FamilySpec(
        cls=doc["class"],
        var_lo=doc.get("var_lo"),
        var_hi=doc.get("var_hi"),
        claim=claim if doc.get("claim_restricted") else None,
    )
