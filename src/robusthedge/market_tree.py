"""Finite scenario trees: paths, stopping times, claim shifting.

A tree models the discrete market: each node carries a spot vector, the
root spot is zero, and every leaf sits at the terminal time N.  Trees are
non-recombining, so a node id identifies the whole path prefix and any
path-dependent payoff is a function of the leaf id alone.

Node ids are breadth-first: the root is 0, every parent id is smaller than
its children's ids, and the children of a node carry consecutive ids.  The
top-down passes (path-dependent claims, hedge wealth, polar flags,
stopping-time checks) visit every parent before its children by walking the
ids in increasing order, so they take O(N) time without building a
root-to-leaf path per leaf.  The same ids make every time level one
contiguous block (`MarketTree.levels`), which the backward DP walks from the
leaves up.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Mapping, Optional

NEG_INF = float("-inf")


class TreeError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    t: int
    x: tuple
    parent: Optional[int]
    children: tuple


@dataclass(frozen=True)
class MarketTree:
    """Immutable non-recombining tree with breadth-first integer node ids."""

    dim: int
    nodes: tuple
    root: int = 0

    # -- basic accessors -------------------------------------------------

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def spot(self, nid: int) -> tuple:
        return self.nodes[nid].x

    def spot1(self, nid: int):
        """Scalar spot, d = 1 convenience."""
        return self.nodes[nid].x[0]

    def children(self, nid: int) -> tuple:
        return self.nodes[nid].children

    def parent(self, nid: int) -> Optional[int]:
        return self.nodes[nid].parent

    def is_leaf(self, nid: int) -> bool:
        return not self.nodes[nid].children

    # cached in the instance __dict__, which a frozen dataclass still has
    @cached_property
    def depth(self) -> int:
        return max(n.t for n in self.nodes)

    @cached_property
    def leaves(self) -> tuple:
        return tuple(n.id for n in self.nodes if not n.children)

    @cached_property
    def internal_nodes(self) -> tuple:
        return tuple(n.id for n in self.nodes if n.children)

    @cached_property
    def levels(self) -> tuple:
        """The ids of each time t, as `levels[t]`, a range: breadth-first ids
        make every level one contiguous block.  One pass over the times."""
        ts = [n.t for n in self.nodes]
        if ts != sorted(ts):
            raise TreeError("node ids are not breadth-first")
        starts = [bisect_left(ts, t) for t in range(ts[-1] + 2)]
        return tuple(map(range, starts, starts[1:]))

    def nodes_at(self, t: int) -> tuple:
        return tuple(self.levels[t]) if 0 <= t < len(self.levels) else ()

    # -- path structure --------------------------------------------------

    def path_to(self, nid: int) -> list:
        """Node ids from the root down to `nid` inclusive."""
        out = []
        cur: Optional[int] = nid
        while cur is not None:
            out.append(cur)
            cur = self.nodes[cur].parent
        out.reverse()
        return out

    def paths(self) -> list:
        return [self.path_to(leaf) for leaf in self.leaves]

    def subtree_nodes(self, nid: int) -> list:
        """All ids weakly below `nid`, breadth-first."""
        out = [nid]
        i = 0
        while i < len(out):  # `out` doubles as the queue, read by a cursor
            out.extend(self.nodes[out[i]].children)
            i += 1
        return out

    def leaves_below(self, nid: int) -> list:
        return [m for m in self.subtree_nodes(nid) if self.is_leaf(m)]

    def step(self, nid: int, child: int) -> tuple:
        """Spot increment along the edge nid -> child."""
        xn, xc = self.spot(nid), self.spot(child)
        return tuple(xc[k] - xn[k] for k in range(self.dim))


def _offsets_from_generator(gen: Mapping) -> list:
    kind = gen.get("kind")
    if kind == "binomial":
        u = gen.get("up", 1)
        return [(-u,), (u,)]
    if kind == "trinomial":
        u = gen.get("step", 1)
        return [(-u,), (0 * u,), (u,)]
    if kind == "explicit":
        offs = gen.get("offsets")
        if not offs:
            raise TreeError("explicit generator needs a nonempty 'offsets' list")
        return [tuple(o) if isinstance(o, (list, tuple)) else (o,) for o in offs]
    raise TreeError(f"unknown generator kind {kind!r}")


def build_tree(spec: Mapping) -> MarketTree:
    """Build a tree from a JSON-style spec.

    Schema: {"dim": d, "depth": N, "generator": {"kind": "binomial"|"trinomial"
    |"explicit", ...}}.  The same k child offsets are applied at every non-leaf
    node.  Node ids are breadth-first, so outputs are reproducible and the
    module's id invariant holds: parent id < child id, and the children of
    node i are the k consecutive ids k*i + 1 .. k*i + k.  One int object per
    id is shared by the node's `id`, its children's `parent` and its parent's
    `children`.
    """
    dim = int(spec.get("dim", 1))
    depth = int(spec["depth"])
    if depth < 1:
        raise TreeError("depth must be >= 1")
    offsets = _offsets_from_generator(spec["generator"])
    for off in offsets:
        if len(off) != dim:
            raise TreeError(f"offset {off} has wrong dimension (expected {dim})")
        for v in off:
            if isinstance(v, float) and not (v == v and abs(v) != float("inf")):
                raise TreeError(f"non-finite spot offset {v}")

    k = len(offsets)
    n_internal = sum(k**t for t in range(depth))
    ids = list(range(n_internal + k**depth))
    nodes = [Node(ids[0], 0, tuple(0 for _ in range(dim)), None, tuple(ids[1 : k + 1]))]
    for pid in range(n_internal):
        parent = nodes[pid]
        t = parent.t + 1
        for off in offsets:
            first = k * len(nodes) + 1  # past the last id for a leaf: no children
            nodes.append(
                Node(ids[len(nodes)], t, tuple(map(add, parent.x, off)), parent.id,
                     tuple(ids[first : first + k]))
            )
    return MarketTree(dim=dim, nodes=tuple(nodes))


def shift_claim(tree: MarketTree, xi: Mapping, nid: int) -> dict:
    """Restrict a claim to the leaves below `nid` (values unchanged)."""
    return {leaf: xi[leaf] for leaf in tree.leaves_below(nid)}


def validate_stopping_time(tree: MarketTree, members: Iterable[int]) -> tuple:
    """Check the antichain / exactly-one-hit-per-path property.

    Returns (ok, report); report is None when ok, otherwise a short string
    naming the first violation: an unknown id; else the ancestor pair (a, b)
    smallest in (a, b) order; else the first leaf whose path does not meet
    the set exactly once.  Two O(N) passes over the breadth-first ids.
    """
    S = set(members)
    for nid in S:
        if not (0 <= nid < len(tree.nodes)):
            return False, f"unknown node id {nid}"
    n_nodes = len(tree.nodes)
    # smallest member strictly below each node (n_nodes when there is none)
    below = [n_nodes] * n_nodes
    for n in reversed(tree.internal_nodes):
        m = n_nodes
        for c in tree.children(n):
            m = min(m, below[c], c if c in S else n_nodes)
        below[n] = m
    for a in sorted(S):
        if below[a] < n_nodes:
            return False, f"{a} is an ancestor of {below[a]}"
    # members met on the path from the root, parents first
    hits = [0] * n_nodes
    for node in tree.nodes:
        up = 0 if node.parent is None else hits[node.parent]
        hits[node.id] = up + (node.id in S)
    for leaf in tree.leaves:
        if hits[leaf] != 1:
            return False, f"path to leaf {leaf} meets the set {hits[leaf]} times"
    return True, None


def stopping_time_below(tree: MarketTree, sigma: Iterable[int], tau: Iterable[int]) -> bool:
    """True iff every path meets sigma at or before tau.  One top-down pass:
    a node is marked once a path down to it has met tau strictly before
    sigma."""
    sig, ta = set(sigma), set(tau)
    met_sigma = bytearray(len(tree.nodes))
    late = bytearray(len(tree.nodes))
    for node in tree.nodes:
        p = node.parent
        if p is not None and (met_sigma[p] or late[p]):
            met_sigma[node.id], late[node.id] = met_sigma[p], late[p]
        elif node.id in sig:
            met_sigma[node.id] = 1
        elif node.id in ta:
            late[node.id] = 1
    return not any(late[leaf] for leaf in tree.leaves)
