"""Finite scenario trees: paths, stopping times, values per node.

A tree models the discrete market: each node carries a spot vector, the
root spot is zero, and every leaf sits at the terminal time N.  Trees are
non-recombining, so a node id identifies the whole path prefix and any
path-dependent payoff is a function of the leaf id alone.

Every tree is uniform: the same k spot offsets are applied at every
internal node, so a tree is stored as its generator (dimension, offsets,
depth) and its structure is arithmetic on breadth-first ids.  The root is
0, the children of node i are k*i + 1 .. k*i + k, its parent is
(i - 1) // k, and its time is the level whose id range holds it.  Every id
set is a `range`: all nodes, the leaves, the internal nodes, the children
of a node and each time level (`MarketTree.levels`); the children of a
level are the next level, in order.

Only the spots are stored: one plain Python list per coordinate, level
after level, each level built from the one above by adding the offsets, so
spots keep the numeric type of the offsets (int, float, Fraction).  The
lists grow on demand: `spot`, `spot1` and `step` build the levels down to
the id they read, and `MarketTree.coords` builds them all.
`MarketTree.spot_array` gives one coordinate as a numpy array, once per
tree: float64 when every spot is a float or an int within +-INT_SPOT_BOUND,
so that each step and each difference of two steps is an exact double,
built from the offsets without the lists; dtype=object, holding the spots
themselves, otherwise.  The deep-tree passes (path-dependent claims, hedge
wealth, polar flags, the backward DP) are numpy passes over level slices of
these arrays: on an object array numpy applies the same Python operators in
the same order, so exact and Fraction trees run the same code.  They take
O(N) time and build no per-node object.

The wealth, polar and DP passes read a level's spot steps from
`MarketTree.child_steps`.  When the spot array is float64 and every offset
of the coordinate is an int, every spot is an integer double within
+-INT_SPOT_BOUND and every node's steps are its offsets bit for bit, so the
steps are one (1 x k) float64 row, built once per tree, that numpy
broadcasts over the level.  Otherwise (float offsets, whose steps can
differ from node to node in the last bit, Fraction offsets, object spots)
they are the (n x k) per-node differences of the spot array.

Values per node travel between those passes in `NodeValues`: a mapping
node id -> value over one contiguous id range (the leaves of a claim, every
node of a value field, the internal nodes of a hedge coordinate), stored as
one Python list indexed by id.  When a numpy pass made every value a float
it also keeps that float64 array, so the next pass reads the array instead
of looking the values up id by id (`node_array`).  `NodeVectors` holds a
d-vector per node as d `NodeValues` columns.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, Mapping, MutableMapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional

NEG_INF = float("-inf")
# the float-mode tolerance of every gap, slack and property check
TOL = 1e-9


def value_gap(a, b):
    """|a - b| over [-inf, inf): 0 when both are -inf, inf when only one is."""
    if a == NEG_INF or b == NEG_INF:
        return 0.0 if a == b else float("inf")
    return abs(a - b)


# int spots up to this size make every step and every difference of two
# steps an exact double, so float64 passes compute what Python computes
INT_SPOT_BOUND = 2**51


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class MarketTree:
    """Immutable uniform non-recombining tree with breadth-first integer ids,
    stored as its generator: `offsets` holds the k spot steps (each a
    `dim`-tuple) applied at every internal node.  `nodes`, `leaves`,
    `internal_nodes` and `levels` (one per time) are id ranges."""

    dim: int
    offsets: tuple
    depth: int
    root = 0  # not a field: every tree is rooted at id 0

    def __post_init__(self):
        if self.depth < 1:
            raise TreeError("depth must be >= 1")
        if not self.offsets:
            raise TreeError("a tree needs at least one offset")
        for off in self.offsets:
            if len(off) != self.dim:
                raise TreeError(f"offset {off} has wrong dimension (expected {self.dim})")
            for v in off:
                if isinstance(v, float) and not (v == v and abs(v) != float("inf")):
                    raise TreeError(f"non-finite spot offset {v}")
        k = len(self.offsets)
        starts = [0]
        for t in range(self.depth + 1):
            starts.append(starts[-1] + k**t)
        # derived attributes live in the instance __dict__, outside the fields
        # that equality, hashing and pickling use
        put = object.__setattr__
        put(self, "levels", tuple(map(range, starts, starts[1:])))
        put(self, "nodes", range(starts[-1]))
        put(self, "leaves", self.levels[-1])
        put(self, "internal_nodes", range(starts[-2]))
        put(self, "_k", k)
        put(self, "_starts", starts[:-1])
        put(self, "_n_internal", starts[-2])
        put(self, "_xs", [[0] for _ in range(self.dim)])  # the spot lists, grown by `_grow`

    def __reduce__(self):
        return type(self), (self.dim, self.offsets, self.depth)

    # -- spots -----------------------------------------------------------

    def _grow(self, nid: int) -> None:
        """Extend the spot lists level by level down to the level of `nid`
        (the whole tree past the last id).  Each new level is `[x + o for x
        in <level above> for o in <offsets' coordinate j>]`: a child's
        coordinate is always its parent's plus the offset's, in that operand
        order, so spots are reproducible and keep the offsets' numeric
        types."""
        t = self.time(min(nid, self.nodes[-1]))
        for j, xs in enumerate(self._xs):
            offs = [off[j] for off in self.offsets]
            for level in self.levels[self.time(len(xs) - 1) : t]:
                xs += [x + o for x in xs[level.start :] for o in offs]

    @cached_property
    def coords(self) -> tuple:
        """The spots of every node, one list per coordinate: `coords[j][i]`
        is coordinate j of node i's spot."""
        self._grow(self.nodes[-1])
        return tuple(self._xs)

    def spot_array(self, j: int = 0):
        """Coordinate j of every spot as one numpy array, built on first use
        and kept on the tree: float64 when every spot is a float or an int
        within +-INT_SPOT_BOUND, else dtype=object holding `coords[j]`'s own
        values.

        Spots are sums of offsets from the int root 0, so they are all
        floats or ints exactly when the offsets are, and the largest int
        spot in absolute value is `depth` times the largest int offset.  In
        that case the float64 array is built level by level from the
        offsets: every addition is exact or rounds once, as Python's does."""
        arrays = self.__dict__.setdefault("_spot_arrays", {})
        if j not in arrays:
            import numpy as np  # lazily: the package imports without numpy

            offs = [off[j] for off in self.offsets]
            ints = [abs(o) for o in offs if type(o) in (int, bool)]  # 0 + True is an int
            if set(map(type, offs)) <= {float, int, bool} and self.depth * max(ints, default=0) <= INT_SPOT_BOUND:
                steps = np.array(offs, dtype=float)
                levels = [np.zeros(1)]
                for _ in range(self.depth):
                    levels.append((levels[-1][:, None] + steps).ravel())
                arrays[j] = np.concatenate(levels)
            else:
                arrays[j] = np.array(self.coords[j], dtype=object)
        return arrays[j]

    def child_steps(self, ids: range, j: int = 0):
        """The steps x_c - x_n of coordinate j from each node n of the
        contiguous internal id range `ids` to its k children, as a 2-d array
        that broadcasts to (len(ids), k): row i holds the children of
        ids[i] in order.

        When `spot_array(j)` is float64 and every offset of coordinate j is
        an int (bool counts as one), every spot is an integer double within
        +-INT_SPOT_BOUND, so every node's steps are its offsets bit for bit:
        the answer is then one (1 x k) float64 row of the offsets, built
        once and kept on the tree (read-only).  Otherwise it is the
        (len(ids) x k) per-node differences of `spot_array(j)`, with its
        dtype: float offsets, whose steps can differ from node to node in
        the last bit (or round to 0), Fraction offsets, object spots."""
        xs, rows = self.spot_array(j), self.__dict__.setdefault("_step_rows", {})
        if j not in rows:
            offs = [off[j] for off in self.offsets]
            rows[j] = None
            if xs.dtype != object and all(type(o) in (int, bool) for o in offs):
                import numpy as np

                rows[j] = np.array([offs], dtype=float)
                rows[j].flags.writeable = False
        if rows[j] is not None:
            return rows[j]
        k = self._k
        return xs[k * ids.start + 1 : k * ids.stop + 1].reshape(-1, k) - xs[ids.start : ids.stop, None]

    def spot(self, nid: int) -> tuple:
        coords = self._xs
        if nid >= len(coords[0]):
            self._grow(nid)
        if len(coords) == 1:
            return (coords[0][nid],)
        return tuple([xs[nid] for xs in coords])

    def spot1(self, nid: int):
        """Scalar spot, d = 1 convenience."""
        xs = self._xs[0]
        if nid >= len(xs):
            self._grow(nid)
        return xs[nid]

    def step(self, nid: int, child: int) -> tuple:
        """Spot increment along the edge nid -> child."""
        xn, xc = self.spot(nid), self.spot(child)
        return tuple(xc[k] - xn[k] for k in range(self.dim))

    # -- structure: id ranges and arithmetic -----------------------------

    def nodes_at(self, t: int) -> range:
        return self.levels[t] if 0 <= t < len(self.levels) else range(0)

    def children(self, nid: int) -> range:
        if nid >= self._n_internal:
            return range(0)
        first = self._k * nid + 1
        return range(first, first + self._k)

    def parent(self, nid: int) -> Optional[int]:
        return (nid - 1) // self._k if nid else None

    def is_leaf(self, nid: int) -> bool:
        return nid >= self._n_internal

    def time(self, nid: int) -> int:
        return bisect_right(self._starts, nid) - 1

    # -- path structure --------------------------------------------------

    def path_to(self, nid: int) -> list:
        """Node ids from the root down to `nid` inclusive."""
        out = [nid]
        while nid:
            nid = (nid - 1) // self._k
            out.append(nid)
        out.reverse()
        return out

    def _ranges_below(self, nid: int) -> list:
        """The ids weakly below `nid`, one range per time from nid's own:
        the children of the ids a..b-1 are k*a + 1 .. k*b."""
        out = [range(nid, nid + 1)]
        while out[-1].start < self._n_internal:
            a, b = out[-1].start, out[-1].stop
            out.append(range(self._k * a + 1, self._k * b + 1))
        return out

    def subtree_nodes(self, nid: int) -> list:
        """All ids weakly below `nid`, breadth-first."""
        return [m for r in self._ranges_below(nid) for m in r]

    def leaves_below(self, nid: int) -> list:
        return list(self._ranges_below(nid)[-1])


# -- values per node ---------------------------------------------------


class _Empty:
    """The marker of an id that holds no value; pickles as the module's own
    instance, so unpickled containers keep their empty ids empty."""

    __slots__ = ()

    def __reduce__(self):
        return "_EMPTY"


_EMPTY = _Empty()


class _NodeValuesValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping
        if m._empty:
            return (v for v in m._values if v is not _EMPTY)
        return iter(m._values)

    def __contains__(self, value):
        # an empty id's marker equals no value
        return value in self._mapping._values


class _NodeValuesItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        m = self._mapping
        return zip(m, m.values())


class NodeValues(MutableMapping):
    """A mapping node id -> value over the contiguous id range `ids`, stored
    as one Python list indexed by id - ids.start.  An id may be empty, that
    is absent from the mapping; no id outside `ids` can be added.

    Reads return the stored objects themselves (float, int, Fraction,
    NEG_INF), iteration goes in id order, and `==` and `repr` are those of
    the dict of the same items in id order.  A container that a numpy pass
    filled also keeps the float64 array of its values: `array` returns it,
    as a read-only view, while every id holds a float, and assignment keeps
    it in step with the list.  The container owns the list and the array it
    is given.
    """

    __slots__ = ("_start", "_values", "_array", "_empty")

    def __init__(self, ids: range, values: Optional[list] = None, array=None):
        """`values`: one value per id of `ids`, in order (None leaves every id
        empty); `array`: the same values as a float64 array, when a numpy
        pass produced them."""
        if values is None:
            values, empty = [_EMPTY] * len(ids), len(ids)
        elif len(values) != len(ids):
            raise ValueError(f"{len(values)} values for {len(ids)} ids")
        else:
            empty = 0
        if array is not None and array.shape != (len(ids),):
            raise ValueError(f"array of shape {array.shape} for {len(ids)} ids")
        self._start, self._values, self._array, self._empty = ids.start, values, array, empty

    @classmethod
    def from_array(cls, ids: range, array) -> "NodeValues":
        """The values of a numpy array over `ids`, as Python objects; a
        float64 array is kept as the container's array."""
        return cls(ids, array.tolist(), array if array.dtype == float else None)

    @classmethod
    def where(cls, ids: range, keep, values) -> "NodeValues":
        """`values` (a numpy array) at the ids of `ids` whose flag in the
        bool array `keep` is set, in order; the other ids empty."""
        import numpy as np

        full = np.full(len(ids), _EMPTY, dtype=object)
        full[keep] = values
        out = cls(ids, full.tolist())
        out._empty = len(ids) - int(np.count_nonzero(keep))
        return out

    @property
    def ids(self) -> range:
        return range(self._start, self._start + len(self._values))

    @property
    def array(self):
        """The float64 array of the values over `ids` (read-only), or None
        unless a numpy pass produced it and every id holds a float."""
        if self._array is None or self._empty:
            return None
        view = self._array.view()
        view.flags.writeable = False
        return view

    def write(self, ids: range, values: list, array=None) -> None:
        """Set the ids of the subrange `ids` to `values`, one per id, and
        to `array` (float64) in the array view, when given."""
        a, b = ids.start - self._start, ids.stop - self._start
        if not (0 <= a <= b <= len(self._values)) or len(values) != b - a:
            raise ValueError(f"{len(values)} values for ids {ids} of {self.ids}")
        if self._empty:
            if self._empty == len(self._values) and array is not None and self._array is None:
                import numpy as np

                self._array = np.empty(len(self._values))
            self._empty -= self._values[a:b].count(_EMPTY)
        self._values[a:b] = values
        if self._array is not None:
            if array is None:
                self._array = None
            else:
                self._array[a:b] = array

    def copy(self) -> "NodeValues":
        out = NodeValues(self.ids, list(self._values), None if self._array is None else self._array.copy())
        out._empty = self._empty
        return out

    __copy__ = copy

    def __getitem__(self, nid):
        try:
            i = nid - self._start
            if i >= 0:
                v = self._values[i]
                if v is not _EMPTY:
                    return v
        except (TypeError, IndexError):
            pass
        raise KeyError(nid)

    def __setitem__(self, nid, value) -> None:
        try:
            i = nid - self._start
            if i < 0:
                raise IndexError
            old = self._values[i]
        except (TypeError, IndexError):
            raise KeyError(f"{nid!r} is not an id in {self.ids}") from None
        self._values[i] = value
        if old is _EMPTY:
            self._empty -= 1
        if self._array is not None:
            if type(value) is float:
                self._array[i] = value
            else:
                self._array = None

    def __delitem__(self, nid) -> None:
        if nid not in self:
            raise KeyError(nid)
        self._values[nid - self._start] = _EMPTY
        self._empty += 1

    def __iter__(self):
        ids = self.ids
        if self._empty:
            return compress(ids, [v is not _EMPTY for v in self._values])
        return iter(ids)

    def __len__(self) -> int:
        return len(self._values) - self._empty

    def values(self):
        return _NodeValuesValues(self)

    def items(self):
        return _NodeValuesItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class NodeVectors(MutableMapping):
    """A mapping node id -> d-tuple, stored as d `NodeValues` columns over
    the same ids: `columns[k]` maps each id to coordinate k.  Reads build
    the tuple; iteration, `==` and `repr` are as for `NodeValues`."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)
        if not self.columns or len({c.ids for c in self.columns}) != 1:
            raise ValueError("a NodeVectors needs one or more columns over the same ids")

    @classmethod
    def empty(cls, ids: range, d: int) -> "NodeVectors":
        return cls(NodeValues(ids) for _ in range(d))

    def __getitem__(self, nid) -> tuple:
        return tuple([c[nid] for c in self.columns])

    def __setitem__(self, nid, vec) -> None:
        if len(vec) != len(self.columns):
            raise ValueError(f"{len(vec)} coordinates for {len(self.columns)} columns")
        for c, v in zip(self.columns, vec):
            c[nid] = v

    def __delitem__(self, nid) -> None:
        for c in self.columns:
            del c[nid]

    def __iter__(self):
        return iter(self.columns[0])

    def __len__(self) -> int:
        return len(self.columns[0])

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def node_array(values: Mapping, ids: range):
    """The float64 array of `values` over the id range `ids` (read-only)
    when `values` is a `NodeValues` over exactly those ids that keeps one;
    None otherwise, and the caller reads the values id by id."""
    if isinstance(values, NodeValues) and values.ids == ids:
        return values.array
    return None


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
    node, in the generator's order; node ids are breadth-first (see the
    module docstring), so outputs are reproducible.  No spot is computed
    here: the tree builds its spot levels when they are first read.
    """
    offsets = tuple(_offsets_from_generator(spec["generator"]))
    return MarketTree(int(spec.get("dim", 1)), offsets, int(spec["depth"]))


def validate_stopping_time(tree: MarketTree, members: Iterable[int]) -> tuple:
    """Check the antichain / exactly-one-hit-per-path property.

    Returns (ok, report); report is None when ok, otherwise a short string
    naming the first violation: an unknown id; else the ancestor pair (a, b)
    smallest in (a, b) order; else the first leaf whose path does not meet
    the set exactly once.  Two O(N) passes over the breadth-first ids.
    """
    S = set(members)
    for nid in S:
        if nid not in tree.nodes:
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
    for nid in tree.nodes:
        p = tree.parent(nid)
        hits[nid] = (0 if p is None else hits[p]) + (nid in S)
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
    for nid in tree.nodes:
        p = tree.parent(nid)
        if p is not None and (met_sigma[p] or late[p]):
            met_sigma[nid], late[nid] = met_sigma[p], late[p]
        elif nid in sig:
            met_sigma[nid] = 1
        elif nid in ta:
            late[nid] = 1
    return not any(late[leaf] for leaf in tree.leaves)
