"""Naive reference implementations that the tests compare the engines
against; none of them runs outside the tests.

Everything here is deliberately slow and simple: subset enumeration for the
maximum density, a pseudoforest check by union-find, a BFS mirror of the
link-cut forests, a rescanning twin of the fractional copy walks, and the
offline reverse-replay scheme that bounds ``BFOrienter``'s reorientations.
"""

from fractions import Fraction

from dynorient.errors import CycleError, MissingEdgeError, WeightRangeError
from dynorient.forest import edge_key
from dynorient.oracles import _bit_adjacency

_density_cache = {}


def exact_max_density(edges) -> Fraction:
    """Maximum over vertex subsets J of |E(J)| / |V(J)|."""
    es = frozenset(edge_key(u, v) for u, v in edges)
    hit = _density_cache.get(es)
    if hit is not None:
        return hit
    if not es:
        _density_cache[es] = Fraction(0)
        return Fraction(0)
    adj = _bit_adjacency(es)
    size = 1 << len(adj)
    ecnt = bytearray(size)
    best_n, best_d = 0, 1
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        ne = ecnt[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        ecnt[mask] = ne
        d = mask.bit_count()
        if ne * best_d > best_n * d:
            best_n, best_d = ne, d
    out = Fraction(best_n, best_d)
    _density_cache[es] = out
    return out


def is_pseudoforest(edges) -> bool:
    """True iff every connected component has at most |vertices| edges."""
    parent = {}
    extra = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            extra[ru] = extra.get(ru, 0) + 1
            if extra[ru] > 1:
                return False
        else:
            parent[ru] = rv
            extra[rv] = extra.get(rv, 0) + extra.pop(ru, 0)
            if extra[rv] > 1:
                return False
    return True


# ----------------------------------------------------------------------
# naive dynamic-forest mirror


class NaiveWeightedForest:
    """Adjacency-dict twin of the link-cut forests, recomputing everything
    by BFS: their operations, plus separate path reads and shifts for what
    ``path_update`` does in one exposure.  Same root rules, same
    tie-breaking; reads of an unseen vertex create nothing."""

    def __init__(self, gamma: int):
        self.gamma = gamma
        self.nbrs = {}
        self.ew = {}     # key -> numerator at key[0]
        self.roots = set()

    def _touch(self, v):
        if v not in self.nbrs:
            self.nbrs[v] = set()
            self.roots.add(v)

    def _component(self, v):
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in self.nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def _path(self, u, v):
        if u == v:
            raise ValueError(f"trivial path at {u}")
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y in sorted(self.nbrs[x]):
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        if v not in prev:
            raise ValueError(f"{u} and {v} not connected")
        path = [v]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def _num_from(self, x, y):
        key = edge_key(x, y)
        s = self.ew[key]
        return s if x == key[0] else self.gamma - s

    def _set_num_from(self, x, y, val):
        key = edge_key(x, y)
        self.ew[key] = val if x == key[0] else self.gamma - val

    def has_vertex(self, v):
        return v in self.nbrs

    def has_edge(self, u, v):
        return edge_key(u, v) in self.ew

    def connected(self, u, v):
        if u not in self.nbrs or v not in self.nbrs:
            return False
        return u == v or v in self._component(u)

    def find_root(self, v):
        if v not in self.nbrs:
            return v
        comp = self._component(v)
        hit = comp & self.roots
        assert len(hit) == 1, f"component of {v} has roots {hit}"
        return next(iter(hit))

    def set_root(self, r):
        self._touch(r)
        self.roots -= self._component(r)
        self.roots.add(r)

    def link(self, u, v, weight_u):
        if u == v:
            raise CycleError(f"self loop at {u}")
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        if self.has_edge(u, v) or self.connected(u, v):
            raise CycleError(f"{u} and {v} already connected")
        self._touch(u)
        self._touch(v)
        self.roots.discard(self.find_root(u))
        self.nbrs[u].add(v)
        self.nbrs[v].add(u)
        key = edge_key(u, v)
        self.ew[key] = weight_u if u == key[0] else self.gamma - weight_u

    def cut(self, u, v):
        key = edge_key(u, v)
        if key not in self.ew:
            raise MissingEdgeError(f"no edge {key}")
        old_root = self.find_root(u)
        self.nbrs[u].discard(v)
        self.nbrs[v].discard(u)
        del self.ew[key]
        u_side = self._component(u)
        self.roots -= u_side
        self.roots.add(u)
        if old_root in u_side:
            self.roots.add(v)

    def min_weight(self, u, v):
        path = self._path(u, v)
        return min(self._num_from(x, y) for x, y in zip(path, path[1:]))

    def max_weight(self, u, v):
        path = self._path(u, v)
        return max(self._num_from(x, y) for x, y in zip(path, path[1:]))

    def add_weight(self, u, v, x):
        path = self._path(u, v)
        for a, b in zip(path, path[1:]):
            w = self._num_from(a, b) + x
            if not 0 <= w <= self.gamma:
                raise WeightRangeError(f"shift {x} pushes edge {a},{b} to {w}")
        for a, b in zip(path, path[1:]):
            self._set_num_from(a, b, self._num_from(a, b) + x)

    def find_extreme_edge(self, u, v, which="min"):
        path = self._path(u, v)
        vals = [self._num_from(x, y) for x, y in zip(path, path[1:])]
        target = min(vals) if which == "min" else max(vals)
        i = vals.index(target)
        return (path[i], path[i + 1])

    def edge_weight(self, u, v):
        if not self.has_edge(u, v):
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        return self._num_from(u, v)

    def shift_edge_weight(self, u, v, delta):
        w = self.edge_weight(u, v) + delta
        if not 0 <= w <= self.gamma:
            raise WeightRangeError(f"weight {w} outside [0, {self.gamma}]")
        self._set_num_from(u, v, w)
        return w

    def depth_parity(self, v):
        """None for a vertex the mirror has never seen, as in the forests."""
        if v not in self.nbrs:
            return None
        return (len(self._path_or_self(self.find_root(v), v)) - 1) & 1

    def _path_or_self(self, u, v):
        return [v] if u == v else self._path(u, v)

    def first_edge_on_root_path(self, v):
        r = self.find_root(v)
        if r == v:
            return None
        path = self._path(v, r)
        return (path[0], path[1])


# ----------------------------------------------------------------------
# naive per-copy walks


class NaiveCopyWalk:
    """Reference for the fractional engine's copy walks over a plain count
    table: the same decisions, every neighbour read a full rescan.

    ``counts`` maps (a, b) with a < b to [copies a -> b, copies b -> a]
    and holds the true counts, wherever the engine keeps them.  A copy
    insert leaves the lighter endpoint (the first argument on a tie) and
    then flips one copy at a time toward the least-id out-neighbour at
    least one unit lighter; a copy delete takes the first argument's
    direction when it has copies and then pulls one copy at a time from
    the heaviest in-neighbour (least id on a tie) at least one unit
    heavier.  Logs take the copy's bundle key and then one key per flip,
    undeduplicated, as the engine's do; ``flips`` counts every
    single-copy flip."""

    def __init__(self, gamma, loads, counts=()):
        self.gamma = gamma
        self.loads = list(loads)
        self.counts = {k: list(c) for k, c in dict(counts).items()}
        self.flips = 0

    def count(self, u, v):
        """Copies oriented u -> v; 0 for a missing bundle."""
        c = self.counts.get(edge_key(u, v))
        if c is None:
            return 0
        return c[0] if u < v else c[1]

    def _shift(self, u, v, k):
        self.counts[edge_key(u, v)][0 if u < v else 1] += k

    def _nbrs(self, v):
        return [b if a == v else a for a, b in self.counts if v in (a, b)]

    def out_nbrs(self, v):
        return {x for x in self._nbrs(v) if self.count(v, x)}

    def in_nbrs(self, v):
        return {x for x in self._nbrs(v) if self.count(x, v)}

    def tight_out_nbr(self, u):
        return min((w for w in self.out_nbrs(u)
                    if self.loads[w] <= self.loads[u] - 1), default=None)

    def tight_in_nbr(self, v):
        best = min(self.in_nbrs(v), key=lambda x: (-self.loads[x], x),
                   default=None)
        if best is None or self.loads[best] < self.loads[v] + 1:
            return None
        return best

    def _flip(self, a, b, log):
        self._shift(a, b, -1)
        self._shift(b, a, 1)
        self.flips += 1
        log.append(edge_key(a, b))

    def insert_copy(self, u, v, log):
        key = edge_key(u, v)
        self.counts.setdefault(key, [0, 0])
        w, x = (u, v) if self.loads[u] <= self.loads[v] else (v, u)
        self._shift(w, x, 1)
        log.append(key)
        nxt = self.tight_out_nbr(w)
        while nxt is not None:
            self._flip(w, nxt, log)
            w = nxt
            nxt = self.tight_out_nbr(w)
        self.loads[w] += 1

    def delete_copy(self, u, v, log):
        w, x = (u, v) if self.count(u, v) else (v, u)
        if not self.count(w, x):
            raise MissingEdgeError(f"bundle {edge_key(u, v)} has no copies")
        self._shift(w, x, -1)
        log.append(edge_key(u, v))
        nxt = self.tight_in_nbr(w)
        while nxt is not None:
            self._flip(nxt, w, log)
            w = nxt
            nxt = self.tight_in_nbr(w)
        self.loads[w] -= 1

    def gamma_insert(self, u, v):
        log = []
        for _ in range(self.gamma):
            self.insert_copy(u, v, log)
        return log

    def gamma_delete(self, u, v):
        log = []
        for _ in range(self.gamma):
            self.delete_copy(u, v, log)
        del self.counts[edge_key(u, v)]
        return log


# ----------------------------------------------------------------------
# offline comparison scheme for the sink-flip engine


def _relief_insert(out, u, v, delta):
    """Insert u -> v keeping all out-degrees at most delta, flipping a path
    of out-edges from u to a vertex with spare degree when u is full.
    Returns the number of single-edge flips."""
    if len(out[u]) < delta:
        out[u].add(v)
        return 0
    prev = {u: None}
    queue = [u]
    z = None
    while queue and z is None:
        nxt = []
        for x in queue:
            for y in sorted(out[x]):
                if y in prev:
                    continue
                prev[y] = x
                if len(out[y]) < delta:
                    z = y
                    break
                nxt.append(y)
            if z is not None:
                break
        queue = nxt
    assert z is not None, "arboricity promise broken: no relief vertex"
    flips = 0
    while prev[z] is not None:
        p = prev[z]
        out[p].discard(z)
        out[z].add(p)
        flips += 1
        z = p
    out[u].add(v)
    return flips


def reverse_replay_reorientations(ops, n, delta):
    """Reorientation count of the offline scheme: replay the trace backwards
    keeping out-degrees at most delta by flipping a path to a low out-degree
    vertex on every (reversed) insertion.

    ``ops`` is a sequence of ("a", u, v) / ("d", u, v) tuples; query ops are
    ignored.  Edges still present when the trace ends are seeded into the
    reversed run first (their orientation is a starting state, not a
    transition, so those flips do not count).  Returns the total number of
    single-edge flips between consecutive states.
    """
    present = set()
    for op in ops:
        if op[0] == "a":
            present.add(edge_key(op[1], op[2]))
        elif op[0] == "d":
            present.discard(edge_key(op[1], op[2]))
    out = [set() for _ in range(n)]
    for u, v in sorted(present):
        _relief_insert(out, u, v, delta)
    flips = 0
    for op in reversed(ops):
        kind = op[0]
        if kind == "d":
            # reversed: becomes an insertion
            flips += _relief_insert(out, op[1], op[2], delta)
        elif kind == "a":
            # reversed: becomes a deletion
            u, v = op[1], op[2]
            if v in out[u]:
                out[u].discard(v)
            else:
                assert u in out[v], f"reversed trace lost edge {edge_key(u, v)}"
                out[v].discard(u)
    return flips
