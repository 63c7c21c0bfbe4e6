"""Brute-force ground truth.

Everything here is deliberately naive: subset enumeration for arboricity and
density, BFS walks for the dynamic-forest mirror, full rescans for the
structural checkers.  Tests trust these and nothing else.
"""

from fractions import Fraction

from .errors import (CycleError, MissingEdgeError, NotConnectedError,
                     SizeError, WeightRangeError)
from .forest import edge_key

_SUBSET_CAP = 12

_arb_cache = {}
_density_cache = {}


def _bit_adjacency(es):
    verts = sorted({x for e in es for x in e})
    if len(verts) > _SUBSET_CAP:
        raise SizeError(
            f"{len(verts)} non-isolated vertices; subset enumeration capped at {_SUBSET_CAP}")
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for a, b in es:
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    return adj


def exact_arboricity(edges) -> int:
    """Smallest number of forests covering all edges: ceil of the maximum
    over vertex subsets J of |E(J)| / (|V(J)| - 1)."""
    es = frozenset(edge_key(u, v) for u, v in edges)
    hit = _arb_cache.get(es)
    if hit is not None:
        return hit
    if not es:
        _arb_cache[es] = 0
        return 0
    adj = _bit_adjacency(es)
    size = 1 << len(adj)
    ecnt = bytearray(size)
    best_n, best_d = 0, 1
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        ne = ecnt[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
        ecnt[mask] = ne
        d = mask.bit_count() - 1
        if d >= 1 and ne * best_d > best_n * d:
            best_n, best_d = ne, d
    out = -(-best_n // best_d)
    _arb_cache[es] = out
    return out


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


# ----------------------------------------------------------------------
# structural checkers


def is_forest(edges) -> bool:
    parent = {}

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
            return False
        parent[ru] = rv
    return True


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


def is_acyclic(n, out_lists) -> bool:
    """Kahn's peeling on an out-list orientation; kept lean because tests
    call it after every single update."""
    indeg = [0] * n
    for lst in out_lists:
        for v in lst:
            indeg[v] += 1
    stack = [v for v in range(n) if not indeg[v]]
    seen = len(stack)
    while stack:
        for v in out_lists[stack.pop()]:
            d = indeg[v] - 1
            indeg[v] = d
            if not d:
                stack.append(v)
                seen += 1
    return seen == n


def is_proper(edges, colour_of) -> bool:
    return all(colour_of(u) != colour_of(v) for u, v in edges)


def check_eta_valid(loads, bundles, eta: int = 1):
    """Violations of per-copy validity.

    ``bundles`` is either a mapping {(u, v): (count_u, count_v)} or an
    iterable of (u, v, count_u, count_v); a copy oriented u -> v is valid
    when loads[u] - loads[v] <= eta.  Returns the offending directed pairs.
    """
    if hasattr(bundles, "items"):
        bundles = [(u, v, cu, cv) for (u, v), (cu, cv) in bundles.items()]
    bad = []
    for u, v, cu, cv in bundles:
        if cu > 0 and loads[u] - loads[v] > eta:
            bad.append((u, v))
        if cv > 0 and loads[v] - loads[u] > eta:
            bad.append((v, u))
    return bad


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
            raise NotConnectedError(f"trivial path at {u}")
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
            raise NotConnectedError(f"{u} and {v} not connected")
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

    def set_edge_weight(self, u, v, weight_u):
        if not self.has_edge(u, v):
            raise MissingEdgeError(f"no edge {edge_key(u, v)}")
        if not 0 <= weight_u <= self.gamma:
            raise WeightRangeError(f"weight {weight_u} outside [0, {self.gamma}]")
        self._set_num_from(u, v, weight_u)

    def depth_parity(self, v):
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
