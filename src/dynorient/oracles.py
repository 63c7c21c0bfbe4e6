"""Exact checkers that the engines, the CLI and the benchmark run.

Each one recomputes its answer from scratch, independently of the engine
state it judges: subset enumeration for the arboricity, union-find for a
forest, Kahn's peeling for an acyclic orientation, and full rescans for a
proper colouring and per-copy validity.  The naive mirrors that the tests
compare the engines against live under ``tests/``.
"""

from .errors import SizeError
from .forest import edge_key

_SUBSET_CAP = 12


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
    if not es:
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
    return -(-best_n // best_d)


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


def check_eta_valid(loads, bundles):
    """Violations of per-copy validity.

    ``bundles`` maps (u, v) to (count_u, count_v); a copy oriented u -> v is
    valid when loads[u] - loads[v] <= 1 (eta = 1).  Returns the offending
    directed pairs.
    """
    bad = []
    for (u, v), (cu, cv) in bundles.items():
        if cu > 0 and loads[u] - loads[v] > 1:
            bad.append((u, v))
        if cv > 0 and loads[v] - loads[u] > 1:
            bad.append((v, u))
    return bad
