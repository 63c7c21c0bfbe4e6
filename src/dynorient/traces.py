"""Trace scripts: a one-op-per-line text format plus generators.

The grammar is deliberately tiny so traces diff cleanly and can be kept
as golden files:

    a u v    insert the edge uv
    d u v    delete the edge uv
    c v      ask for v's colour
    o v      ask for v's out-degree
    x        checkpoint (run a full verification pass here)
    # ...    comment; blank lines are skipped

Vertex ids are decimal and non-negative, lines end with LF, and
``parse_trace(format_trace(ops)) == ops``.  Generators are deterministic
functions of their arguments, so the same seed reproduces the same bytes.
"""

import random

from .errors import ConfigurationError, TraceError
from .forest import edge_key


def parse_trace(text):
    """Text to a list of op tuples; raises TraceError with the line number."""
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        ok = True
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            ok = False
            args = []
        if ok and any(a < 0 for a in args):
            ok = False
        if ok and kind in ("a", "d") and len(args) == 2:
            ops.append((kind, args[0], args[1]))
        elif ok and kind in ("c", "o") and len(args) == 1:
            ops.append((kind, args[0]))
        elif ok and kind == "x" and not args:
            ops.append(("x",))
        else:
            raise TraceError(f"line {lineno}: cannot parse {raw!r}")
    return ops


def format_trace(ops):
    """Op tuples to text; raises TraceError unless ``parse_trace`` reads
    the text back as ``ops``."""
    ops = [tuple(op) for op in ops]
    text = "".join(" ".join(map(str, op)) + "\n" for op in ops)
    if parse_trace(text) != ops:
        raise TraceError("the ops do not read back as themselves")
    return text


# ----------------------------------------------------------------------
# generators

class _DSU:

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


class _ForestWitness:
    """An explicit partition of the live edges into alpha_max forests.

    An insert is admitted only when some layer can take the edge without
    closing a cycle, which keeps the graph's arboricity at most
    alpha_max throughout.  The test is sufficient rather than exact, so
    a few legal inserts get rejected; for trace generation that only
    shifts the sampling a little.
    """

    def __init__(self, n, alpha_max):
        self.n = n
        self.dsus = [_DSU(n) for _ in range(alpha_max)]
        self.members = [set() for _ in range(alpha_max)]
        self.layer_of = {}

    def try_add(self, u, v):
        for i, dsu in enumerate(self.dsus):
            if dsu.find(u) != dsu.find(v):
                dsu.union(u, v)
                key = edge_key(u, v)
                self.members[i].add(key)
                self.layer_of[key] = i
                return True
        return False

    def remove(self, u, v):
        key = edge_key(u, v)
        i = self.layer_of.pop(key)
        self.members[i].discard(key)
        dsu = _DSU(self.n)
        for a, b in self.members[i]:
            dsu.union(a, b)
        self.dsus[i] = dsu


class _EdgePool:
    """Live edges with O(1) uniform sampling (list plus position map)."""

    def __init__(self):
        self.items = []
        self.pos = {}

    def __len__(self):
        return len(self.items)

    def __contains__(self, key):
        return key in self.pos

    def add(self, key):
        self.pos[key] = len(self.items)
        self.items.append(key)

    def remove(self, key):
        i = self.pos.pop(key)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def choose(self, rng):
        return self.items[rng.randrange(len(self.items))]


def _maybe_query(ops, rng, n, query_rate):
    if query_rate and rng.random() < query_rate:
        kind = "o" if rng.random() < 0.5 else "c"
        ops.append((kind, rng.randrange(n)))


def gen_alpha_preserving(n, steps, seed, alpha_max, delete_bias=0.3,
                         query_rate=0.0):
    """Random churn whose graph never exceeds arboricity alpha_max."""
    if n < 2:
        raise ConfigurationError("need at least two vertices")
    if alpha_max < 1:
        raise ConfigurationError(f"alpha_max must be >= 1, got {alpha_max}")
    rng = random.Random(seed)
    witness = _ForestWitness(n, alpha_max)
    live = _EdgePool()
    ops = []
    rejected = 0
    while len(ops) < steps:
        _maybe_query(ops, rng, n, query_rate)
        if len(live) and (rng.random() < delete_bias or rejected > 20):
            u, v = live.choose(rng)
            witness.remove(u, v)
            live.remove((u, v))
            ops.append(("d", u, v))
            rejected = 0
            continue
        u, v = rng.randrange(n), rng.randrange(n)
        key = edge_key(u, v)
        if u == v or key in live or not witness.try_add(*key):
            rejected += 1
            continue
        live.add(key)
        ops.append(("a",) + key)
        rejected = 0
    return ops


def gen_forest_only(n, steps, seed, query_rate=0.0):
    """Churn in which the graph is a forest after every op."""
    return gen_alpha_preserving(n, steps, seed, alpha_max=1,
                                query_rate=query_rate)


def gen_uniform_sparse(n, steps, seed, density=2.0, query_rate=0.0):
    """Uniform random churn held near ``density * n`` edges.

    No arboricity control beyond sparsity itself, which already keeps
    the expected arboricity O(density); cheap enough to generate for
    very large n.
    """
    if n < 2:
        raise ConfigurationError("need at least two vertices")
    rng = random.Random(seed)
    target = max(1, int(density * n))
    live = _EdgePool()
    ops = []
    while len(ops) < steps:
        _maybe_query(ops, rng, n, query_rate)
        if len(live) and (len(live) >= target or rng.random() < 0.3):
            u, v = live.choose(rng)
            live.remove((u, v))
            ops.append(("d", u, v))
            continue
        u, v = rng.randrange(n), rng.randrange(n)
        key = edge_key(u, v)
        if u == v or key in live:
            continue
        live.add(key)
        ops.append(("a",) + key)
    return ops


def gen_adversarial_path(n, steps, seed):
    """Two long paths bridged and unbridged over and over.

    Whatever explicit 1-orientation an algorithm keeps, one endpoint of
    each path is far from its sink, so a bridge between far ends keeps
    forcing long reorientation walks.  The graph stays a forest: two
    paths plus at most one bridge.
    """
    if n < 6:
        raise ConfigurationError("need at least six vertices for two paths")
    rng = random.Random(seed)
    half = n // 2
    ops = []
    for i in range(half - 1):
        ops.append(("a", i, i + 1))
    for i in range(half, n - 1):
        ops.append(("a", i, i + 1))
    left = (0, half - 1, half // 2)
    right = (half, n - 1, half + (n - half) // 2)
    while len(ops) < steps:
        u = left[rng.randrange(3)]
        v = right[rng.randrange(3)]
        ops.append(("a", u, v))
        ops.append(("d", u, v))
    return ops


TRACE_KINDS = ("alpha-preserving", "forest-only", "uniform-sparse",
               "adversarial-path")


def generate(kind, n, steps, seed, alpha_max=None, query_rate=0.0):
    """Dispatch by kind name; every generator is deterministic in seed.
    A negative step count raises ConfigurationError."""
    if steps < 0:
        raise ConfigurationError(f"step count {steps} is below 0")
    if kind == "alpha-preserving":
        if alpha_max is None:
            raise ConfigurationError("alpha-preserving traces need alpha_max")
        return gen_alpha_preserving(n, steps, seed, alpha_max,
                                    query_rate=query_rate)
    if kind == "forest-only":
        return gen_forest_only(n, steps, seed, query_rate=query_rate)
    if kind == "uniform-sparse":
        return gen_uniform_sparse(n, steps, seed, query_rate=query_rate)
    if kind == "adversarial-path":
        return gen_adversarial_path(n, steps, seed)
    raise TraceError(f"unknown trace kind {kind!r}")
