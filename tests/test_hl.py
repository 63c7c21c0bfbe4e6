import math
import random

import pytest

from dynorient.errors import CycleError, MissingEdgeError
from dynorient.forest import LinkCutForest, edge_key
from dynorient.hl import HeavyLightOrienter


def audit(hl):
    """Recompute sizes and heavy children from scratch and compare."""
    def subtree(v):
        return 1 + sum(subtree(c) for c in hl.children[v])

    for v in hl.parent:
        assert hl.size[v] == subtree(v), v
        cands = [c for c in hl.children[v] if 2 * hl.size[c] > hl.size[v]]
        assert len(cands) <= 1
        assert hl.heavy[v] == (cands[0] if cands else None), v
        assert len(hl.out_edges[v]) <= 2, v
        p = hl.parent[v]
        if p is not None:
            key = edge_key(v, p)
            assert key in hl.dir_tail
            if hl.heavy[p] != v:
                # dashed edges always point child -> parent
                assert hl.dir_tail[key] == v, (v, p)
    for key, tail in hl.dir_tail.items():
        a, b = key
        assert hl.parent.get(a) == b or hl.parent.get(b) == a
        assert key in hl.out_edges[tail]


def root_path(hl, v):
    """v, its parent, and so on up to its root."""
    path = [v]
    while hl.parent[path[-1]] is not None:
        path.append(hl.parent[path[-1]])
    return path


def dashed_on_root_path(hl, v):
    """Keys of the edges on v's root path whose child end is not the heavy
    child of its parent, from v upward."""
    path = root_path(hl, v)
    return [edge_key(c, p) for c, p in zip(path, path[1:]) if hl.heavy[p] != c]


def test_star_is_all_dashed():
    hl = HeavyLightOrienter()
    for leaf in range(1, 7):
        hl.link(leaf, 0)
    audit(hl)
    assert not hl.out_edges[0]
    for leaf in range(1, 7):
        assert hl.out_edges[leaf] == {(0, leaf)}
    # the 1..2 path runs through the root
    assert root_path(hl, 1) == [1, 0] and root_path(hl, 2) == [2, 0]
    path = dashed_on_root_path(hl, 1) + dashed_on_root_path(hl, 2)
    assert path == [(0, 1), (0, 2)]


def test_leaf_grown_path_has_one_dashed_edge():
    hl = HeavyLightOrienter()
    for i in range(1, 16):
        hl.link(i, i - 1)
    audit(hl)
    assert hl.root(15) == 0
    assert dashed_on_root_path(hl, 15) == [(14, 15)]
    assert all(len(hl.out_edges[v]) <= 2 for v in range(16))


def test_dashed_edges_on_any_root_path_logarithmic():
    rng = random.Random(3)
    hl = HeavyLightOrienter()
    for v in range(1, 60):
        hl.link(v, rng.randrange(v))
    audit(hl)
    for v in range(60):
        assert root_path(hl, v)[-1] == hl.root(v)
        assert len(dashed_on_root_path(hl, v)) <= math.log2(60)


def test_link_rejects_cycle_cut_rejects_missing():
    hl = HeavyLightOrienter()
    hl.link(0, 1)
    with pytest.raises(CycleError):
        hl.link(1, 0)
    with pytest.raises(MissingEdgeError):
        hl.cut(2, 3)


def test_cut_root_rule_matches_forest():
    hl = HeavyLightOrienter()
    hl.link(0, 1)
    hl.link(1, 2)
    hl.link(2, 3)         # path 0-1-2-3 rooted 3
    assert hl.root(0) == 3
    hl.cut(2, 1)          # side of 2 gets root 2, side of 1 gets root 1
    assert hl.root(2) == 2 and hl.root(3) == 2
    assert hl.root(0) == 1 and hl.root(1) == 1
    audit(hl)


@pytest.mark.parametrize("offset", [0, 1000])
def test_roots_track_link_cut_forest(offset):
    # ids above 256 arrive as distinct int objects (int(str(...)) builds a
    # fresh one per call), so identity comparisons of ids would break here
    def vid(v):
        return int(str(v + offset))

    rng = random.Random(11)
    n = 24
    hl = HeavyLightOrienter()
    lct = LinkCutForest(8)
    edges = set()
    for step in range(600):
        r = rng.random()
        if r < 0.45:
            u, v = rng.sample(range(n), 2)
            if hl.root(vid(u)) == hl.root(vid(v)):
                continue
            hl.link(vid(u), vid(v))
            lct.link(vid(u), vid(v), 4)
            edges.add(edge_key(u, v))
        elif r < 0.70 and edges:
            u, v = rng.choice(sorted(edges))
            if rng.random() < 0.5:
                u, v = v, u
            hl.cut(vid(u), vid(v))
            lct.cut(vid(u), vid(v))
            edges.discard(edge_key(u, v))
        else:
            # reroot v's tree at v: the cut roots v's side at v, and the
            # relink hangs the far side below it
            v = rng.randrange(n)
            nbrs = [w for w in range(n) if edge_key(v, w) in edges]
            if not nbrs:
                continue
            w = rng.choice(nbrs)
            hl.cut(vid(v), vid(w))
            lct.cut(vid(v), vid(w))
            hl.link(vid(w), vid(v))
            lct.link(vid(w), vid(v), 4)
            assert hl.root(vid(w)) == vid(v) == lct.find_root(vid(w))
        if step % 40 == 0:
            audit(hl)
            for v in range(n):
                if lct.has_vertex(vid(v)):
                    assert hl.root(vid(v)) == lct.find_root(vid(v)), (step, v)
    audit(hl)


def test_solid_edges_stay_clean_dashed_go_stale():
    hl = HeavyLightOrienter()
    for i in range(1, 6):
        hl.link(i, i - 1)   # heavy spine, last edge dashed
    assert hl.parent[3] == 2 and hl.heavy[2] == 3
    assert hl.parent[5] == 4 and hl.heavy[4] != 5
    assert root_path(hl, 5)[-1] == 0
    assert dashed_on_root_path(hl, 5) == [(4, 5)]


def test_promotion_refreshes_newly_heavy_edge():
    hl = HeavyLightOrienter()
    hl.link(1, 0)
    hl.link(2, 0)          # two children, neither a strict majority
    assert hl.heavy[0] is None
    hl.link(3, 1)
    hl.link(4, 3)          # branch under 1 now dominates 0's subtree
    assert hl.heavy[0] == 1
    assert hl.parent[1] == 0
    audit(hl)


def test_random_loads_keep_solid_edges_clean():
    rng = random.Random(5)
    hl = HeavyLightOrienter()
    for v in range(1, 30):
        hl.link(v, rng.randrange(v))
    for _ in range(60):
        # reroot at r by cutting r's parent edge from either side, which
        # roots r's side at r, and hanging the parent's side below r
        r = rng.randrange(30)
        p = hl.parent[r]
        if p is not None:
            if rng.random() < 0.5:
                hl.cut(r, p)
            else:
                hl.cut(p, r)
            audit(hl)
            hl.link(p, r)
        assert all(hl.root(v) == r for v in range(30))
        audit(hl)
