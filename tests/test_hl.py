import random

import pytest

from dynorient.errors import MissingEdgeError
from dynorient.forest import LinkCutForest, edge_key
from dynorient.hl import HeavyLightOrienter


def root(hl, v):
    """The root reached by walking v's parents; fails on a parent cycle."""
    for _ in range(len(hl.parent) + 1):
        if hl.parent.get(v) is None:
            return v
        v = hl.parent[v]
    raise AssertionError("parent pointers close a cycle")


def lct_root(lct, v):
    """v's root in the link-cut forest, walked up by its root-path edges."""
    e = lct.first_edge_on_root_path(v)
    while e is not None:
        v = e[1] if e[0] == v else e[0]
        e = lct.first_edge_on_root_path(v)
    return v


def audit(hl):
    """Every parent chain ends at a root, and every parent is recorded."""
    for v, p in hl.parent.items():
        root(hl, v)
        assert p is None or p in hl.parent, (v, p)
        assert p is None or hl.has_edge(v, p) and hl.has_edge(p, v)


def test_cut_rejects_missing():
    hl = HeavyLightOrienter()
    hl.link(0, 1)
    with pytest.raises(MissingEdgeError):
        hl.cut(2, 3)
    with pytest.raises(MissingEdgeError):
        hl.cut(0, 2)
    assert hl.parent == {0: 1, 1: None}


def test_cut_root_rule_matches_forest():
    hl = HeavyLightOrienter()
    hl.link(0, 1)
    hl.link(1, 2)
    hl.link(2, 3)         # path 0-1-2-3 rooted 3
    assert root(hl, 0) == 3
    hl.cut(2, 1)          # side of 2 gets root 2, side of 1 gets root 1
    assert root(hl, 2) == 2 and root(hl, 3) == 2
    assert root(hl, 0) == 1 and root(hl, 1) == 1
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
            if root(hl, vid(u)) == root(hl, vid(v)):
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
            assert root(hl, vid(w)) == vid(v) == lct_root(lct, vid(w))
        if step % 40 == 0:
            audit(hl)
            for v in range(n):
                if lct.depth_parity(vid(v), None) is not None:
                    assert root(hl, vid(v)) == lct_root(lct, vid(v)), (step, v)
                    fe = lct.first_edge_on_root_path(vid(v))
                    p = hl.parent[vid(v)]
                    assert (fe is None) == (p is None), (step, v)
                    assert fe is None or edge_key(*fe) == edge_key(vid(v), p)
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
            assert root(hl, r) == r and root(hl, p) != r
            audit(hl)
            hl.link(p, r)
        assert all(root(hl, v) == r for v in range(30))
        audit(hl)
