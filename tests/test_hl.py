"""``HeavyLightOrienter``'s out-degree table against H's own root paths.

The orienter is fed the way the refinement engine feeds it,
``hl.link(u, H.link(u, v, w))`` and ``hl.cut(u, *H.cut(u, v))``.  Built
alone, its table holds only the H share, 1 for each vertex with an H
parent, so after every write the vertices with a nonzero entry must be
H's non-root vertices, those with an edge on their root path, and every
entry must be 0 or 1.  H names the roots it moves from its
parity memo when that holds entries, and by a root walk otherwise, so the
random drive runs with an empty memo first and a filled one after."""

import random

import pytest

from dynorient import forest
from dynorient.errors import MissingEdgeError
from dynorient.forest import ChangeStamps, LinkCutForest, edge_key
from dynorient.hl import HeavyLightOrienter


def non_roots(lct, vs):
    return {v for v in vs if lct.first_edge_on_root_path(v) is not None}


def h_parents(hl, vs):
    """The vertices the orienter's table credits with an H parent; an
    entry other than 0 or 1 fails here."""
    assert all(hl.out_deg[v] in (0, 1) for v in vs)
    return {v for v in vs if hl.out_deg[v]}


def lct_root(lct, v):
    """v's root in the link-cut forest, walked up by its root-path edges."""
    e = lct.first_edge_on_root_path(v)
    while e is not None:
        v = e[1] if e[0] == v else e[0]
        e = lct.first_edge_on_root_path(v)
    return v


class Pair:
    """A link-cut forest over vertex ids below n and the orienter it
    feeds."""

    def __init__(self, n=8):
        self.H = LinkCutForest(8, ChangeStamps(n))
        self.hl = HeavyLightOrienter([0] * n)

    def link(self, u, v):
        self.hl.link(u, self.H.link(u, v, 4))

    def cut(self, u, v):
        self.hl.cut(u, *self.H.cut(u, v))


def test_cut_rejects_missing():
    # H refuses before the orienter hears of the cut
    t = Pair()
    t.link(0, 1)
    for u, v in ((2, 3), (0, 2)):
        with pytest.raises(MissingEdgeError):
            t.cut(u, v)
    assert h_parents(t.hl, range(8)) == {0}


def test_cut_root_rule_matches_forest():
    t = Pair()
    t.link(0, 1)
    t.link(1, 2)
    t.link(2, 3)          # path 0-1-2-3 rooted 3
    assert h_parents(t.hl, range(8)) == {0, 1, 2}
    t.cut(2, 1)           # u = 2 is the parent endpoint: 2 heads its side,
    assert h_parents(t.hl, range(8)) == {0, 3}   # and 1 heads the child side
    assert lct_root(t.H, 3) == 2 and lct_root(t.H, 0) == 1
    t.cut(0, 1)           # u = 0 is the child: no root moves
    assert h_parents(t.hl, range(8)) == {3}


@pytest.mark.parametrize("offset", [0, 1000])
def test_roots_track_link_cut_forest(offset):
    # ids above 256 arrive as distinct int objects (int(str(...)) builds a
    # fresh one per call), so identity comparisons of ids would break here
    def vid(v):
        return int(str(v + offset))

    rng = random.Random(11)
    n = 24
    vs = [v + offset for v in range(n)]
    t = Pair(offset + n)
    edges = set()
    everts = 0
    for step in range(600):
        r = rng.random()
        if r < 0.45:
            u, v = rng.sample(range(n), 2)
            if lct_root(t.H, vid(u)) == lct_root(t.H, vid(v)):
                continue
            t.link(vid(u), vid(v))
            edges.add(edge_key(u, v))
        elif r < 0.70 and edges:
            u, v = rng.choice(sorted(edges))
            if rng.random() < 0.5:
                u, v = v, u
            t.cut(vid(u), vid(v))
            edges.discard(edge_key(u, v))
        else:
            # reroot v's tree at v: the cut of v's parent edge, made from
            # either side, roots v's side at v, and the relink hangs the
            # parent's side below it
            v = vid(rng.randrange(n))
            fe = t.H.first_edge_on_root_path(v)
            if fe is None:
                continue
            w = fe[1] if fe[0] == v else fe[0]
            if rng.random() < 0.5:
                t.cut(v, w)
            else:
                child, root = t.H.cut(w, v)
                assert child == v and root is not None
                everts += 1
                t.hl.cut(w, child, root)
            assert h_parents(t.hl, vs) == non_roots(t.H, vs), step
            t.link(w, v)
            assert lct_root(t.H, w) == v
        assert h_parents(t.hl, vs) == non_roots(t.H, vs), step
        if step >= 300:
            # memoised parities: H then names roots from its memo groups
            for v in rng.sample(vs, 3):
                t.H.depth_parity(v)
    assert everts > 10


@pytest.mark.parametrize("n", [1000, 10000])
def test_a_reroot_walks_once_where_the_mirror_walked_the_path(monkeypatch, n):
    """With no parity memo, each link or cut of H makes at most one root
    walk (``_wfirst``), also when it reroots a path of n vertices end to
    end; a parent-pointer mirror reversed the whole path there."""
    walks = [0]

    def counted(x, fn=forest._wfirst):
        walks[0] += 1
        return fn(x)

    monkeypatch.setattr(forest, "_wfirst", counted)
    t = Pair(n)
    for v in range(n - 1):
        t.link(v, v + 1)                 # the path, rooted at n - 1
    root, leaf = n - 1, 0
    for k in range(4):
        # reroot at the leaf: cut it off, from the child side or from the
        # parent side, and hang the rest of the path below it
        nb = leaf + 1 if leaf == 0 else leaf - 1
        before = walks[0]
        if k % 2:
            t.cut(nb, leaf)
        else:
            t.cut(leaf, nb)
        assert walks[0] - before <= 1
        before = walks[0]
        t.link(nb, leaf)
        assert walks[0] - before <= 1
        root, leaf = leaf, root
        assert h_parents(t.hl, range(n)) == set(range(n)) - {root}
        assert h_parents(t.hl, range(n)) == non_roots(t.H, range(n))
