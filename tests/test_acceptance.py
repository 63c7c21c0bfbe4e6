"""End-to-end acceptance gates, one test per promised property.

Each test replays whole traces against an engine and checks the
advertised guarantee with an independent oracle, so a pytest -v run
reads as a checklist: dynamic-forest correctness, rounded out-degree,
copy validity, decomposition shape, acyclic orientations, colouring,
amortized work budgets, and scaling.  Budgets and tolerances are pinned
here on purpose; loosening them is a behaviour change, not a test fix.
"""

import math
import random
import statistics
import time

import pytest

from dynorient.acyclic import BFOrienter
from dynorient.colouring import ProductColouring
from dynorient.decompose import ArboricityDecomposer
from dynorient.forest import ChangeStamps, LinkCutForest, edge_key
from dynorient.oracles import (check_eta_valid, exact_arboricity, is_acyclic,
                               is_forest)
from dynorient.params import Params
from dynorient.traces import generate
from naive_oracles import NaiveWeightedForest, reverse_replay_reorientations


@pytest.fixture(scope="module")
def grid_traces():
    """200 small churn traces spread over the (epsilon, gamma) grid, each
    with the exact arboricity of its live edge set after every op; the
    oracle runs once per distinct edge set."""
    cases = []
    arboricity = {}
    idx = 0
    for eps in (0.5, 1.0):
        for gamma in (8, 16):
            for _ in range(50):
                idx += 1
                rng = random.Random(4000 + idx)
                n = rng.randrange(6, 13)
                alpha_max = rng.randrange(1, 4)
                ops = generate("alpha-preserving", n, 40, seed=9000 + idx,
                               alpha_max=alpha_max)
                live = set()
                alphas = []
                for op in ops:
                    key = edge_key(op[1], op[2])
                    if op[0] == "a":
                        live.add(key)
                    else:
                        live.discard(key)
                    es = frozenset(live)
                    if es not in arboricity:
                        arboricity[es] = exact_arboricity(es)
                    alphas.append(arboricity[es])
                cases.append({"eps": eps, "gamma": gamma, "n": n,
                              "alpha_max": alpha_max, "ops": ops,
                              "alphas": alphas})
    return cases


@pytest.fixture(scope="module")
def bf_traces():
    """200 medium traces for the sink-flip engine, arboricity capped."""
    out = []
    for k in range(200):
        alpha_max = 1 + k % 3
        out.append((alpha_max, generate("alpha-preserving", 100, 2000,
                                        seed=123000 + k,
                                        alpha_max=alpha_max)))
    return out


def _step(d, op, live):
    if op[0] == "a":
        d.insert_edge(op[1], op[2])
        live.add(edge_key(op[1], op[2]))
    else:
        d.delete_edge(op[1], op[2])
        live.discard(edge_key(op[1], op[2]))


def _path_range(f, a, b):
    """(min, max) of the a..b path numerators from the a side, read by one
    path_update that shifts nothing."""
    seen = []

    def record(mn, mx):
        seen.append((mn, mx))
        return None, 0

    assert f.path_update(a, b, record) == (None, 0)
    return seen[0]


def _other(e, v):
    return e[1] if e[0] == v else e[0]


def _walk_root(f, v):
    """v's root in a link-cut forest, walked up by its root-path edges."""
    e = f.first_edge_on_root_path(v)
    while e is not None:
        v = _other(e, v)
        e = f.first_edge_on_root_path(v)
    return v


def test_1_dynamic_forest_matches_the_naive_mirror():
    rng = random.Random(99)
    n, gamma = 200, 16
    real = LinkCutForest(gamma, ChangeStamps(n))
    toy = NaiveWeightedForest(gamma)
    edges = []
    done = 0
    started = time.perf_counter()
    while done < 10_000:
        r = rng.random()
        u, v = rng.randrange(n), rng.randrange(n)
        if r < 0.30:
            if u != v and not toy.connected(u, v):
                w = rng.randint(0, gamma)
                real.link(u, v, w)
                toy.link(u, v, w)
                edges.append(edge_key(u, v))
                done += 1
        elif r < 0.45 and edges:
            a, b = edges.pop(rng.randrange(len(edges)))
            real.cut(a, b)
            toy.cut(a, b)
            done += 1
        elif r < 0.55 and edges:
            a, b = edges[rng.randrange(len(edges))]
            x = rng.randint(-toy.min_weight(a, b),
                            gamma - toy.max_weight(a, b))
            assert real.path_update(a, b, lambda mn, mx: (None, x)) == (None, x)
            toy.add_weight(a, b, x)
            done += 1
        elif r < 0.70 and edges:
            a, b = edges[rng.randrange(len(edges))]
            assert _path_range(real, a, b) == (toy.min_weight(a, b),
                                               toy.max_weight(a, b))
            assert real.edge_weight(a, b) == toy.edge_weight(a, b)
            done += 1
        elif r < 0.80:
            # reroot at u: the cut of u's parent edge roots u's side at u,
            # and the relink hangs the parent's side below u
            first = real.first_edge_on_root_path(u)
            if first is not None:
                p = _other(first, u)
                w = real.edge_weight(p, u)
                for f in (real, toy):
                    f.cut(u, p)
                    f.link(p, u, w)
            assert _walk_root(real, u) == u == toy.find_root(u)
            done += 1
        else:
            assert real.depth_parity(u) == toy.depth_parity(u)
            assert _walk_root(real, u) == toy.find_root(u)
            done += 1
    assert time.perf_counter() - started < 5.0


def test_2_rounded_out_degree_stays_under_the_bound(grid_traces):
    violations = 0
    started = time.perf_counter()
    for case in grid_traces:
        p = Params(n_cap=case["n"], gamma=case["gamma"],
                   epsilon=case["eps"])
        d = ArboricityDecomposer(p, paranoid=False)
        live = set()
        for op, alpha in zip(case["ops"], case["alphas"]):
            _step(d, op, live)
            bound = int((1 + case["eps"]) * alpha) + 2
            worst = max(d.out_degree(v) for v in range(case["n"]))
            if worst > bound:
                violations += 1
    assert violations == 0
    assert time.perf_counter() - started < 60.0


def test_3_copy_validity_and_ambiguity_window_hold(grid_traces):
    # paranoid engines additionally run their full verify() after every
    # update, which checks each load against its out-copy count
    violations = 0
    for case in grid_traces:
        p = Params(n_cap=case["n"], gamma=case["gamma"],
                   epsilon=case["eps"])
        d = ArboricityDecomposer(p, paranoid=True)
        live = set()
        for op in case["ops"]:
            _step(d, op, live)
            if check_eta_valid(d.g.loads, d.g.bundles):
                violations += 1
            if not is_forest(d.refine.in_h):
                violations += 1
            for key in d.g.bundles:
                cu, _ = d.g.counts(*key)
                if key in d.refine.in_h:
                    ok = p.in_closed_interval(cu)
                else:
                    ok = not p.in_open_interval(cu)
                if not ok:
                    violations += 1
    assert violations == 0


def _surplus_defects(d):
    """Pooled cycle edges must stay acyclic with distinct layers per
    component; returns the number of broken components."""
    pooled = [k for ks in d.m for k in ks]
    defects = 0 if is_forest(pooled) else 1
    parent = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in pooled:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for key in pooled:
        groups.setdefault(find(key[0]), []).append(d.placed[key][1])
    for labels in groups.values():
        if len(labels) != len(set(labels)):
            defects += 1
    return defects


def test_4_decomposition_is_small_disjoint_and_covering(grid_traces):
    violations = 0
    started = time.perf_counter()
    for case in grid_traces:
        p = Params(n_cap=case["n"], gamma=case["gamma"],
                   epsilon=case["eps"])
        d = ArboricityDecomposer(p, paranoid=False)
        live = set()
        for op, alpha in zip(case["ops"], case["alphas"]):
            _step(d, op, live)
            parts = d.forests()
            cap = int((1 + case["eps"]) * alpha) + 2
            if len(parts) > cap:
                violations += 1
            union = set()
            total = 0
            for part in parts:
                if not is_forest(part):
                    violations += 1
                union.update(part)
                total += len(part)
            if union != live or total != len(live):
                violations += 1
            violations += _surplus_defects(d)
    assert violations == 0
    assert time.perf_counter() - started < 120.0


def test_5_sink_flip_orientation_stays_acyclic_and_capped(bf_traces):
    violations = 0
    started = time.perf_counter()
    for alpha_max, ops in bf_traces:
        b = BFOrienter(100, alpha_max=alpha_max)
        for idx, op in enumerate(ops):
            if op[0] == "a":
                b.bf_insert(op[1], op[2])
            else:
                b.bf_delete(op[1], op[2])
            if max(map(len, b.out)) > b.d:
                violations += 1
            if not is_acyclic(100, b.out):
                violations += 1
            if (idx + 1) % 50 == 0:
                for part in b.partitions():
                    if not is_forest(part):
                        violations += 1
    assert violations == 0
    assert time.perf_counter() - started < 60.0


def test_6_colour_queries_proper_and_counts_bounded(grid_traces):
    violations = 0
    for case in grid_traces:
        p = Params(n_cap=case["n"], gamma=case["gamma"],
                   epsilon=case["eps"])
        d = ArboricityDecomposer(p, paranoid=False)
        scale = int((1 + case["eps"]) * case["alpha_max"])
        pairs = ((ProductColouring(d, mode="forest-decomposition"),
                  4 * 2 ** scale),
                 (ProductColouring(d, mode="pseudoforest"),
                  2 * 3 ** scale))
        live = set()
        for op in case["ops"]:
            _step(d, op, live)
            for col, cap in pairs:
                count = col.colour_count()
                declared = 1
                for radix in col.colour(0).radices:
                    declared *= radix
                if count != declared or count > cap:
                    violations += 1
                need = {x for e in live for x in e}
                code = {x: col.colour(x).code for x in need}
                if any(code[u] == code[v] for u, v in live):
                    violations += 1
    assert violations == 0


def test_7_amortized_work_stays_inside_the_soft_budgets(grid_traces,
                                                        bf_traces):
    violations = 0
    for case in grid_traces:
        p = Params(n_cap=case["n"], gamma=case["gamma"],
                   epsilon=case["eps"])
        d = ArboricityDecomposer(p, paranoid=False)
        live = set()
        inserts = deletes = 0
        dplus = 1
        for op in case["ops"]:
            _step(d, op, live)
            if op[0] == "a":
                inserts += 1
            else:
                deletes += 1
            dplus = max(dplus, max(d.out_degree(v)
                                   for v in range(case["n"])))
        gamma = case["gamma"]
        if d.repair_pairs > 4 * gamma * dplus * (dplus * inserts + deletes):
            violations += 1
        if d.moves > 8 * gamma * dplus ** 3 * (inserts + deletes):
            violations += 1
    for alpha_max, ops in bf_traces:
        b = BFOrienter(100, alpha_max=alpha_max)
        inserts = deletes = 0
        for op in ops:
            if op[0] == "a":
                b.bf_insert(op[1], op[2])
                inserts += 1
            else:
                b.bf_delete(op[1], op[2])
                deletes += 1
        delta = alpha_max + 1
        r = reverse_replay_reorientations(ops, 100, delta)
        slack = math.ceil(math.log(100) / math.log(delta / alpha_max))
        budget = ((delta * inserts + r * slack) * (b.d + 1)
                  // (b.d + 1 - 2 * delta))
        if b.reorientations > budget:
            violations += 1
    assert violations == 0


def test_8_update_time_scales_gently():
    medians = []
    for n, steps in ((100, 1500), (1000, 5000), (10000, 20000)):
        ops = generate("uniform-sparse", n, steps, seed=42)
        d = ArboricityDecomposer(Params(n_cap=n, gamma=8, epsilon=1.0),
                                 paranoid=False)
        samples = []
        for op in ops:
            t0 = time.perf_counter_ns()
            if op[0] == "a":
                d.insert_edge(op[1], op[2])
            else:
                d.delete_edge(op[1], op[2])
            samples.append(time.perf_counter_ns() - t0)
        medians.append(statistics.median(samples) / 1000)
    print("median update micros by size:", [round(m, 1) for m in medians])
    for smaller, bigger in zip(medians, medians[1:]):
        assert bigger < 4 * smaller, medians
