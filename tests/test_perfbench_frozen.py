"""Guard for the benchmark's view of the package.

The benchmark under ``perfbench/`` is not part of this suite, so a
refactor could break what it reads without any test noticing.  Its state
hash and its tracer are loaded here by path, read-only, and checked
against the package as it stands.
"""

import argparse
import importlib.util
import os
import random

from dynorient import cli
from dynorient.colouring import ProductColouring
from dynorient.forest import ChangeStamps, LinkCutForest
from dynorient.fractional import EdgeStore, FractionalOrienter
from dynorient.graph import GraphState
from dynorient.params import Params
from dynorient.traces import generate
from naive_oracles import NaiveCopyWalk

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# the traced call counts ``perfbench/run.py`` reads by key
TRACED_KEYS = ("fractional.update_nbrs", "fractional.flip_copy",
               "fractional.sync_bundle", "forest.edge_weight",
               "forest.depth_parity", "colouring.colour")


def _load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_state_hash_matches_the_cli():
    checks = _load("checks")
    n = 12
    sess = cli._Session(argparse.Namespace(
        mode="arb", n=n, gamma=8, epsilon=1.0, alpha_max=None, paranoid=False))
    for op in generate("uniform-sparse", n, 120, 5):
        if op[0] in "ad":
            sess.apply(op)
    assert sess.d.g.bundles and any(len(f) for f in sess.d.F)
    assert checks.state_hash(sess.d, n) == sess.state_hash()


def test_benchmark_tracer_finds_every_key_it_reads():
    colour = ProductColouring.colour
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
        missing = [k for k in TRACED_KEYS if k not in tracer.methods]
    finally:
        tracer.uninstall()
    assert not missing, missing
    assert ProductColouring.colour is colour


def test_benchmark_tracer_counts_every_copy_flip():
    # the tracer counts flips and walk lengths by the public names
    # flip_copy, insert_copy and delete_copy; a walk that bypassed them
    # would read zero flips here instead of the reference walk's count
    tracer = _load("tracer").Tracer()
    rng = random.Random(2)
    n, gamma = 10, 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live = set()
    try:
        tracer.install()
        g = GraphState(Params(n_cap=n, gamma=gamma))
        fo = FractionalOrienter(
            g, EdgeStore(g, LinkCutForest(gamma, ChangeStamps(n))))
        ref = NaiveCopyWalk(gamma, g.loads)
        tracer.enabled = True
        for _ in range(150):
            if len(live) > 0.8 * len(pairs):
                key = rng.choice(sorted(live))
                assert fo.gamma_delete(*key) == ref.gamma_delete(*key)
                live.discard(key)
            else:
                key = rng.choice([k for k in pairs if k not in live])
                assert fo.gamma_insert(*key) == ref.gamma_insert(*key)
                live.add(key)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert ref.flips > 0
    assert tracer.methods["fractional.flip_copy"][0] == ref.flips
    assert tracer.walk_len_max > 0
