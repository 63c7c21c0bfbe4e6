"""Tests of the benchmark's workload design, checks and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench

They pin what each workload is for (dense churn reaches the inversion
machinery, sparse churn holds its density, bounded churn never exceeds
its arboricity cap) and that the benchmark's state hash is the one
``dynorient run`` reports.  They are not a gate on the engine's counts.
"""

import io
import json

import pytest

from common import load_package

load_package()

from dynorient import cli  # noqa: E402
from dynorient.oracles import exact_arboricity, is_forest  # noqa: E402
from dynorient.traces import format_trace  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_CLASSES, LAYERS, Tracer  # noqa: E402
from workloads import (BoundedChurn, DenseChurn, ReadMix,  # noqa: E402
                       SparseSteady)


def _window(target, ops):
    w = run.Window()
    w.run(target, ops)
    assert w.failed == 0, w.errors
    return w


def test_dense_churn_window_reaches_inversions_and_surplus_ops():
    wl = DenseChurn(seed=1)
    target = run._build(wl, wl.warmup())
    before = target.counters()
    _window(target, wl.chunk(run.TRACE_UPDATES["dense-churn"]))
    after = target.counters()
    assert after["inversions"] > before["inversions"]
    assert after["surplus_ops"] > before["surplus_ops"]
    assert run.check_window(wl, target) is None


def test_sparse_steady_holds_its_edge_count_through_the_window():
    wl = SparseSteady(seed=3)
    wl.warmup()
    assert len(wl.live) == 2 * wl.n
    for _ in range(200):
        ops = wl.chunk(wl.updates_per_chunk)
        assert 2 * wl.n - 1 <= len(wl.live) <= 2 * wl.n
        assert sum(op[0] in "ad" for op in ops) == wl.updates_per_chunk


@pytest.mark.parametrize("seed", [1, 2])
def test_bounded_churn_never_exceeds_alpha_max(seed):
    small = BoundedChurn(seed, n=12, alpha_max=2, density=1.4)
    steps = [small.warmup()] + [small.chunk(1) for _ in range(300)]
    for _ in steps:
        assert exact_arboricity(sorted(small.live)) <= small.alpha_max
    wl = BoundedChurn(seed)
    wl.warmup()
    for _ in range(20):
        wl.chunk(256)
        # the construction's own witness: live edges by parent slot
        parts = [[] for _ in range(wl.alpha_max)]
        for key, (_, slot) in wl.slot_of.items():
            parts[slot].append(key)
        assert len(parts) == wl.alpha_max
        assert all(is_forest(p) for p in parts)
        assert sorted(k for p in parts for k in p) == sorted(wl.live)


def test_read_mix_queries_follow_every_update_in_alternating_modes():
    wl = ReadMix(seed=1)
    wl.warmup()
    ops = wl.chunk(2)
    per = wl.queries_per_update
    assert len(ops) == 2 * (per + 1)
    assert ops[0][0] in "ad" and ops[per + 1][0] in "ad"
    modes = [{op[2] for op in ops[1 + i * (per + 1):(i + 1) * (per + 1)]}
             for i in range(2)]
    assert modes == [{0}, {1}]


def _cli_hash(argv, ops, tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(format_trace([op for op in ops if op[0] in "ad"]))
    out = io.StringIO()
    code = cli.main(["run"] + argv + [str(path)], out=out)
    report = json.loads(out.getvalue())
    assert code == 0 and report["status"] == "ok", report["violations"]
    return report["state_hash"]


def test_state_hash_agrees_with_dynorient_run(tmp_path):
    wl = SparseSteady(seed=5, n=40)
    ops = wl.warmup() + wl.chunk(60)
    target = run.Target(wl)
    _window(target, ops)
    argv = ["--mode", "arb", "--n", str(wl.n), "--gamma", str(wl.gamma),
            "--epsilon", str(wl.epsilon)]
    assert checks.state_hash(target.engine, wl.n) == _cli_hash(argv, ops,
                                                               tmp_path)

    wl = BoundedChurn(seed=5, n=40)
    ops = wl.warmup() + wl.chunk(200)
    target = run.Target(wl)
    _window(target, ops)
    argv = ["--mode", "bf", "--n", str(wl.n),
            "--alpha-max", str(wl.alpha_max)]
    assert checks.state_hash(target.engine, wl.n) == _cli_hash(argv, ops,
                                                               tmp_path)


@pytest.mark.xfail(strict=True, reason="hl.py compares vertex ids with `is`;"
                   " above 256 equal ids are distinct objects and solid-edge"
                   " flags go stale (see NOTES.md)")
def test_sparse_steady_passes_its_checks_after_warmup():
    wl = SparseSteady(seed=1, n=400)
    target = run._build(wl, wl.warmup())
    assert run.check_window(wl, target) is None


def test_checks_reject_a_decomposition_that_misses_a_live_edge():
    wl = DenseChurn(seed=2, blocks=2, size=8)
    target = run._build(wl, wl.warmup())
    live = set(wl.live)
    checks.check_decomposer(target.engine, live, blocks=wl.block_edges())
    absent = wl.block_free[0].items[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_decomposer(target.engine, live | {absent})


def test_tracer_accounts_every_span_and_uninstalls_cleanly():
    originals = {(cls, name): fn
                 for classes in LAYER_CLASSES.values() for cls in classes
                 for name, fn in vars(cls).items()}
    wl = ReadMix(seed=3, blocks=2, size=8)
    warm = wl.warmup()
    ops = wl.chunk(4)
    tracer = Tracer()
    tracer.install()
    try:
        target = run._build(wl, warm)
        tracer.enabled = True
        w = _window(target, ops)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    assert set(totals) == set(LAYERS)
    assert sum(s for _, s in totals.values()) == tracer.root_ns <= w.ns
    roots = tracer.methods["decompose.insert_edge"][0] + \
        tracer.methods["decompose.delete_edge"][0] + \
        tracer.methods["colouring.colour"][0]
    assert roots == len(ops)
    assert totals["colouring"][0] > 0 and totals["forest"][0] > 0
    assert totals["acyclic"] == [0, 0]
    after = {(cls, name): fn
             for classes in LAYER_CLASSES.values() for cls in classes
             for name, fn in vars(cls).items()}
    assert after == originals
