"""Steady-state update and query benchmark for dynorient.

One run measures one workload in a fresh process, as a closed loop with a
single caller that issues the next op only after the previous one
returned:

    python3 perfbench/run.py --workload dense-churn --seed 1 \
        --seconds 24 --trace 0

``--trace 0`` runs ``ROUNDS`` rounds.  Each builds the engine from the
round's warm-up ops (``setup_s`` is the median set-up time) and then times
each op of a window lasting its share of ``--seconds`` of wall time; the
latency quantiles and rates pool the samples of all rounds.
``--trace 1`` replays a fixed-length window twice on identically built
engines, first untraced and then with every public method of every layer
wrapped by ``tracer.Tracer``, and reports the per-layer metrics; the
aggregated spans go to ``.perfbench_out/``.  Both modes check the
engine's output after the window, outside the timed part, and print the
state hash on the basis ``dynorient run`` uses.

``--workload all`` runs every workload in both modes, each in its own
process, and prints every metric by name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array

from common import OUT_DIR, MissingSource, load_package
from workloads import COLOUR_MODES, WORKLOADS

# each untraced run is this many rounds of set-up plus window
ROUNDS = 3
# set-up is repeated within a round until the run has spent a second on
# it, so a cheap set-up still gives a steady median
SETUP_MIN_S = 1.0
SETUP_MAX = 25
# per-kind latency samples kept per window; bounds the benchmark's memory
SAMPLE_CAP = 1 << 17
# updates in the fixed window of a traced run, sized to a few seconds
TRACE_UPDATES = {
    "dense-churn": 400,
    "read-mix": 100,
    "bf-churn": 200_000,
}


class Target:
    """The engines one workload drives, behind four op callables."""

    def __init__(self, wl):
        from dynorient import (ArboricityDecomposer, BFOrienter, Params,
                               ProductColouring)
        self.n = wl.n
        self.kind = wl.engine
        self.colourings = ()
        if self.kind == "bf":
            b = BFOrienter(wl.n, alpha_max=wl.alpha_max)
            self.engine = b
            self.insert = b.bf_insert
            self.delete = b.bf_delete
            out_edges = b.bf_out_edges
            self.outdeg = lambda v: len(out_edges(v))
            self.colour = ()
        else:
            d = ArboricityDecomposer(Params(n_cap=wl.n, gamma=wl.gamma,
                                            epsilon=wl.epsilon))
            self.engine = d
            self.insert = d.insert_edge
            self.delete = d.delete_edge
            self.outdeg = d.out_degree
            self.colourings = tuple(ProductColouring(d, mode=m)
                                    for m in COLOUR_MODES)
            self.colour = tuple(pc.colour for pc in self.colourings)

    def replay(self, ops):
        ins, dele = self.insert, self.delete
        for op in ops:
            if op[0] == "a":
                ins(op[1], op[2])
            else:
                dele(op[1], op[2])

    def counters(self):
        e = self.engine
        if self.kind == "bf":
            return {"flips": e.flip_count, "reorientations": e.reorientations}
        return {"inversions": e.inversions, "repair_pairs": e.repair_pairs,
                "surplus_ops": e.surplus_ops, "moves": e.moves,
                "rotations": e.refine.inversions,
                "expulsions": e.refine.expulsions,
                "forest_reads": sum(pc.forest_queries
                                    for pc in self.colourings)}


class Window:
    """Per-op latencies of one measured window, by op kind.

    Each kind keeps every ``stride``-th sample.  When ``SAMPLE_CAP`` are
    kept, every other one is dropped and the stride doubles, so the kept
    samples always spread evenly over the whole window."""

    KINDS = ("a", "d", "q")

    def __init__(self):
        self.samples = {k: array("q", bytes(8 * SAMPLE_CAP))
                        for k in self.KINDS}
        self.n_kept = dict.fromkeys(self.KINDS, 0)
        self.stride = dict.fromkeys(self.KINDS, 1)
        self.counts = dict.fromkeys(self.KINDS, 0)
        self.kind_ns = dict.fromkeys(self.KINDS, 0)
        self.ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, target, ops):
        """Apply ops one after another, timing each call alone."""
        now = time.perf_counter_ns
        ins, dele = target.insert, target.delete
        outdeg, colour = target.outdeg, target.colour
        samples, counts, kind_ns = self.samples, self.counts, self.kind_ns
        n_kept, stride = self.n_kept, self.stride
        for op in ops:
            kind = op[0]
            try:
                if kind == "a":
                    t0 = now()
                    ins(op[1], op[2])
                    dt = now() - t0
                elif kind == "d":
                    t0 = now()
                    dele(op[1], op[2])
                    dt = now() - t0
                elif kind == "o":
                    t0 = now()
                    outdeg(op[1])
                    dt = now() - t0
                    kind = "q"
                else:
                    query = colour[op[2]]
                    t0 = now()
                    query(op[1]).code
                    dt = now() - t0
                    kind = "q"
            except Exception as e:  # a failed op is counted, not fatal
                self.failed += 1
                if len(self.errors) < 3:
                    self.errors.append(f"{op!r}: {type(e).__name__}: {e}")
                continue
            c = counts[kind]
            counts[kind] = c + 1
            kind_ns[kind] += dt
            if not c % stride[kind]:
                k = n_kept[kind]
                samples[kind][k] = dt
                n_kept[kind] = k + 1
                if k + 1 == SAMPLE_CAP:
                    self._thin(kind)
        self.ns = sum(kind_ns.values())
        self.attempted += len(ops)

    @property
    def updates(self):
        return self.counts["a"] + self.counts["d"]

    def _thin(self, kind):
        buf = self.samples[kind]
        half = buf[::2]
        buf[:len(half)] = half
        self.n_kept[kind] = len(half)
        self.stride[kind] *= 2

    def kept(self, kind):
        """The kept latencies of one kind, in ns."""
        return self.samples[kind][:self.n_kept[kind]]


# ----------------------------------------------------------------------
# checks

def check_window(wl, target):
    """Run the workload's correctness checks; returns an error or None."""
    from checks import check_bf, check_decomposer
    from dynorient.errors import DynOrientError
    live = set(wl.live)
    try:
        if wl.engine == "bf":
            check_bf(target.engine, live)
        else:
            queried = target.colourings if wl.colour_queries else ()
            check_decomposer(target.engine, live, blocks=wl.block_edges(),
                             colourings=queried)
    except (AssertionError, DynOrientError) as e:
        return f"{type(e).__name__}: {e}"[:300]
    return None


def state_hash(target):
    from checks import state_hash as digest
    return digest(target.engine, target.n)


# ----------------------------------------------------------------------
# the two modes

def _metric(value, unit):
    return {"value": value, "unit": unit}


def _build(wl, warm):
    target = Target(wl)
    target.replay(warm)
    return target


def _quantile_us(samples, q):
    """Interpolated quantile of nanosecond samples, in microseconds."""
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return (s[lo] + (s[hi] - s[lo]) * (pos - lo)) / 1000.0


def _round_seed(seed, r):
    return seed * ROUNDS + r


def run_untraced(name, seed, seconds):
    """``ROUNDS`` rounds, each a fresh workload (seeded from ``seed`` and
    the round) set up anew and measured for ``seconds / ROUNDS``.  Every
    latency quantile and rate pools the samples of all rounds: the shared
    machine's speed swings by up to 2x over a few seconds, and pooling
    averages over the whole run where a median over rounds picks one
    round's luck.  The tail is p90, not p95 or p99: above p90 the
    latency of the two decomposer workloads hangs on how many inversions
    and repairs the seed's window happens to hit, so it spreads from
    seed to seed far more than the engine's speed does."""
    setups = []
    rounds = []
    errors = []
    for r in range(ROUNDS):
        wl = WORKLOADS[name](_round_seed(seed, r))
        warm = wl.warmup()
        target = None
        spent = 0.0
        while not spent or (spent < SETUP_MIN_S / ROUNDS
                            and len(setups) < SETUP_MAX):
            target = None
            gc.collect()
            t0 = time.perf_counter()
            target = _build(wl, warm)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]
        print(f"state_hash.setup.round{r} {state_hash(target)}")
        gc.collect()
        window = Window()
        # ops are generated in chunks inside the window's wall time, but
        # only the ops themselves are timed
        deadline = time.perf_counter() + seconds / ROUNDS
        while time.perf_counter() < deadline:
            window.run(target, wl.chunk(wl.updates_per_chunk))
        error = check_window(wl, target)
        if error:
            errors.append(f"round {r}: {error}")
        rounds.append((window, error))
        target = None

    def pooled_us(kind, q):
        return _quantile_us([x for w, _ in rounds for x in w.kept(kind)], q)

    def per_s(count):
        return sum(count(w) for w, _ in rounds) / sum(
            w.ns for w, _ in rounds) * 1e9

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "insert_p50_us": _metric(pooled_us("a", .5), "us"),
        "insert_p90_us": _metric(pooled_us("a", .9), "us"),
        "delete_p50_us": _metric(pooled_us("d", .5), "us"),
        "delete_p90_us": _metric(pooled_us("d", .9), "us"),
        "updates_per_s": _metric(per_s(lambda w: w.updates), "1/s"),
        "query_p50_us": _metric(pooled_us("q", .5), "us"),
        "query_p90_us": _metric(pooled_us("q", .9), "us"),
        "queries_per_s": _metric(per_s(lambda w: w.counts["q"]), "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    for r, (w, _) in enumerate(rounds):
        print(f"round{r} inserts={w.counts['a']} deletes={w.counts['d']}"
              f" queries={w.counts['q']} ops_s={w.ns / 1e9:.3f}")
    print(f"setups_s {[round(x, 3) for x in setups]}")
    attempted = sum(w.attempted for w, _ in rounds)
    failed = sum(w.attempted if e else w.failed for w, e in rounds)
    for w, _ in rounds:
        for e in w.errors:
            print(f"op failed: {e}")
    return attempted, failed, "; ".join(errors) or None, metrics


def _per(x, d):
    return x / d if d else 0.0


def run_traced(name, seed):
    """One fixed-length window of round 0's ops, replayed untraced and
    then traced on identically built engines."""
    from tracer import LAYERS, Tracer
    wl = WORKLOADS[name](_round_seed(seed, 0))
    warm = wl.warmup()
    ops = wl.chunk(TRACE_UPDATES[name])

    # reference: same ops on an identically built engine, no wrappers
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    plain = _build(wl, warm)
    state_mb = (tracemalloc.get_traced_memory()[0] - base) / 2 ** 20
    tracemalloc.stop()
    gc.collect()
    ref = Window()
    ref.run(plain, ops)
    ref_hash = state_hash(plain)
    plain = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        target = _build(wl, warm)
        setup_hash = state_hash(target)
        before = target.counters()
        gc.collect()
        tracer.enabled = True
        window = Window()
        window.run(target, ops)
        tracer.enabled = False
        after = target.counters()
        end_hash = state_hash(target)
        error = check_window(wl, target)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    if error is None and end_hash != ref_hash:
        error = "traced and untraced replays ended in different states"

    delta = {k: after[k] - before.get(k, 0) for k in after}
    n_ops = window.attempted
    updates = window.updates
    totals = tracer.layer_totals()
    self_sum = sum(s for _, s in totals.values())
    if error is None and self_sum != tracer.root_ns:
        error = f"layer self times {self_sum} != root spans {tracer.root_ns}"
    if error is None and tracer.root_ns > window.ns:
        error = "root spans outlast the traced window"
    # the rest of the window is the loop's timer reads plus the wrappers'
    # own bookkeeping around each root span
    coverage = _per(self_sum, window.ns)

    def calls(key):
        return tracer.methods[key][0]

    def us_per_op(ns):
        return _per(ns / 1000.0, n_ops)

    m = {}
    for layer in LAYERS:
        c, s = totals[layer]
        m[f"{layer}.self_us_per_op"] = _metric(us_per_op(s), "us/op")
        m[f"{layer}.self_share"] = _metric(_per(s, self_sum), "ratio")
        m[f"{layer}.calls_per_op"] = _metric(_per(c, n_ops), "calls/op")
    upd_ns = window.kind_ns["a"] + window.kind_ns["d"]
    nbrs_incl = tracer.methods["fractional.update_nbrs"][2]
    per_update = "count/update"
    m.update({
        "fractional.update_nbrs.incl_us_per_op":
            _metric(us_per_op(nbrs_incl), "us/op"),
        "fractional.update_nbrs.update_share":
            _metric(_per(nbrs_incl, upd_ns), "ratio"),
        "fractional.sync_bundle.calls_per_op":
            _metric(_per(calls("fractional.sync_bundle"), n_ops), "calls/op"),
        "forest.edge_weight.calls_per_op":
            _metric(_per(calls("forest.edge_weight"), n_ops), "calls/op"),
        "forest.depth_parity.calls_per_op":
            _metric(_per(calls("forest.depth_parity"), n_ops), "calls/op"),
        "fractional.copy_flips_per_update":
            _metric(_per(calls("fractional.flip_copy"), updates), per_update),
        "fractional.walk_len_max": _metric(tracer.walk_len_max, "count"),
    })
    for key in ("inversions", "repair_pairs", "surplus_ops", "moves"):
        m[f"decompose.{key}_per_update"] = _metric(
            _per(delta.get(key, 0), updates), per_update)
    rotations = delta.get("rotations", 0)
    expulsions = delta.get("expulsions", 0)
    m["refine.rotations_per_update"] = _metric(_per(rotations, updates),
                                               per_update)
    m["refine.expulsions_per_update"] = _metric(_per(expulsions, updates),
                                                per_update)
    m["refine.expulsions_per_rotation"] = _metric(_per(expulsions, rotations),
                                                  "ratio")
    colour_calls = calls("colouring.colour")
    m["colouring.forest_reads_per_colour"] = _metric(
        _per(delta.get("forest_reads", 0), colour_calls), "count/query")
    m["acyclic.flips_per_update"] = _metric(
        _per(delta.get("flips", 0), updates), per_update)
    m["acyclic.reorientations_per_update"] = _metric(
        _per(delta.get("reorientations", 0), updates), per_update)
    m["engine.state_mb"] = _metric(state_mb, "MB")
    m["trace.overhead_ratio"] = _metric(_per(window.ns, ref.ns), "ratio")
    m["trace.coverage"] = _metric(coverage, "ratio")

    print(f"state_hash.setup {setup_hash}")
    print(f"state_hash.window {end_hash}")
    print(f"window ops={n_ops} updates={updates}"
          f" untraced_s={ref.ns / 1e9:.3f} traced_s={window.ns / 1e9:.3f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "shape": wl.shape(),
                   "ops": n_ops, "updates": updates,
                   "window_ns": window.ns, "untraced_window_ns": ref.ns,
                   "counters": delta, "state_hash": end_hash,
                   "spans": tracer.dump()}, fh, indent=1)
    print(f"spans written to {os.path.relpath(path)}")
    for e in window.errors:
        print(f"op failed: {e}")
    failed = window.attempted if error else window.failed
    return window.attempted, failed, error, m


# ----------------------------------------------------------------------

def run_one(args):
    shape = WORKLOADS[args.workload](args.seed).shape()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}"
          f" shape={json.dumps(shape, sort_keys=True)}")
    if args.trace:
        attempted, failed, error, metrics = run_traced(args.workload,
                                                       args.seed)
    else:
        attempted, failed, error, metrics = run_untraced(
            args.workload, args.seed, args.seconds)
    print(f"check {'FAILED: ' + error if error else 'ok'}")
    print(f"failed_op_frac {_per(failed, attempted):.6g}")
    for k, v in metrics.items():
        print(f"{k} {v['value']} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in both modes, each run in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            print(f"{name} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for line in lines[:-1]:
                if line.startswith(("state_hash", "check", "failed_op_frac")):
                    print(f"  {line}")
            for k, v in res["metrics"].items():
                print(f"  {k} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        load_package()
    except (MissingSource, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
