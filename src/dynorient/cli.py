"""Command line harness: replay traces, generate them, benchmark updates.

Three subcommands:

* ``run`` replays a trace against the engine picked by --mode, answers
  the trace's queries inline, and emits a JSON report: mode, op count,
  status ("ok" or "violation"), the violations as
  ``{op_index, invariant, detail}`` with stable invariant names, query
  results, cumulative counters, and a hash of the semantic end state.
  The colour-* modes add two counters: ``colour_passes``, the colour
  queries that missed the colouring's memo, and ``forest_reads``, the
  forest reads charged to every colour query.  Both count the queries of
  the properness checks too, so they grow with --verify-every.
  An engine fault (ConsistencyError) in an op is an ``engine-state``
  violation at that op, and ends the replay; so is an ``alpha-max-promise``
  violation, where bf mode proves (PromiseViolation) that the trace's
  arboricity exceeds --alpha-max and refuses the insert.
* ``gen`` prints a deterministic trace of the requested kind; --seed
  picks its random stream and is the only seed any subcommand takes.
* ``bench`` replays a trace without verification and prints one CSV row
  per op: ``op_index,op,micros,reorientations,repairs,moves,surplus_ops``
  (counters are cumulative, so every column is monotone).

Exit codes: 0 clean, 1 at least one invariant violation or engine fault,
2 usage or malformed trace.  Verification is read-only: the reported
state hash is the same whether or not --verify-every is set.
"""

import argparse
import csv
import hashlib
import json
import sys
import time

from .acyclic import BFOrienter
from .colouring import ProductColouring
from .decompose import ArboricityDecomposer
from .errors import (ConfigurationError, ConsistencyError, DynOrientError,
                     PromiseViolation, TraceError, require)
from .forest import edge_key
from .oracles import exact_arboricity, is_forest, is_proper
from .params import Params, check_epsilon
from .traces import TRACE_KINDS, format_trace, generate, parse_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

MODES = ("orient", "arb", "bf", "colour-forest", "colour-pseudo")

_COLOUR_MODE = {
    "colour-forest": "forest-decomposition",
    "colour-pseudo": "pseudoforest",
}


class _Session:
    """One engine instance plus the mode's invariant checks."""

    def __init__(self, args):
        self.mode = args.mode
        self.n = args.n
        self.live = set()
        if self.mode == "bf":
            if args.alpha_max is None:
                raise ConfigurationError("bf mode needs --alpha-max")
            # bf mode reads no epsilon, but takes only what Params takes
            check_epsilon(args.epsilon, args.n)
            self.bf = BFOrienter(args.n, alpha_max=args.alpha_max)
            self.d = None
            self.col = None
        else:
            p = Params(n_cap=args.n, gamma=args.gamma, epsilon=args.epsilon)
            self.bf = None
            self.d = ArboricityDecomposer(p, paranoid=args.paranoid)
            # colour queries are read-only, so every decomposer mode
            # answers them; the colour-* modes additionally check
            # properness during verification
            self.col = ProductColouring(
                self.d, mode=_COLOUR_MODE.get(self.mode, "forest-decomposition"))

    # ------------------------------------------------------------------

    def _vertex(self, v):
        if not 0 <= v < self.n:
            raise TraceError(f"vertex {v} outside [0, {self.n})")
        return v

    def apply(self, op):
        """Execute one op; returns the answer for queries, else None."""
        kind = op[0]
        if kind == "a":
            u, v = self._vertex(op[1]), self._vertex(op[2])
            if self.bf is not None:
                self.bf.bf_insert(u, v)
            else:
                self.d.insert_edge(u, v)
            self.live.add(edge_key(u, v))
        elif kind == "d":
            u, v = self._vertex(op[1]), self._vertex(op[2])
            if self.bf is not None:
                self.bf.bf_delete(u, v)
            else:
                self.d.delete_edge(u, v)
            self.live.discard(edge_key(u, v))
        elif kind == "o":
            v = self._vertex(op[1])
            if self.bf is not None:
                return len(self.bf.bf_out_edges(v))
            return self.d.out_degree(v)
        elif kind == "c":
            if self.col is None:
                raise TraceError("colour queries need a decomposer mode")
            return self.col.colour(self._vertex(op[1])).code
        return None

    # ------------------------------------------------------------------

    def checks(self):
        """(name, callable) pairs; callables raise on violation.  The
        exact arboricity, which both bounds read up to n = 12, is
        computed once per call."""
        out = []
        if self.bf is not None:
            out.append(("engine-state", self.bf.verify))
            out.append(("partition-forests", self._check_partitions))
            return out
        alpha = exact_arboricity(self.live) if self.n <= 12 else None
        out.append(("engine-state", lambda: self.d.verify(alpha=alpha)))
        if alpha is not None:
            out.append(("out-degree-bound",
                        lambda: self._check_out_degree(alpha)))
        if self.mode in _COLOUR_MODE:
            out.append(("colouring-proper", self._check_proper))
        return out

    def _check_out_degree(self, alpha):
        bound = self.d.params.forest_cap(alpha)
        for v in range(self.n):
            deg = self.d.out_degree(v)
            require(deg <= bound, f"out-degree {deg} > {bound} at vertex {v}")

    def _check_partitions(self):
        for part in self.bf.partitions():
            require(is_forest(part), part)

    def _check_proper(self):
        require(is_proper(self.live, lambda v: self.col.colour(v).code),
                "colouring is not proper")

    # ------------------------------------------------------------------

    def counters(self):
        if self.bf is not None:
            return {"reorientations": self.bf.reorientations,
                    "flips": self.bf.flip_count,
                    "repairs": 0, "moves": 0, "surplus_ops": 0}
        d = self.d
        out = {"reorientations": d.inversions, "repairs": d.repair_pairs,
               "moves": d.moves, "surplus_ops": d.surplus_ops}
        if self.mode in _COLOUR_MODE:
            # colour misses, and the forest reads charged to every query
            out["colour_passes"] = self.col.passes
            out["forest_reads"] = self.col.forest_queries
        return out

    def state_hash(self):
        """Digest of the semantic state only, indifferent to internal
        tree shapes, cached laziness, and list orderings that carry no
        meaning.  Verification must never change it.

        Bundles are hashed by their raw counters, also while they sit in
        H, whose true counts are the link-cut edge weights; path-wide H
        rotations leave the raw counters of H bundles behind, so the
        hash can miss a difference in H counts (a FOUND line in
        CHANGES.md).  ``perfbench/checks.py`` copies this basis.
        Hashing true counts would change every recorded hash, so the
        basis stays as it is until a change made for that alone."""
        if self.bf is not None:
            basis = tuple(tuple(self.bf.bf_out_edges(v))
                          for v in range(self.n))
        else:
            g = self.d.g
            basis = (
                tuple((k, g.counts(*k)) for k in sorted(g.bundles)),
                tuple(g.loads),
                tuple(sorted(self.d.refine.in_h)),
                tuple(sorted(self.d.placed.items())),
                tuple(tuple(sorted(ms)) for ms in self.d.m),
            )
        return hashlib.sha256(repr(basis).encode()).hexdigest()


# ----------------------------------------------------------------------
# subcommands

# errors that end a replay as a violation at their op, not as bad input
_OP_FAULTS = (ConsistencyError, PromiseViolation)


def _read_trace(args):
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return parse_trace(text)


def _apply(sess, idx, op):
    try:
        return sess.apply(op)
    except _OP_FAULTS:
        raise
    except DynOrientError as e:
        raise TraceError(f"op {idx} {op!r}: {e}") from None


def _run_checks(sess, idx, violations):
    for name, fn in sess.checks():
        try:
            fn()
        except (AssertionError, DynOrientError) as e:
            violations.append({"op_index": idx, "invariant": name,
                               "detail": str(e)[:200]})


def _cmd_run(args, out):
    ops = _read_trace(args)
    sess = _Session(args)
    violations = []
    results = []
    for idx, op in enumerate(ops):
        if op[0] == "x":
            _run_checks(sess, idx, violations)
            continue
        try:
            value = _apply(sess, idx, op)
        except _OP_FAULTS as e:
            name = ("alpha-max-promise" if isinstance(e, PromiseViolation)
                    else "engine-state")
            violations.append({"op_index": idx, "invariant": name,
                               "detail": str(e)[:200]})
            break
        if value is not None:
            results.append({"op_index": idx, "op": op[0],
                            "vertex": op[1], "value": value})
        if args.verify_every and (idx + 1) % args.verify_every == 0:
            _run_checks(sess, idx, violations)
    else:
        _run_checks(sess, len(ops), violations)
    report = {
        "mode": args.mode,
        "n": args.n,
        "ops": len(ops),
        "status": "violation" if violations else "ok",
        "violations": violations,
        "results": results,
        "counters": sess.counters(),
        "state_hash": sess.state_hash(),
    }
    json.dump(report, out, indent=2)
    out.write("\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_bench(args, out):
    ops = _read_trace(args)
    sess = _Session(args)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["op_index", "op", "micros",
                "reorientations", "repairs", "moves", "surplus_ops"])
    for idx, op in enumerate(ops):
        if op[0] == "x":
            continue
        t0 = time.perf_counter_ns()
        _apply(sess, idx, op)
        micros = (time.perf_counter_ns() - t0) // 1000
        c = sess.counters()
        w.writerow([idx, op[0], micros, c["reorientations"],
                    c["repairs"], c["moves"], c["surplus_ops"]])
    return EXIT_OK


def _cmd_gen(args, out):
    ops = generate(args.kind, args.n, args.steps, args.seed,
                   alpha_max=args.alpha_max, query_rate=args.query_rate)
    out.write(format_trace(ops))
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="dynorient",
        description="replay, generate, and benchmark dynamic-graph traces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def engine_flags(p):
        p.add_argument("--mode", choices=MODES, default="orient")
        p.add_argument("--n", type=int, required=True,
                       help="vertex id upper bound")
        p.add_argument("--epsilon", type=float, default=1.0)
        p.add_argument("--gamma", type=int, default=8)
        p.add_argument("--alpha-max", type=int, default=None,
                       help="arboricity cap of bf mode; other modes ignore it")
        p.add_argument("--verify-every", type=int, default=0, metavar="K",
                       help="run the invariant suite after every K ops; "
                            "0 checks at the end only, below 0 is an error")
        p.add_argument("--paranoid", action="store_true",
                       help="engine self-checks after every update")
        p.add_argument("trace", nargs="?",
                       help="trace file; reads stdin when omitted")

    p_run = sub.add_parser("run", help="replay a trace, report JSON")
    engine_flags(p_run)
    p_bench = sub.add_parser("bench", help="replay a trace, report CSV")
    engine_flags(p_bench)
    p_gen = sub.add_parser("gen", help="print a deterministic trace")
    p_gen.add_argument("--kind", choices=TRACE_KINDS, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--steps", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0,
                       help="random stream of the generator; run and bench "
                            "replay the trace as given and take no seed")
    p_gen.add_argument("--alpha-max", type=int, default=None)
    p_gen.add_argument("--query-rate", type=float, default=0.0)
    return ap


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        if args.cmd == "gen":
            return _cmd_gen(args, out)
        if args.verify_every < 0:
            raise ConfigurationError(
                f"--verify-every {args.verify_every} is below 0")
        if args.cmd == "run":
            return _cmd_run(args, out)
        return _cmd_bench(args, out)
    except (DynOrientError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        fault = isinstance(e, _OP_FAULTS)
        return EXIT_VIOLATION if fault else EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
