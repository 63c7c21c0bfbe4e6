import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from dynorient import cli, forest
from dynorient.decompose import ArboricityDecomposer
from dynorient.errors import ConsistencyError
from dynorient.forest import LinkCutForest, ParityForest
from dynorient.traces import format_trace, generate


def run_cli(argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def write_trace(tmp_path, ops, name="t.trace"):
    path = tmp_path / name
    path.write_text(format_trace(ops), encoding="utf-8")
    return str(path)


def test_gen_is_deterministic_and_parsable():
    code1, text1 = run_cli(["gen", "--kind", "forest-only", "--n", "8",
                            "--steps", "40", "--seed", "5"])
    code2, text2 = run_cli(["gen", "--kind", "forest-only", "--n", "8",
                            "--steps", "40", "--seed", "5"])
    assert code1 == code2 == cli.EXIT_OK
    assert text1 == text2
    assert text1.splitlines()[0].startswith(("a ", "d "))


def test_run_answers_queries_inline(tmp_path):
    trace = write_trace(tmp_path, [("a", 0, 1), ("o", 0), ("o", 1), ("c", 0),
                                   ("c", 1), ("x",)])
    code, text = run_cli(["run", "--mode", "orient", "--n", "4",
                          "--verify-every", "1", trace])
    assert code == cli.EXIT_OK
    report = json.loads(text)
    assert report["status"] == "ok" and report["violations"] == []
    assert report["ops"] == 6
    by_op = {}
    for r in report["results"]:
        by_op.setdefault(r["op"], []).append(r["value"])
    # one endpoint of the lone edge points at the other
    assert sorted(by_op["o"]) == [0, 1]
    assert sorted(by_op["c"]) == [0, 1]


def test_verification_is_observationally_pure(tmp_path):
    ops = generate("alpha-preserving", n=9, steps=120, seed=13, alpha_max=2)
    trace = write_trace(tmp_path, ops)
    base = ["--mode", "arb", "--n", "9", trace]
    code1, text1 = run_cli(["run"] + base)
    code2, text2 = run_cli(["run", "--verify-every", "7"] + base)
    assert code1 == code2 == cli.EXIT_OK
    r1, r2 = json.loads(text1), json.loads(text2)
    assert r1["state_hash"] == r2["state_hash"]
    assert r1["counters"] == r2["counters"]


@pytest.mark.parametrize("mode", ["colour-forest", "colour-pseudo"])
def test_colour_modes_scan_properness(mode, tmp_path):
    ops = generate("alpha-preserving", n=8, steps=90, seed=2, alpha_max=2,
                   query_rate=0.2)
    trace = write_trace(tmp_path, ops)
    code, text = run_cli(["run", "--mode", mode, "--n", "8",
                          "--verify-every", "5", trace])
    assert code == cli.EXIT_OK
    report = json.loads(text)
    assert report["status"] == "ok"


@pytest.mark.parametrize("mode", ["colour-forest", "colour-pseudo"])
def test_colour_modes_count_passes_and_forest_reads(mode, tmp_path):
    """The colour modes add ``colour_passes`` (memo misses) and
    ``forest_reads`` beside the decomposer counters.  Here 0 and 1 miss
    once each and every query, the end-of-run properness check's two
    among them, reads H's parity of a vertex it holds: two reads."""
    trace = write_trace(tmp_path, [("a", 0, 1), ("c", 0), ("c", 0),
                                   ("c", 1)])
    code, text = run_cli(["run", "--mode", mode, "--n", "4", trace])
    assert code == cli.EXIT_OK
    counters = json.loads(text)["counters"]
    assert counters == {"reorientations": 0, "repairs": 0, "moves": 0,
                        "surplus_ops": 0, "colour_passes": 2,
                        "forest_reads": 10}


def test_bf_mode_runs_and_reports_counters(tmp_path):
    ops = generate("alpha-preserving", n=30, steps=200, seed=6, alpha_max=2)
    trace = write_trace(tmp_path, ops)
    code, text = run_cli(["run", "--mode", "bf", "--n", "30",
                          "--alpha-max", "2", "--verify-every", "20", trace])
    assert code == cli.EXIT_OK
    report = json.loads(text)
    assert report["status"] == "ok"
    assert report["counters"]["reorientations"] >= report["counters"]["flips"] > 0



def _dense_churn_trace(seed, n=12, steps=150):
    """Churn on a near-complete graph, shaped like the decomposer's dense
    churn tests, so the run reaches layer cycle inversions and repairs."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set()
    ops = []
    for _ in range(steps):
        if edges and rng.random() < (0.5 if len(edges) > len(pairs) * 0.8
                                     else 0.1):
            key = rng.choice(sorted(edges))
            edges.discard(key)
            ops.append(("d",) + key)
        else:
            free = [k for k in pairs if k not in edges]
            if not free:
                continue
            key = rng.choice(free)
            edges.add(key)
            ops.append(("a",) + key)
    return format_trace(ops)


def _sparse_trace():
    code, text = run_cli(["gen", "--kind", "uniform-sparse", "--n", "400",
                          "--steps", "1200", "--seed", "1"])
    assert code == cli.EXIT_OK
    return text


def _run_cli_optimised(argv):
    """Run the CLI under ``python -O``, where every assert is stripped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "dynorient.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout


_PINNED = [
    ("uniform-sparse", _sparse_trace, 400,
     {"reorientations": 0, "repairs": 0, "moves": 1124, "surplus_ops": 0},
     "bdee85ceb7ba0f96c9db9bb7f490a820d9cca94377008cb689c2925c24c0ab12"),
    ("dense-churn", lambda: _dense_churn_trace(14), 12,
     {"reorientations": 4, "repairs": 1, "moves": 465, "surplus_ops": 2},
     "db31bd113b8ce25d7551f62c9868bae726b4f49379de9ca4adf1d93b9dd6c789"),
]


@pytest.mark.parametrize("trace, n, counters, state_hash, optimised", [
    pytest.param(*case, opt, id=name + ("-python-O" if opt else ""))
    for opt in (False, True) for name, *case in _PINNED])
def test_run_end_state_is_pinned(trace, n, counters, state_hash, optimised,
                                 tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(trace(), encoding="utf-8")
    argv = ["run", "--mode", "arb", "--n", str(n), str(path)]
    code, text = _run_cli_optimised(argv) if optimised else run_cli(argv)
    report = json.loads(text)
    assert code == cli.EXIT_OK, report["violations"]
    assert report["status"] == "ok"
    assert report["counters"] == counters
    assert report["state_hash"] == state_hash


def _with_colour_queries(trace, n, passes=1):
    """The trace with ``passes`` colour queries for every vertex, one
    vertex after another, after every update."""
    lines = []
    for line in trace.splitlines():
        lines.append(line)
        for _ in range(passes):
            lines.extend(f"c {v}" for v in range(n))
    return "\n".join(lines) + "\n"


def _digest(answers):
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


# Properness alone would not notice a wrong layer root or depth parity
# that still colours properly, so the answers themselves are pinned.
_PINNED_COLOURS = [
    ("colour-forest",
     "d3c4cfa2abfb0ca0506efd22dd86ced9bb266f5337e93b9cebbe1661b0d7ae8a"),
    ("colour-pseudo",
     "388086adf6a64ee871f59e372aa30ac38477b6fcfd3b1adce5c6846d3c8d4082"),
]


@pytest.mark.parametrize("mode, answers_hash, optimised", [
    pytest.param(*case, opt, id=case[0] + ("-python-O" if opt else ""))
    for opt in (False, True) for case in _PINNED_COLOURS])
def test_colour_answers_are_pinned(mode, answers_hash, optimised, tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(_with_colour_queries(_dense_churn_trace(14), 12),
                    encoding="utf-8")
    argv = ["run", "--mode", mode, "--n", "12", str(path)]
    code, text = _run_cli_optimised(argv) if optimised else run_cli(argv)
    report = json.loads(text)
    assert code == cli.EXIT_OK, report["violations"]
    assert report["status"] == "ok"
    answers = [r["value"] for r in report["results"]]
    assert len(answers) == 12 * len(_dense_churn_trace(14).splitlines())
    assert _digest(answers) == answers_hash


@pytest.mark.parametrize("mode, answers_hash", _PINNED_COLOURS)
def test_repeated_colour_passes_agree_with_the_pinned_answers(
        mode, answers_hash, tmp_path):
    """Two colour passes over every vertex after every update.  The first
    pass after an update reads the forests afresh and fills their parity
    memos; the second answers from the memos.  Both give the pinned
    answers."""
    n = 12
    path = tmp_path / "t.trace"
    path.write_text(_with_colour_queries(_dense_churn_trace(14), n, passes=2),
                    encoding="utf-8")
    code, text = run_cli(["run", "--mode", mode, "--n", str(n), str(path)])
    report = json.loads(text)
    assert code == cli.EXIT_OK, report["violations"]
    answers = [r["value"] for r in report["results"]]
    assert len(answers) == 2 * n * len(_dense_churn_trace(14).splitlines())
    first, second = [], []
    for k in range(0, len(answers), 2 * n):
        first += answers[k:k + n]
        second += answers[k + n:k + 2 * n]
    assert first == second
    assert _digest(first) == answers_hash


def test_bench_header_is_frozen_and_counters_monotone(tmp_path):
    ops = generate("alpha-preserving", n=9, steps=80, seed=11, alpha_max=2)
    trace = write_trace(tmp_path, ops)
    code, text = run_cli(["bench", "--mode", "arb", "--n", "9", trace])
    assert code == cli.EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "op_index,op,micros,reorientations,repairs,moves,surplus_ops"
    assert len(lines) == len(ops) + 1
    last = [0, 0, 0, 0]
    for line in lines[1:]:
        cells = line.split(",")
        now = [int(c) for c in cells[3:]]
        assert all(a >= b for a, b in zip(now, last))
        last = now


def test_bench_empty_trace_prints_header_only(monkeypatch):
    code, text = run_cli(["bench", "--mode", "orient", "--n", "4"],
                         stdin="# nothing\n", monkeypatch=monkeypatch)
    assert code == cli.EXIT_OK
    assert text == "op_index,op,micros,reorientations,repairs,moves,surplus_ops\n"


def test_usage_errors_exit_2(tmp_path, monkeypatch):
    # malformed trace
    bad = tmp_path / "bad.trace"
    bad.write_text("a 0\n", encoding="utf-8")
    assert run_cli(["run", "--n", "4", str(bad)])[0] == cli.EXIT_USAGE
    # duplicate insert breaks simple-graph rules
    dup = tmp_path / "dup.trace"
    dup.write_text("a 0 1\na 1 0\n", encoding="utf-8")
    assert run_cli(["run", "--n", "4", str(dup)])[0] == cli.EXIT_USAGE
    # vertex outside --n
    assert run_cli(["run", "--n", "2"], stdin="a 0 5\n",
                   monkeypatch=monkeypatch)[0] == cli.EXIT_USAGE
    # bf mode without its cap, and colour query on bf
    assert run_cli(["run", "--mode", "bf", "--n", "4", str(dup)])[0] \
        == cli.EXIT_USAGE
    # missing file
    assert run_cli(["run", "--n", "4", str(tmp_path / "nope")])[0] \
        == cli.EXIT_USAGE


def _fault_at(monkeypatch, k):
    """Make the decomposer's k-th insert raise an engine fault."""
    calls = [0]
    real = ArboricityDecomposer.insert_edge

    def insert_edge(self, u, v):
        calls[0] += 1
        if calls[0] == k:
            raise ConsistencyError(f"synthetic fault at ({u}, {v})")
        return real(self, u, v)
    monkeypatch.setattr(ArboricityDecomposer, "insert_edge", insert_edge)


def test_engine_fault_is_a_violation_at_its_op(tmp_path, monkeypatch):
    ops = [("a", 0, 1), ("o", 0), ("a", 1, 2), ("a", 2, 3), ("o", 2),
           ("a", 0, 3)]
    trace = write_trace(tmp_path, ops)
    _fault_at(monkeypatch, 3)
    code, text = run_cli(["run", "--mode", "arb", "--n", "4",
                          "--verify-every", "1", trace])
    assert code == cli.EXIT_VIOLATION
    report = json.loads(text)
    assert list(report) == ["mode", "n", "ops", "status", "violations",
                            "results", "counters", "state_hash"]
    assert report["status"] == "violation" and report["ops"] == 6
    # the replay stops at the faulting op: no later answer, no later check
    assert report["violations"] == [{
        "op_index": 3, "invariant": "engine-state",
        "detail": "synthetic fault at (2, 3)"}]
    assert [r["op_index"] for r in report["results"]] == [1]


def test_bench_exits_on_an_engine_fault_as_a_violation(tmp_path, monkeypatch,
                                                       capsys):
    trace = write_trace(tmp_path, [("a", 0, 1), ("a", 1, 2)])
    _fault_at(monkeypatch, 2)
    code, _ = run_cli(["bench", "--mode", "arb", "--n", "4", trace])
    assert code == cli.EXIT_VIOLATION
    assert capsys.readouterr().err.startswith("error: synthetic fault")


def _run_cli_subprocess(argv):
    """Run the CLI in its own process, with a timeout that turns a replay
    that never ends into a failure rather than a stalled suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "dynorient.cli"] + argv,
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    return proc.returncode, proc.stdout, proc.stderr


def test_bf_run_reports_a_broken_alpha_max_promise(tmp_path):
    # K12 has arboricity 6; sink flips with d = 4 would cascade forever
    k12 = [("a", u, v) for u in range(12) for v in range(u + 1, 12)]
    flags = ["--mode", "bf", "--alpha-max", "1", "--n", "12"]
    code, text, _ = _run_cli_subprocess(
        ["run"] + flags + [write_trace(tmp_path, k12 + [("o", 0)])])
    assert code == cli.EXIT_VIOLATION
    report = json.loads(text)
    assert report["status"] == "violation"
    [v] = report["violations"]
    assert v["invariant"] == "alpha-max-promise"
    # the replay stops there, with the refused insert rolled back: the
    # end state is that of the trace cut just before it
    idx = v["op_index"]
    assert k12[idx] == ("a", 4, 5) and report["results"] == []
    code, text, _ = _run_cli_subprocess(
        ["run"] + flags + [write_trace(tmp_path, k12[:idx], "prefix.trace")])
    assert code == cli.EXIT_OK
    assert json.loads(text)["state_hash"] == report["state_hash"]
    code, _, err = _run_cli_subprocess(
        ["bench"] + flags + [write_trace(tmp_path, k12)])
    assert code == cli.EXIT_VIOLATION and err.startswith("error: inserting")


def test_gen_rejects_negative_steps_as_usage(capsys):
    argv = ["gen", "--kind", "uniform-sparse", "--n", "4", "--steps"]
    code, text = run_cli(argv + ["-2"])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error:")
    # no steps is an empty trace, not an error
    assert run_cli(argv + ["0"]) == (cli.EXIT_OK, "")


@pytest.mark.parametrize("cmd", ["run", "bench"])
def test_negative_verify_every_is_a_usage_error(cmd, tmp_path, capsys):
    trace = write_trace(tmp_path, [("a", 0, 1)])
    code, text = run_cli([cmd, "--n", "4", "--verify-every", "-3", trace])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error:")
    assert run_cli([cmd, "--n", "4", "--verify-every", "0", trace])[0] \
        == cli.EXIT_OK


def test_run_and_bench_reject_a_seed(tmp_path, capsys):
    # only gen draws random numbers; a seed given to a replay is a usage
    # error, not a setting that is silently ignored
    trace = write_trace(tmp_path, [("a", 0, 1)])
    for cmd in ("run", "bench"):
        with pytest.raises(SystemExit) as exc:
            run_cli([cmd, "--n", "4", "--seed", "1", trace])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
    assert run_cli(["run", "--n", "4", trace])[0] == cli.EXIT_OK


def test_violations_are_reported_with_stable_names():
    class Broken:
        def checks(self):
            def boom():
                assert False, "synthetic failure"
            return [("engine-state", boom)]

    violations = []
    cli._run_checks(Broken(), 7, violations)
    assert len(violations) == 1
    v = violations[0]
    assert v["op_index"] == 7 and v["invariant"] == "engine-state"
    assert v["detail"].startswith("synthetic failure")


_CORRUPT_UNDER_O = textwrap.dedent("""
    import argparse
    from dynorient import cli
    from dynorient.errors import ConsistencyError
    sess = cli._Session(argparse.Namespace(
        mode="arb", n=6, gamma=8, epsilon=1.0, alpha_max=None, paranoid=False))
    for u, v in ((0, 1), (1, 2), (0, 2)):
        sess.apply(("a", u, v))
    sess.d.g.loads[0] += 5
    try:
        sess.d.verify()
    except ConsistencyError:
        pass
    else:
        raise SystemExit("verify passed a corrupted engine")
    violations = []
    cli._run_checks(sess, 3, violations)
    print(" ".join(v["invariant"] for v in violations))
""")


def test_checks_still_report_a_corrupted_load_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_UNDER_O],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "engine-state" in proc.stdout.split()


def _k5_session():
    """An ``arb`` session on K5, whose first layer closes a cycle."""
    sess = cli._Session(argparse.Namespace(
        mode="arb", n=5, gamma=8, epsilon=1.0, alpha_max=None, paranoid=False))
    for u in range(5):
        for v in range(u + 1, 5):
            sess.apply(("a", u, v))
    return sess


def _cut_tree_edge(d):
    f = next(f for f in d.F if len(f))
    f.cut(*sorted(f.edges())[0])


def _drop_designation(d):
    tails = next(t for t in d.m_tail if t)
    del tails[min(tails)]


def _link_stray_key(d):
    # the first pair that a layer forest leaves unconnected
    f, u, w = next((f, u, w) for f in d.F for u in range(5)
                   for w in range(u + 1, 5) if not f.connected(u, w))
    f.link(u, w)


def _drop_layer_table(d):
    d.m_tail.pop()


@pytest.mark.parametrize("corrupt", [_cut_tree_edge, _drop_designation,
                                     _link_stray_key, _drop_layer_table])
def test_corrupt_placement_is_reported_not_raised(corrupt):
    sess = _k5_session()
    sess.d.verify()
    assert any(sess.d.m_tail) and any(len(f) for f in sess.d.F)
    corrupt(sess.d)
    violations = []
    cli._run_checks(sess, 10, violations)
    assert "engine-state" in {v["invariant"] for v in violations}
    with pytest.raises(ConsistencyError):
        sess.d.verify()


def test_every_forest_method_is_reached_from_the_cli(tmp_path, monkeypatch):
    """No public method of either link-cut forest, nor of the parity memo
    they share, serves tests alone: the CLI reaches each one on a dense
    churn that inverts a layer cycle (``ParityForest.set_root``), with
    out-degree and colour queries in both colouring modes and the engine
    checks every few ops."""
    want, called = set(), set()
    for cls in (forest._ParityMemo, LinkCutForest, ParityForest):
        for name, fn in list(vars(cls).items()):
            if name.startswith("_") or not callable(fn):
                continue
            key = f"{cls.__name__}.{name}"
            want.add(key)

            def wrapped(*args, _fn=fn, _key=key, **kw):
                called.add(_key)
                return _fn(*args, **kw)
            monkeypatch.setattr(cls, name, wrapped)
    n = 12
    lines = []
    for k, line in enumerate(_dense_churn_trace(14).splitlines()):
        lines += [line, f"o {k % n}", f"c {(5 * k) % n}"]
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for mode in ("colour-forest", "colour-pseudo"):
        code, text = run_cli(["run", "--mode", mode, "--n", str(n),
                              "--verify-every", "7", str(path)])
        report = json.loads(text)
        assert code == cli.EXIT_OK, report["violations"]
        assert report["counters"]["reorientations"] >= 1
    assert called == want, sorted(want - called)


_GEN_ALPHA_PRESERVING = ["gen", "--kind", "alpha-preserving", "--n", "6",
                          "--steps", "20", "--alpha-max"]


@pytest.mark.parametrize("alpha_max", ["0", "-3"])
def test_gen_rejects_alpha_max_below_one_as_usage(alpha_max, capsys):
    code, text = run_cli(_GEN_ALPHA_PRESERVING + [alpha_max])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error:")


def test_gen_rejects_alpha_max_below_one_under_python_O():
    # with the checks stripped, a missing guard would loop on rejected
    # inserts forever; the timeout turns that into a failure
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = _GEN_ALPHA_PRESERVING + ["0"]
    proc = subprocess.run([sys.executable, "-O", "-m", "dynorient.cli"] + argv,
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == "" and proc.stderr.startswith("error:")


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "-1"])
def test_run_rejects_a_bad_epsilon_as_usage(epsilon, tmp_path, capsys):
    path = write_trace(tmp_path, [("a", 0, 1), ("a", 1, 2)])
    code, text = run_cli(["run", "--n", "6", f"--epsilon={epsilon}", path])
    assert code == cli.EXIT_USAGE and text == ""
    assert capsys.readouterr().err.startswith("error: epsilon")


def test_run_rejects_a_nan_epsilon_under_python_O(tmp_path):
    path = write_trace(tmp_path, [("a", 0, 1), ("a", 1, 2)])
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = ["run", "--n", "6", "--epsilon", "nan", path]
    proc = subprocess.run([sys.executable, "-O", "-m", "dynorient.cli"] + argv,
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stdout == "" and proc.stderr.startswith("error: epsilon")
