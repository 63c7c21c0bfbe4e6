import io
import json
import os
import random
import subprocess
import sys

import pytest

from dynorient import cli
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
