import os
import subprocess
import sys
import textwrap

import pytest

from dynorient import traces
from dynorient.errors import ConfigurationError, TraceError
from dynorient.forest import edge_key
from dynorient.oracles import exact_arboricity, is_forest
from dynorient.traces import (TRACE_KINDS, format_trace, gen_adversarial_path,
                              gen_uniform_sparse, generate, parse_trace)


def replay(ops, check=None):
    """Apply add/del ops to a plain edge set, asserting well-formedness."""
    live = set()
    for op in ops:
        if op[0] == "a":
            key = edge_key(op[1], op[2])
            assert op[1] != op[2] and key not in live
            live.add(key)
        elif op[0] == "d":
            key = edge_key(op[1], op[2])
            assert key in live
            live.discard(key)
        if check is not None:
            check(live)
    return live


def test_round_trip_covers_every_op_kind():
    ops = [("a", 0, 1), ("c", 0), ("o", 1), ("x",), ("d", 0, 1)]
    text = format_trace(ops)
    assert text == "a 0 1\nc 0\no 1\nx\nd 0 1\n"
    assert parse_trace(text) == ops


_FORMAT_REFUSALS = textwrap.dedent("""
    from dynorient.errors import TraceError
    from dynorient.traces import format_trace, parse_trace
    ops = [("a", 0, 1), ("c", 0), ("o", 1), ("x",), ("d", 0, 1)]
    for bad in [("z", 1), ("a", 1), ("c", 1, 2), ("x", 0), ("o", -1),
                ("a", 1, "2"), ("c", True), ("c", 1.0), ("c", "1 # 2"), ()]:
        try:
            format_trace(ops + [bad])
        except TraceError:
            continue
        raise SystemExit(f"format_trace wrote {bad!r}")
    if parse_trace(format_trace(ops)) != ops:
        raise SystemExit("a valid trace did not round-trip")
    print("refused")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_format_refuses_every_op_the_parser_refuses(flags):
    """``format_trace`` raises TraceError for an unknown kind, a wrong
    arity, a negative or non-int id and any op that would not read back
    as itself, so ``parse_trace(format_trace(ops)) == ops`` holds for
    every text it writes; under python -O too."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(traces.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _FORMAT_REFUSALS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "refused"


def test_comments_and_blank_lines_are_skipped():
    text = "# header\n\na 0 1  # inline note\n   \nx\n"
    assert parse_trace(text) == [("a", 0, 1), ("x",)]


@pytest.mark.parametrize("bad", ["a 0", "a 0 1 2", "c", "o 1 2", "x 3",
                                 "z 1 2", "a 0 -1", "a zero one"])
def test_malformed_lines_report_their_number(bad):
    with pytest.raises(TraceError) as err:
        parse_trace("a 0 1\n" + bad + "\n")
    assert "line 2" in str(err.value)


def test_generators_are_deterministic():
    for kind in TRACE_KINDS:
        a = generate(kind, n=12, steps=80, seed=9, alpha_max=2)
        b = generate(kind, n=12, steps=80, seed=9, alpha_max=2)
        assert format_trace(a) == format_trace(b)
        assert len(a) >= 80


def test_unknown_kind_and_missing_alpha_are_rejected():
    with pytest.raises(TraceError):
        generate("fibonacci", n=4, steps=4, seed=0)
    with pytest.raises(ConfigurationError):
        generate("alpha-preserving", n=4, steps=4, seed=0)


def test_forest_only_graph_is_always_a_forest():
    ops = generate("forest-only", n=9, steps=150, seed=3)
    replay(ops, check=lambda live: is_forest(live))


@pytest.mark.parametrize("kind, alpha_max", [
    pytest.param(kind, a, id=f"{prefix}{a}")
    for kind, prefix in (("alpha-preserving", ""), ("alpha-dense", "dense-"))
    for a in (1, 2, 3)])
def test_alpha_preserving_respects_the_cap(kind, alpha_max):
    ops = generate(kind, n=8, steps=120, seed=alpha_max, alpha_max=alpha_max)
    replay(ops, check=lambda live: exact_arboricity(sorted(live)) <= alpha_max)


@pytest.mark.parametrize("alpha_max", [1, 2, 3])
def test_alpha_dense_reaches_its_cap(alpha_max):
    # alpha_max * (n - 1) edges need alpha_max forests, so the peak below
    # is arboricity alpha_max; alpha-preserving, which deletes with
    # probability 0.3, peaks at 264, 434 and 436 edges on these inputs
    n = 300
    sizes = []
    ops = generate("alpha-dense", n, 4 * n, seed=3, alpha_max=alpha_max)
    replay(ops, check=lambda live: sizes.append(len(live)))
    assert max(sizes) == alpha_max * (n - 1)


def test_uniform_sparse_stays_near_its_target():
    ops = gen_uniform_sparse(n=30, steps=400, seed=1, density=2.0)
    live = replay(ops, check=lambda live: len(live) <= 61)
    assert len(live) > 10


def test_adversarial_path_bridges_the_two_halves():
    n, steps = 12, 40
    ops = gen_adversarial_path(n, steps, seed=4)
    built = n - 2
    assert all(op[0] == "a" for op in ops[:built])
    # after the paths, strictly alternating add/delete of one bridge
    for i in range(built, len(ops) - 1, 2):
        a, d = ops[i], ops[i + 1]
        assert a[0] == "a" and d[0] == "d" and a[1:] == d[1:]
        assert a[1] < n // 2 <= a[2]
    replay(ops, check=lambda live: is_forest(live))


def test_query_rate_mixes_queries_in():
    ops = generate("forest-only", n=6, steps=60, seed=8, query_rate=0.4)
    kinds = {op[0] for op in ops}
    assert "o" in kinds or "c" in kinds
    assert all(0 <= op[1] < 6 for op in ops if op[0] in ("c", "o"))
    replay([op for op in ops if op[0] in ("a", "d")],
           check=lambda live: is_forest(live))
