import gc
import os
import subprocess
import sys
import textwrap

import pytest

from dynorient import graph
from dynorient.errors import (ConfigurationError, DuplicateEdgeError,
                              MissingEdgeError, SelfLoopError,
                              WeightRangeError)
from dynorient.graph import GraphState
from dynorient.params import Params


def in_nbrs(g, v):
    """v's in-neighbours, derived from the out-neighbour sets."""
    return {x for x in range(g.n_cap) if v in g.out_nbrs[x]}


def small_params(**kw):
    base = dict(n_cap=8, gamma=8, epsilon=0.5)
    base.update(kw)
    return Params(**base)


def test_params_validation():
    small_params()  # fine
    with pytest.raises(ConfigurationError):
        small_params(n_cap=0)
    with pytest.raises(ConfigurationError):
        small_params(gamma=0)
    with pytest.raises(ConfigurationError):
        small_params(epsilon=0)


_NON_INT_SIZES = textwrap.dedent("""
    from dynorient import ArboricityDecomposer, Params
    from dynorient.acyclic import BFOrienter
    from dynorient.errors import ConfigurationError
    builds = [
        lambda: ArboricityDecomposer(Params(n_cap=4.0, gamma=8)),
        lambda: ArboricityDecomposer(Params(n_cap=4, gamma=8.0)),
        lambda: Params(n_cap="4", gamma=8),
        lambda: Params(n_cap=4, gamma=None),
        lambda: BFOrienter(4.0, 1),
        lambda: BFOrienter("4", 1),
        lambda: BFOrienter(4, 1.5),
        lambda: BFOrienter(4, None),
    ]
    for build in builds:
        try:
            build()
        except ConfigurationError:
            continue
        raise SystemExit("built a non-int size")
    # a bool is an int, as for vertex ids: True is 1
    d = ArboricityDecomposer(Params(n_cap=True + 1, gamma=8))
    d.insert_edge(0, 1)
    b = BFOrienter(2, alpha_max=True)
    b.bf_insert(0, 1)
    if b.d != 4 or Params(n_cap=True, gamma=8).n_cap != 1:
        raise SystemExit("a bool size read apart from its int")
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_non_int_sizes_raise_configuration_error(flags):
    """A float, string or None for ``Params``' n_cap or gamma, or for
    ``BFOrienter``'s n_cap or alpha_max, raises ConfigurationError at
    construction, also under python -O; a bool is the int it is."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(graph.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _NON_INT_SIZES],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "rejected"


_BAD_EPSILONS = textwrap.dedent("""
    from fractions import Fraction
    from dynorient import ArboricityDecomposer, Params
    from dynorient.errors import ConfigurationError
    # 1e308 is finite, but (1 + 1e308) * 4 overflows
    for bad in ("1", None, float("nan"), float("inf"), float("-inf"), 0,
                -1.5, False, 1j, [1.0], 1e308):
        try:
            Params(n_cap=4, gamma=8, epsilon=bad)
        except ConfigurationError:
            continue
        raise SystemExit(f"built epsilon={bad!r}")
    # a bool is the int it is, as for sizes: True is 1
    for good in (True, 1, 0.5, Fraction(1, 3), 1e300):
        d = ArboricityDecomposer(Params(n_cap=4, gamma=8, epsilon=good))
        d.insert_edge(0, 1)
        d.verify(alpha=1)
    print("rejected")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_epsilon_must_be_a_finite_real_above_zero(flags):
    """``Params`` raises ConfigurationError for an epsilon that is not a
    finite real above 0 (a string, None, nan, +-inf, 0, a negative, False,
    a complex, a list) or whose (1 + epsilon) * n_cap overflows, also
    under python -O; ints, floats, fractions and True build a decomposer
    whose ``verify(alpha=1)`` passes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(graph.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", _BAD_EPSILONS],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "rejected"


def test_params_thresholds():
    p = small_params()
    assert p.low_cut == 2 and p.high_cut == 6
    assert p.low_boundary == 1 and p.high_boundary == 7
    assert not p.in_open_interval(2)
    assert p.in_open_interval(3)
    assert p.in_open_interval(5)
    assert not p.in_open_interval(6)
    assert p.in_closed_interval(1) and p.in_closed_interval(7)
    assert not p.in_closed_interval(0) and not p.in_closed_interval(8)


def test_empty_state():
    g = GraphState(small_params())
    assert g.loads == [0] * 8
    assert (0, 1) not in g.bundles
    with pytest.raises(MissingEdgeError):
        g.count(0, 1)


def test_bundle_lifecycle():
    g = GraphState(small_params())
    g.add_bundle(2, 5)
    assert (2, 5) in g.bundles
    assert g.counts(2, 5) == (0, 0)
    with pytest.raises(DuplicateEdgeError):
        g.add_bundle(5, 2)
    with pytest.raises(SelfLoopError):
        g.add_bundle(3, 3)
    g.set_counts_raw(2, 5, 6, 2)
    assert g.count(2, 5) == 6
    assert g.count(5, 2) == 2
    assert 5 in g.out_nbrs[2] and 2 in g.out_nbrs[5]
    assert in_nbrs(g, 5) == {2} and in_nbrs(g, 2) == {5}
    assert g.in_deg[5] == g.in_deg[2] == 1
    g.set_counts_raw(2, 5, 0, 0)
    assert 5 not in g.out_nbrs[2] and in_nbrs(g, 5) == set()
    assert g.in_deg == [0] * 8
    g.drop_bundle(2, 5)
    assert (2, 5) not in g.bundles


def test_move_copies_and_membership():
    g = GraphState(small_params())
    g.add_bundle(0, 1)
    g.set_counts_raw(0, 1, 3, 5)
    g.move_copies(0, 1, 3)
    assert g.counts(0, 1) == (0, 8)
    assert 1 not in g.out_nbrs[0]
    assert 0 in g.out_nbrs[1]
    with pytest.raises(WeightRangeError):
        g.move_copies(0, 1, 1)
    assert g.counts(0, 1) == (0, 8)


_RAW_WRITES_UNDER_O = textwrap.dedent("""
    from dynorient.errors import (ConsistencyError, DynOrientError,
                                  WeightRangeError)
    from dynorient.graph import GraphState
    from dynorient.params import Params
    g = GraphState(Params(n_cap=4, gamma=8))
    g.add_bundle(0, 1)
    g.set_counts_raw(0, 1, 0, 8)
    g.bump_load(1, 8)

    def state():
        return (dict((k, list(c)) for k, c in g.bundles.items()),
                list(g.loads), [set(s) for s in g.out_nbrs], list(g.in_deg))

    before = state()
    bad = [(lambda: g.move_copies(0, 1, 1), WeightRangeError),
           (lambda: g.move_copies(1, 0, -1), WeightRangeError),
           (lambda: g.set_counts_raw(0, 1, -1, 8), WeightRangeError),
           (lambda: g.set_counts_raw(0, 1, 1, 8), WeightRangeError),
           (lambda: g.bump_load(0, -1), ConsistencyError),
           (lambda: g.drop_bundle(0, 1), ConsistencyError)]
    for call, err in bad:
        try:
            call()
        except err:
            pass
        else:
            raise SystemExit(f"no {err.__name__}")
        if state() != before:
            raise SystemExit(f"{err.__name__} left a write behind")
    assert False, "-O strips this assert, so only a run without -O fails"
""")


def test_raw_writes_raise_typed_errors_before_any_write_under_python_O():
    # a raw flip of a copy that is not there once drove a count negative
    # under -O: set_counts_raw(0, 1, 0, 8), then move_copies(0, 1, 1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(graph.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _RAW_WRITES_UNDER_O],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_max_load_in_nbr_tracks_changes():
    g = GraphState(small_params())
    for v in (1, 2, 3):
        g.add_bundle(v, 0)
        g.set_counts_raw(v, 0, 4, 4)   # v points at 0
    g.bump_load(1, 2)
    g.bump_load(2, 5)
    g.bump_load(3, 5)
    # vertex 0 has load 0, so the heaviest in-neighbour is tight
    assert g.tight_in_nbr(0) == 2   # ties break toward the lower id
    g.bump_load(2, -4)
    assert g.tight_in_nbr(0) == 3
    # membership loss hides a stale heap entry
    g.set_counts_raw(3, 0, 0, 8)
    assert g.tight_in_nbr(0) == 1
    assert g.tight_in_nbr(5) is None


def test_tight_out_nbr_scans_in_id_order():
    g = GraphState(small_params())
    for v in (4, 2):
        g.add_bundle(0, v)
        g.set_counts_raw(0, v, 2, 6)
    g.bump_load(0, 3)
    g.bump_load(2, 2)
    g.bump_load(4, 1)
    # both 2 and 4 are tight; id order picks 2
    assert g.tight_out_nbr(0) == 2
    g.bump_load(2, 1)
    assert g.tight_out_nbr(0) == 4
    g.bump_load(4, 2)
    assert g.tight_out_nbr(0) is None


def test_empty_state_tracks_two_objects_per_vertex():
    # one out-neighbour set and one in-neighbour heap per vertex; the
    # in-degrees are plain ints in one list, and no set mirrors the
    # in-neighbours
    n = 5000
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        g = GraphState(Params(n_cap=n, gamma=8))
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added <= 2 * n + 16, added
    assert g.in_deg == [0] * n
