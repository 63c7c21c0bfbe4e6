import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynorient.errors import SizeError
from dynorient.oracles import (exact_arboricity, is_acyclic, is_forest,
                               is_proper, check_eta_valid)
from naive_oracles import exact_max_density, is_pseudoforest


def complete(n):
    return list(itertools.combinations(range(n), 2))


def test_arboricity_small_cases():
    assert exact_arboricity([]) == 0
    assert exact_arboricity([(0, 1)]) == 1
    assert exact_arboricity([(0, 1), (1, 2), (2, 3)]) == 1
    assert exact_arboricity(complete(4)) == 2
    assert exact_arboricity(complete(5)) == 3
    # cycle: n edges on n vertices
    assert exact_arboricity([(i, (i + 1) % 5) for i in range(5)]) == 2


def test_density_small_cases():
    assert exact_max_density([]) == 0
    assert exact_max_density([(0, 1), (1, 2), (2, 3)]) == Fraction(3, 4)
    assert exact_max_density(complete(4)) == Fraction(3, 2)
    # density looks at the densest subgraph, not the whole graph
    edges = complete(4) + [(3, 9), (9, 10)]
    assert exact_max_density(edges) == Fraction(3, 2)


def test_size_cap():
    with pytest.raises(SizeError):
        exact_arboricity([(i, i + 1) for i in range(13)])
    # isolated vertices don't count toward the cap
    assert exact_arboricity([(100, 200)]) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_density_arboricity_band(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    pairs = complete(n)
    edges = rng.sample(pairs, rng.randint(1, len(pairs)))
    rho = exact_max_density(edges)
    alpha = exact_arboricity(edges)
    assert rho <= alpha <= 2 * rho + 1
    # Nash-Williams never undershoots the density ceiling by much
    assert alpha >= -(-rho.numerator // rho.denominator)


def test_is_forest():
    assert is_forest([])
    assert is_forest([(0, 1), (1, 2), (3, 4)])
    assert not is_forest([(0, 1), (1, 2), (2, 0)])
    assert not is_forest([(0, 1), (0, 1)])


def test_is_pseudoforest():
    assert is_pseudoforest([])
    assert is_pseudoforest([(0, 1), (1, 2), (2, 0)])
    # two cycles sharing a component: not a pseudoforest
    assert not is_pseudoforest([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    # two cycles in different components: fine
    assert is_pseudoforest([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_is_acyclic():
    assert is_acyclic(3, [[1], [2], []])
    assert not is_acyclic(3, [[1], [2], [0]])
    assert is_acyclic(1, [[]])
    # parallel arcs both directions form a 2-cycle
    assert not is_acyclic(2, [[1], [0]])


def test_is_proper():
    colours = {0: 0, 1: 1, 2: 0}
    assert is_proper([(0, 1), (1, 2)], colours.__getitem__)
    assert not is_proper([(0, 2)], colours.__getitem__)
    assert is_proper([], colours.__getitem__)


def test_check_eta_valid():
    loads = [3, 1, 0]
    # copy 0->1 with load gap 2 violates eta=1
    assert check_eta_valid(loads, {(0, 1): (2, 2)}) == [(0, 1)]
    assert check_eta_valid(loads, {(0, 1): (0, 4)}) == []
    assert check_eta_valid(loads, {(1, 2): (4, 0)}) == []
