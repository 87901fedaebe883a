import itertools
import random
from fractions import Fraction

import pytest

from loggas import (
    GraphSpec,
    arboricity,
    sk_ground_state_check,
    solve_t_minus,
)
from loggas.errors import InputError, SizeLimitError

from conftest import random_exact_matrix, random_float_matrix
from oracles import forest_partition_oracle


def complete_graph(n):
    return GraphSpec(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n):
    return GraphSpec(n, tuple(sorted((i, (i + 1) % n)) for i in range(n)))


PETERSEN = GraphSpec(10, (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),      # outer cycle
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),      # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),      # spokes
))


def random_tree(rng, n):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
    return GraphSpec(n, tuple(sorted(edges)))


def random_connected_graph(rng, n, max_edges=20):
    tree = list(random_tree(rng, n).edges)
    pool = [e for e in itertools.combinations(range(n), 2) if e not in set(tree)]
    rng.shuffle(pool)
    extra = rng.randint(0, min(len(pool), max_edges - len(tree)))
    return GraphSpec(n, tuple(sorted(tree + pool[:extra])))


def test_k4():
    report = arboricity(complete_graph(4))
    assert report.fractional == 2
    assert report.arboricity == 2
    assert forest_partition_oracle(complete_graph(4)) == 2


def test_path_is_one_forest():
    g = GraphSpec(4, ((0, 1), (1, 2), (2, 3)))
    report = arboricity(g)
    assert report.fractional == 1 and report.arboricity == 1
    assert forest_partition_oracle(g) == 1


def test_c5():
    report = arboricity(cycle_graph(5))
    assert report.fractional == Fraction(5, 4)
    assert report.arboricity == 2
    assert forest_partition_oracle(cycle_graph(5)) == 2


def test_k5():
    report = arboricity(complete_graph(5))
    assert report.fractional == Fraction(5, 2)
    assert report.arboricity == 3
    assert forest_partition_oracle(complete_graph(5)) == 3


def test_petersen():
    report = arboricity(PETERSEN)
    assert report.arboricity == 2
    assert forest_partition_oracle(PETERSEN) == 2


def test_complete_graph_fractional_is_n_halves():
    for n in range(3, 11):
        report = arboricity(complete_graph(n))
        assert report.fractional == Fraction(n, 2)


def test_edgeless_rejected():
    with pytest.raises(InputError, match="graph has no edges"):
        arboricity(GraphSpec(3, ()))
    with pytest.raises(InputError, match="graph has no edges"):
        forest_partition_oracle(GraphSpec(3, ()))


def test_oracle_size_caps():
    with pytest.raises(SizeLimitError, match=r"oracle limited to n <= 10, \|E\| <= 20"):
        forest_partition_oracle(complete_graph(7))  # 21 edges > 20
    with pytest.raises(SizeLimitError, match=r"oracle limited to n <= 10, \|E\| <= 20"):
        forest_partition_oracle(GraphSpec(11, ((0, 1),)))


def test_nash_williams_agreement_random():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n)
        assert arboricity(g).arboricity == forest_partition_oracle(g)


def test_trees_are_one_forest():
    rng = random.Random(73)
    for _ in range(10):
        g = random_tree(rng, rng.randint(2, 9))
        assert arboricity(g).arboricity == 1
        assert forest_partition_oracle(g) == 1


def test_induced_subgraphs_attain_density_max():
    # brute force over ALL subgraphs (vertex subset + edge subset), n <= 6
    rng = random.Random(79)
    graphs = [complete_graph(4), cycle_graph(5), complete_graph(6)]
    graphs += [random_connected_graph(rng, rng.randint(3, 6), max_edges=12) for _ in range(5)]
    for g in graphs:
        induced_best = arboricity(g).fractional
        best = Fraction(0)
        for r in range(2, g.n + 1):
            for vs in itertools.combinations(range(g.n), r):
                vset = set(vs)
                pool = [e for e in g.edges if e[0] in vset and e[1] in vset]
                for m in range(1, 1 << len(pool)):
                    count = m.bit_count()
                    best = max(best, Fraction(count, r - 1))
        assert best == induced_best


def test_witness_is_densest_induced_subgraph():
    g = PETERSEN
    report = arboricity(g)
    vset = set(report.witness.indices())
    edges_inside = sum(1 for e in g.edges if e[0] in vset and e[1] in vset)
    assert Fraction(edges_inside, len(vset) - 1) == report.fractional


# ---------------------------------------------------------------------------
# Ground-state identity
# ---------------------------------------------------------------------------

def test_sk_identity_mixed_charges():
    from loggas import ChargeVector, from_charges
    c = from_charges(ChargeVector((1, 1, -1, -1)))
    assert solve_t_minus(c).t_value == -1
    assert sk_ground_state_check(c)


def test_sk_identity_n2():
    from loggas import from_matrix
    assert sk_ground_state_check(from_matrix([[0, 1], [1, 0]]))


def test_sk_identity_random_exact():
    rng = random.Random(83)
    for _ in range(20):
        c = random_exact_matrix(rng, rng.randint(3, 8))
        assert sk_ground_state_check(c)


def test_sk_identity_random_float():
    rng = random.Random(89)
    for _ in range(10):
        c = random_float_matrix(rng, rng.randint(3, 8))
        assert sk_ground_state_check(c)


def test_sk_size_cap():
    from loggas import sample_gaussian_couplings
    with pytest.raises(SizeLimitError, match="check limited to n <= 16"):
        sk_ground_state_check(sample_gaussian_couplings(17, 1.0, 1))
