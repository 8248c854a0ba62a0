import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oelab.errors import NotApplicable, ResourceExhausted, UsageError
from oelab.groups import ZN, BaumslagSolitar, Heisenberg, Lamplighter
from oelab.hyperbolicity import (
    MetricGraph,
    cycle_distortion,
    extract_fat_cycle,
    four_point_delta,
    geodesic_stability_check,
    log_form_bound,
    cycle_contraction_bound,
    rips_delta,
)


def test_graph_construction_and_validation():
    g = MetricGraph(3, [(0, 1), (1, 2), (1, 2)])
    assert g.adj[1] == [0, 2]
    with pytest.raises(UsageError):
        MetricGraph(4, [(0, 1), (2, 3), (5, 0)])
    with pytest.raises(UsageError):
        MetricGraph(4, [(0, 1), (2, 3)])  # disconnected


def test_edge_list_parsing():
    g = MetricGraph.from_edge_list("0 1\n1 2\n# comment\n2 0\n")
    assert g.n == 3 and g.dist[0, 2] == 1
    with pytest.raises(UsageError):
        MetricGraph.from_edge_list("0 1 2\n")
    with pytest.raises(UsageError):
        MetricGraph.from_edge_list("\n")


def test_distance_matrix_and_intervals():
    g = MetricGraph.cycle_graph(6)
    assert g.dist[0, 3] == 3
    iv = g.interval(0, 3)
    assert iv.all()  # both arcs are geodesic
    iv2 = g.interval(0, 2)
    assert sorted(np.flatnonzero(iv2)) == [0, 1, 2]


def test_geodesic_descent():
    g = MetricGraph.grid_graph(4, 4)
    path = g.geodesic(0, 15)
    assert len(path) == g.dist[0, 15] + 1
    for u, v in zip(path, path[1:]):
        assert v in g.adj[u]


def test_trees_have_zero_delta():
    for seed in range(20):
        t = MetricGraph.random_tree(25 + seed, seed)
        assert rips_delta(t) == 0
    assert four_point_delta(MetricGraph.random_tree(20, 99)) == 0


def test_delta_isomorphism_invariance():
    g = MetricGraph.grid_graph(4, 5)
    base = rips_delta(g)
    rng = random.Random(3)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u in range(g.n) for v in g.adj[u] if u < v]
        assert rips_delta(MetricGraph(g.n, edges)) == base


def test_cycle_deltas():
    assert rips_delta(MetricGraph.cycle_graph(8)) == 2
    fp = four_point_delta(MetricGraph.cycle_graph(8))
    assert 0 < fp <= 2 * rips_delta(MetricGraph.cycle_graph(8))
    assert four_point_delta(MetricGraph(2, [(0, 1)])) == 0


def test_grid_delta_lower_bound():
    assert rips_delta(MetricGraph.grid_graph(5, 5)) >= 2


def test_budget_guard():
    g = MetricGraph.cycle_graph(200)
    with pytest.raises(ResourceExhausted):
        rips_delta(g, budget_mb=1)


def grid_boundary_cycle(n):
    """Boundary cycle of the (n+1) x (n+1) vertex grid (n cells per side)."""
    idx = lambda x, y: x * (n + 1) + y
    cyc = []
    for x in range(n):
        cyc.append(idx(x, 0))
    for y in range(n):
        cyc.append(idx(n, y))
    for x in range(n, 0, -1):
        cyc.append(idx(x, n))
    for y in range(n, 0, -1):
        cyc.append(idx(0, y))
    return cyc


@pytest.mark.parametrize("n", [4, 6, 8])
def test_grid_boundary_distortion(n):
    G = MetricGraph.grid_graph(n + 1, n + 1)
    rep = cycle_distortion(G, grid_boundary_cycle(n))
    assert rep.n == 4 * n
    assert rep.a == Fraction(1, 2)
    assert rep.b == 1


def test_cycle_distortion_validation():
    g = MetricGraph.cycle_graph(8)
    rep = cycle_distortion(g, list(range(8)))
    assert rep.a == rep.b == 1
    with pytest.raises(UsageError):
        cycle_distortion(g, [0, 0, 0])
    with pytest.raises(UsageError):
        cycle_distortion(g, [0, 2, 4])  # not adjacent
    with pytest.raises(UsageError):
        cycle_distortion(g, [0, 1])


def test_bound_formulas():
    assert cycle_contraction_bound(0, 10, 1) == pytest.approx(0.6)
    assert cycle_contraction_bound(1, 1024, 1) == pytest.approx((4 * 10 + 6) / 1024)
    assert log_form_bound(1, math.e**2) == pytest.approx(24 / math.e**2)
    with pytest.raises(UsageError):
        cycle_contraction_bound(-1, 10, 1)


def test_distortion_bound_audit_on_grids():
    # measured a never beats the hyperbolicity bound with the graph's delta
    for n in (4, 6):
        G = MetricGraph.grid_graph(n + 1, n + 1)
        delta = rips_delta(G)
        rep = cycle_distortion(G, grid_boundary_cycle(n))
        bound = cycle_contraction_bound(float(delta), rep.n / 2, float(rep.b))
        assert float(rep.a) <= bound + 1e-9, (n, rep.a, bound)


def graph_zoo():
    zoo = [
        MetricGraph.path_graph(15),
        MetricGraph.cycle_graph(12),
        MetricGraph.grid_graph(6, 6),
        MetricGraph.random_tree(40, 7),
        MetricGraph.cayley_ball(ZN(2), 4),
        MetricGraph.cayley_ball(Heisenberg(), 3),
        MetricGraph.cayley_ball(Lamplighter(2), 5),
        MetricGraph.cayley_ball(BaumslagSolitar(2), 5),
    ]
    return zoo


def random_walk_path(G, rng, max_len=12):
    v = rng.randrange(G.n)
    path = [v]
    for _ in range(rng.randrange(1, max_len)):
        v = rng.choice(G.adj[v])
        path.append(v)
    return path


def test_geodesic_stability_audit_zoo():
    # interval points near the endpoints of any path stay delta log2 l + 1 close
    rng = random.Random(123)
    total = 0
    for G in graph_zoo():
        delta = rips_delta(G)
        for _ in range(125):
            path = random_walk_path(G, rng)
            rep = geodesic_stability_check(G, path, delta=delta)
            assert rep.passes, (G.n, path, rep)
            total += 1
    assert total == 1000


def test_geodesic_stability_trivial_cases():
    # unique geodesics: the path contains the whole interval, defect 0
    g = MetricGraph.path_graph(9)
    rep = geodesic_stability_check(g, list(range(9)))
    assert rep.max_defect == 0
    tree = MetricGraph.random_tree(20, 2)
    geo = tree.geodesic(0, tree.n - 1)
    assert geodesic_stability_check(tree, geo).max_defect == 0
    # in a grid the interval holds all staircases, so a single geodesic only
    # satisfies the bound, not defect zero
    grid = MetricGraph.grid_graph(4, 4)
    geo = grid.geodesic(0, 15)
    rep = geodesic_stability_check(grid, geo)
    assert rep.passes


def test_cayley_ball_labels():
    ball = MetricGraph.cayley_ball(ZN(2), 2)
    assert ball.n == 13
    assert ball.labels is not None and len(ball.labels) == 13


def test_extract_fat_cycle_grid():
    G = MetricGraph.grid_graph(13, 13)
    res = extract_fat_cycle(G)
    audit = cycle_distortion(G, res.cycle)
    assert audit.a == res.report.a and audit.b == res.report.b
    assert res.report.n >= max(1, int(res.delta) // 15)
    assert res.report.a >= Fraction(1, 2 * 17820)
    assert res.discrete_slack == 2


def test_extract_not_applicable_on_trees():
    with pytest.raises(NotApplicable):
        extract_fat_cycle(MetricGraph.random_tree(20, 1))


def test_extract_seeded_cycle_self_consistency():
    # a graph that is itself a cycle: extraction returns a cycle whose audit
    # numbers match cycle_distortion exactly
    G = MetricGraph.cycle_graph(16)
    res = extract_fat_cycle(G)
    again = cycle_distortion(G, res.cycle)
    assert again.a == res.report.a and again.b == res.report.b
    assert res.report.n >= 3


def test_extract_sampled_fallback_on_tiny_budget():
    # force the sampled fat-triangle path; the audit still binds the output
    G = MetricGraph.grid_graph(12, 12)
    res = extract_fat_cycle(G, budget_mb=1, sample_trials=800, seed=4)
    audit = cycle_distortion(G, res.cycle)
    assert audit.a == res.report.a and audit.b == res.report.b
    assert res.report.n >= 3


def test_rips_delta_leaves_no_allocations_behind():
    import tracemalloc

    g = MetricGraph.grid_graph(11, 11)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert rips_delta(g) == 10
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5e6
