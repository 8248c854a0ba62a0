import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oelab import hyperbolicity
from oelab.errors import NotApplicable, ResourceExhausted, UsageError
from oelab.groups import ZN, BaumslagSolitar, Heisenberg, Lamplighter
from oelab.hyperbolicity import (
    CONTRACTION_FLOOR,
    MetricGraph,
    ThinnessWitness,
    _simple_cycle_from_walk,
    _union_path,
    cycle_distortion,
    extract_fat_cycle,
    four_point_delta,
    geodesic_stability_check,
    cycle_contraction_bound,
    min_cycle_length,
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


def random_tree_with_chords(n, seed):
    """A random spanning tree plus n // 4 random chords: pairs that barely prune."""
    rng = random.Random(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return MetricGraph(n, edges + [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)])


def edges_of(G):
    return [(u, v) for u in range(G.n) for v in G.adj[u] if u < v]


def with_pendant_path(G, length):
    """G with a path of ``length`` new vertices hung on vertex 0: blocks that are edges."""
    n = G.n
    return MetricGraph(n + length, edges_of(G) + [(0, n)] + [(n + i, n + i + 1) for i in range(length - 1)])


def test_four_point_guard(monkeypatch):
    # the guard counts the cells the scan visits, m^2 per pair of an m-vertex
    # block: the 2x6 ladder is one block with four-point delta 1 (defect 2),
    # so it visits the 32 pairs at distance 6 down to 3, 32 * 12^2 = 4,608
    # cells, in batches of one distance each
    ladder = MetricGraph.grid_graph(2, 6)
    # a pendant path adds only blocks that are edges, which cost no cell
    for G in (ladder, with_pendant_path(ladder, 5)):
        monkeypatch.setattr(hyperbolicity, "FOUR_POINT_MAX_CELLS", 4_608)
        assert four_point_delta(G) == 1
        monkeypatch.setattr(hyperbolicity, "FOUR_POINT_MAX_CELLS", 4_607)
        with pytest.raises(ResourceExhausted, match=r"4,607 cells \(\|V\| = 12\)") as exc:
            four_point_delta(G)
        # stopped before the last batch, the 14 pairs at distance 3
        assert exc.value.progress == {"best": 1, "pairs": 18}


def test_four_point_runs_pruned_grids_and_stops_unpruned_graphs():
    # grids prune after two pairs, whatever their size: 225 and 400 vertices
    # used to be refused by a vertex cap of 200
    for side in (15, 20):
        assert four_point_delta(MetricGraph.grid_graph(side, side)) == side - 1
    # this tree with chords stopped at the cell bound while the scan ran on the
    # whole graph; its one block that is not an edge, 239 vertices of
    # diameter 11, prunes (4, as the whole-graph scan gives without the bound)
    assert four_point_delta(random_tree_with_chords(400, 1)) == 4
    # a long ladder barely prunes: its defect is 2 at any length, so the scan
    # of its block (240 vertices, diameter 120) stops at the cell bound
    G = with_pendant_path(MetricGraph.grid_graph(120, 2), 30)
    with pytest.raises(ResourceExhausted, match=r"\(\|V\| = 240\)") as exc:
        four_point_delta(G)
    # it names a lower bound found before it stopped, one pair short of the
    # bound, at m^2 cells per pair with m = 240 the block's size, not |V| = 270
    pairs = exc.value.progress["pairs"]
    assert exc.value.progress["best"] == 1
    assert pairs * 240**2 <= hyperbolicity.FOUR_POINT_MAX_CELLS < (pairs + 1) * 240**2


def test_distance_matrix_budget_guard(monkeypatch):
    import oelab.hyperbolicity

    # the matrix and its two bool masks take 6 n^2 bytes: 5.4 kB at n = 30
    monkeypatch.setattr(oelab.hyperbolicity, "DEFAULT_MATRIX_BUDGET_MB", 0.006)
    assert MetricGraph.cycle_graph(30).n == 30
    with pytest.raises(ResourceExhausted):
        MetricGraph.cycle_graph(32)


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
    # vertex ids outside [0, n): 8 used to raise IndexError, and -1 read as 7
    for cycle in ([8, 0, 1], [-1, 0, 1]):
        with pytest.raises(UsageError):
            cycle_distortion(g, cycle)


def test_geodesic_stability_rejects_a_negative_vertex():
    # -1 read as vertex 3 of the 4-cycle, which is adjacent to 2
    g = MetricGraph.cycle_graph(4)
    with pytest.raises(UsageError):
        geodesic_stability_check(g, [-1, 2], delta=rips_delta(g))


def test_bound_formulas():
    assert cycle_contraction_bound(0, 10, 1) == pytest.approx(0.6)
    assert cycle_contraction_bound(1, 1024, 1) == pytest.approx((4 * 10 + 6) / 1024)
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
    rep = geodesic_stability_check(g, list(range(9)), delta=rips_delta(g))
    assert rep.max_defect == 0
    tree = MetricGraph.random_tree(20, 2)
    geo = tree.geodesic(0, tree.n - 1)
    assert geodesic_stability_check(tree, geo, delta=rips_delta(tree)).max_defect == 0
    # in a grid the interval holds all staircases, so a single geodesic only
    # satisfies the bound, not defect zero
    grid = MetricGraph.grid_graph(4, 4)
    geo = grid.geodesic(0, 15)
    rep = geodesic_stability_check(grid, geo, delta=rips_delta(grid))
    assert rep.passes


def test_cayley_ball_labels():
    z2 = ZN(2)
    ball = MetricGraph.cayley_ball(z2, 2)
    assert ball.n == 13
    # vertex i is the i-th ball element in repr order
    elements = sorted(z2.ball(2), key=repr)
    for i, g in enumerate(elements):
        steps = {z2.multiply(g, s) for s in z2.generators}
        assert {elements[j] for j in ball.adj[i]} == steps & set(elements)


def test_extract_fat_cycle_grid():
    G = MetricGraph.grid_graph(13, 13)
    res = extract_fat_cycle(G)
    audit = cycle_distortion(G, res.cycle)
    assert audit.a == res.report.a and audit.b == res.report.b
    assert res.report.n >= min_cycle_length(res.delta)
    assert res.report.a >= CONTRACTION_FLOOR
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


def test_union_path_branches():
    # control sides a..c and b..c of a triangle, meeting at the corner c = 4
    side_ac, side_bc = [0, 1, 2, 4], [7, 6, 5, 4]

    def path(start, end):
        return _union_path(start, end, side_ac, side_bc, 4)

    assert path(2, 2) == [2]
    assert path(0, 2) == [0, 1, 2] and path(2, 0) == [2, 1, 0]
    assert path(6, 5) == [6, 5] and path(5, 7) == [5, 6, 7]
    assert path(4, 0) == [4, 2, 1, 0]
    # one end on each side: through the corner, which appears once
    assert path(1, 6) == [1, 2, 4, 5, 6] and path(7, 2) == [7, 6, 5, 4, 2]


def test_simple_cycle_from_walk_erases_loops():
    # a closed walk that is already simple loses only its closing vertex
    assert _simple_cycle_from_walk([0, 1, 2, 3, 0]) == [0, 1, 2, 3]
    # a spur 2 -> 5 -> 2 is erased and the longer cycle kept
    assert _simple_cycle_from_walk([0, 1, 2, 5, 2, 3, 0]) == [0, 1, 2, 3]
    # an erased loop longer than what remains is the one returned
    assert _simple_cycle_from_walk([0, 1, 2, 3, 4, 5, 2, 0]) == [2, 3, 4, 5]
    assert _simple_cycle_from_walk([]) == []


def test_extract_past_its_budget_raises():
    # the fattest triangle is always the exact one: past the budget the
    # extraction stops with the scan, it does not sample triangles
    G = MetricGraph.grid_graph(12, 12)
    assert extract_fat_cycle(G, budget_mb=1).delta == 11
    with pytest.raises(ResourceExhausted, match="^interval rows need") as exc:
        extract_fat_cycle(G, budget_mb=0.1)
    assert exc.value.progress == {"best": 0, "sources": 0}


def test_rips_budget_charges_each_slab_built():
    # the 11x11 grid reads 4 sources, 2 * 121^2 bytes each
    G = MetricGraph.grid_graph(11, 11)
    fits = 4 * 2 * 121**2 / 1e6
    assert rips_delta(G, budget_mb=fits) == 10
    with pytest.raises(ResourceExhausted, match="need ~0.117 MB > budget 0.117127 MB") as exc:
        rips_delta(G, budget_mb=fits - 1e-6)
    assert exc.value.progress == {"best": 0, "sources": 0}
    assert str(exc.value).endswith("; delta >= 0 after 0 sources")
    # the 3x4 grid scans 4 sources for delta 2, and its witness is read from
    # two of them: one budget boundary with and without a witness
    G = MetricGraph.grid_graph(3, 4)
    scan = 4 * 2 * 12**2 / 1e6
    assert rips_delta(G, budget_mb=scan) == 2
    assert rips_delta(G, budget_mb=scan, witness=True)[0] == 2
    progress = []
    for witness in (False, True):
        with pytest.raises(ResourceExhausted) as exc:
            rips_delta(G, budget_mb=scan - 1e-6, witness=witness)
        progress.append(exc.value.progress)
    assert progress[0] == progress[1]


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


# -- oracles for the fast kernels ---------------------------------------------


def scalar_interval_tensor(G):
    """T[a][c, x] = d(x, I(a, c)), one masked row minimum per (a, c)."""
    n = G.n
    D = G.dist
    out = []
    for a in range(n):
        A = D[a]
        # mask[c, y]: y lies on a geodesic from a to c
        mask = (A[None, :] + D == A[:, None])
        Ta = np.empty((n, n), dtype=np.int16)
        for c in range(n):
            Ta[c] = D[mask[c]].min(axis=0)
        out.append(Ta)
    return out


def scalar_rips(G):
    """Every pair a < b by decreasing d(a, b), then lexicographically: the
    first pair whose interval holds a defect equal to the maximum over all
    pairs wins, with the first (c, x) in row-major order inside it."""
    tensor = scalar_interval_tensor(G)
    D = G.dist
    order = sorted(((a, b) for a in range(G.n) for b in range(a + 1, G.n)), key=lambda ab: (-D[ab], ab))
    found = []
    for a, b in order:
        X = np.flatnonzero(G.interval(a, b))
        # defect of x in side [a,b] against corner c: min of the two
        m = np.minimum(tensor[a][:, X], tensor[b][:, X])
        c, xi = np.unravel_index(int(m.argmax()), m.shape)
        found.append(ThinnessWitness(a, b, int(c), int(X[xi]), int(m.max())))
    best = max((w.defect for w in found), default=0)
    if best == 0:
        return Fraction(0), ThinnessWitness(0, 0, 0, 0, 0)
    return Fraction(best), next(w for w in found if w.defect == best)


def block_rips_oracle(G):
    """(delta, witness) by the block rule: delta is scalar_rips on the whole
    graph, and the witness is scalar_rips's on the first block, in _blocks
    order stably sorted by decreasing diameter, whose scalar_rips value is
    delta, mapped back to G's vertices.  A block is rebuilt from its edges,
    so its distances come from its own BFS, not from a slice of G.dist."""
    delta = scalar_rips(G)[0]
    if delta == 0:
        return delta, ThinnessWitness(0, 0, 0, 0, 0)
    edges = edges_of(G)
    for V in sorted((V for V, _ in hyperbolicity._blocks(G)), key=lambda V: -G.dist[np.ix_(V, V)].max()):
        local = {v: i for i, v in enumerate(V)}
        B = MetricGraph(len(V), [(local[u], local[v]) for u, v in edges if u in local and v in local])
        value, wit = scalar_rips(B)
        if value == delta:
            return value, ThinnessWitness(V[wit.a], V[wit.b], V[wit.c], V[wit.x], wit.defect)
    raise AssertionError("no block attains delta")


def assert_witness_attains(G, value, wit):
    """Read off G.dist alone: x lies in I(a, b), and d(x, I(a,c) u I(b,c)) is
    the witness's defect and delta."""
    D = G.dist
    a, b, c, x = wit.a, wit.b, wit.c, wit.x
    assert D[a, x] + D[x, b] == D[a, b]
    union = (D[a] + D[c] == D[a, c]) | (D[b] + D[c] == D[b, c])
    assert D[x, union].min() == wit.defect == value


def definition_rips(D):
    """max over (a, b, c) and x in I(a, b) of d(x, I(a, c) u I(b, c))."""
    n = len(D)
    best = 0
    for a in range(n):
        for b in range(n):
            X = np.flatnonzero(D[a] + D[b] == D[a, b])
            # union[c, y]: y lies on a geodesic from a to c or from b to c
            union = (D[a][None, :] + D == D[a][:, None]) | (D[b][None, :] + D == D[b][:, None])
            to_union = np.where(union[:, None, :], D[X][None, :, :], n).min(axis=2)
            best = max(best, int(to_union.max()))
    return Fraction(best)


def brute_four_point(D):
    """Largest minus middle of the three pair sums, over all quadruples, / 2."""
    D = D.astype(np.int64)
    sums = np.stack(
        [
            D[:, :, None, None] + D[None, None, :, :],  # d(a,b) + d(c,d)
            D[:, None, :, None] + D[None, :, None, :],  # d(a,c) + d(b,d)
            D[:, None, None, :] + D[None, :, :, None],  # d(a,d) + d(b,c)
        ]
    )
    sums.sort(axis=0)
    return Fraction(int((sums[2] - sums[1]).max()), 2)


@st.composite
def connected_graphs(draw, max_vertices=25):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_vertices))
    tree = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return MetricGraph(n, tree + draw(st.lists(pairs, max_size=2 * n)))


@given(connected_graphs())
# a four-point scan that stops once d(a,b) <= 4 delta_best misses its defect 2
@example(MetricGraph(7, [(1, 0), (2, 0), (3, 2), (4, 2), (5, 3), (6, 4), (6, 5), (3, 0), (6, 3)]))
@settings(max_examples=150, deadline=None)
def test_fast_kernels_match_oracles(G):
    rows = hyperbolicity._SourceRows(G, hyperbolicity.DEFAULT_MATRIX_BUDGET_MB)
    rows.need(0, np.arange(G.n))
    for a, Ta in enumerate(scalar_interval_tensor(G)):
        assert rows.slab(a).dtype == np.int16
        assert np.array_equal(rows.slab(a), Ta.T)
    value, wit = rips_delta(G, witness=True)
    assert (value, wit) == block_rips_oracle(G)
    assert_witness_attains(G, value, wit)
    assert value == definition_rips(G.dist)
    assert rips_delta(G) == value
    assert four_point_delta(G) == brute_four_point(G.dist)


def test_rips_delta_builds_only_the_sources_it_reads(monkeypatch):
    built = []
    source_slab = hyperbolicity._source_slab
    monkeypatch.setattr(
        hyperbolicity, "_source_slab", lambda D, u, v, a, work: built.append(a) or source_slab(D, u, v, a, work)
    )
    # on the grid only the four corners are read: the only pairs at distance
    # 20 are the two corner diagonals, and their defect 10 ends the scan
    assert rips_delta(MetricGraph.grid_graph(11, 11), witness=True)[0] == 10
    assert sorted(built) == [0, 10, 110, 120]
    # a tree answers 0 with no scan, so it builds no slab
    built.clear()
    tree = MetricGraph.random_tree(30, 1)
    assert rips_delta(tree, witness=True) == (0, ThinnessWitness(0, 0, 0, 0, 0))
    assert built == []
    # the scan reads only the largest block: 68 of the 167-vertex block of the
    # bs:2 ball (191 vertices), 25 of the 26-vertex block of the ll:2 ball
    # of radius 5 (84 vertices), 37 of the ll:2 ball of radius 6; a witness
    # is read from the slabs of the pair that raised delta, so it builds none
    for G, delta, slabs in (
        (MetricGraph.cayley_ball(BaumslagSolitar(2), 5), 5, 68),
        (MetricGraph.cayley_ball(Lamplighter(2), 5), 2, 25),
        (MetricGraph.cayley_ball(Lamplighter(2), 6), 4, 37),
    ):
        built.clear()
        assert rips_delta(G) == delta and len(built) == slabs
        without = sorted(built)
        built.clear()
        assert rips_delta(G, witness=True)[0] == delta and sorted(built) == without
    # a path with a triangle is a block graph: 0 with no slab, with or without witness
    G = MetricGraph(250, [(i, i + 1) for i in range(249)] + [(0, 2)])
    built.clear()
    assert rips_delta(G) == 0 and rips_delta(G, witness=True) == (0, ThinnessWitness(0, 0, 0, 0, 0))
    assert four_point_delta(G) == 0
    assert built == []


@st.composite
def trees(draw, max_vertices=40):
    n = draw(st.integers(1, max_vertices))
    return MetricGraph(n, [(i, draw(st.integers(0, i - 1))) for i in range(1, n)])


@given(trees())
@settings(max_examples=60, deadline=None)
def test_trees_answer_the_oracles_without_a_scan(G):
    # one geodesic per pair: both kernels are 0 without building a slab
    with mock.patch.object(hyperbolicity, "_source_slab", side_effect=AssertionError("a tree built a slab")):
        assert rips_delta(G, witness=True) == (definition_rips(G.dist), ThinnessWitness(0, 0, 0, 0, 0))
        assert rips_delta(G) == 0
        assert four_point_delta(G) == brute_four_point(G.dist) == 0


@st.composite
def glued_graphs(draw, max_vertices=40):
    """2-4 connected_graphs pieces, each glued at one of its vertices to a
    vertex of the graph so far, then relabelled at random: cut vertices."""
    pieces = draw(st.integers(2, 4))
    n, edges = 1, []
    for _ in range(pieces):
        piece = draw(connected_graphs(max_vertices=max_vertices // pieces))
        at = draw(st.integers(0, piece.n - 1))
        to = draw(st.integers(0, n - 1))
        # the piece's vertex `at` becomes `to`; the others are new vertices
        label = [to if v == at else n + v - (v > at) for v in range(piece.n)]
        edges += [(label[u], label[v]) for u, v in edges_of(piece)]
        n += piece.n - 1
    perm = draw(st.permutations(range(n)))
    return MetricGraph(n, [(perm[u], perm[v]) for u, v in edges])


def networkx_blocks(G):
    """(sorted vertices, edge count) of each biconnected component, by networkx."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph(edges_of(G))
    return sorted((sorted(b), g.subgraph(b).number_of_edges()) for b in nx.biconnected_components(g))


@given(glued_graphs())
@settings(max_examples=60, deadline=None)
def test_block_scans_match_the_oracles_on_glued_graphs(G):
    assert sorted(hyperbolicity._blocks(G)) == networkx_blocks(G)
    assert rips_delta(G) == definition_rips(G.dist)
    assert four_point_delta(G) == brute_four_point(G.dist)
    # the witness comes from the first block that attains delta
    value, wit = rips_delta(G, witness=True)
    assert (value, wit) == block_rips_oracle(G)
    assert_witness_attains(G, value, wit)


def hung_on_vertex_0(pieces):
    """The pieces glued at their vertex 0, the others labelled piece by piece."""
    n, edges = 1, []
    for piece in pieces:
        label = [0, *range(n, n + piece.n - 1)]
        edges += [(label[u], label[v]) for u, v in edges_of(piece)]
        n += piece.n - 1
    return MetricGraph(n, edges)


def test_blocks_are_scanned_by_decreasing_diameter():
    # the search meets the blocks hung on vertex 0 in label order, so every
    # order of these pieces comes up: a scan that stopped at the first block
    # whose bound cannot beat the best so far would miss a later, wider block
    # (the 8-cycle after two 4-cycles), and one that skipped a block whose
    # bound only equals the best plus 1 would miss the 4-cycle after the diamond
    diamond = MetricGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    pieces = [MetricGraph.cycle_graph(4), MetricGraph.cycle_graph(4), MetricGraph.cycle_graph(8), diamond]
    for r in range(1, 5):
        for order in itertools.permutations(pieces, r):
            G = hung_on_vertex_0(order)
            assert rips_delta(G) == definition_rips(G.dist)
            assert four_point_delta(G) == brute_four_point(G.dist)


@pytest.mark.parametrize(
    "G", graph_zoo() + [MetricGraph(1, []), MetricGraph(2, [(0, 1)])], ids=lambda G: str(G.n)
)
def test_blocks_match_networkx(G):
    blocks = hyperbolicity._blocks(G)
    assert sorted(blocks) == networkx_blocks(G)
    # each block's vertices come in G's order
    assert all(V == sorted(V) for V, _ in blocks)


# two ladders hung on vertex 0 tie at delta 1, and each is scanned, since
# diameter//2 >= 3: the witness stays in the 2x7 one, scanned first though
# its labels come second
@pytest.mark.parametrize(
    "G",
    graph_zoo() + [hung_on_vertex_0([MetricGraph.grid_graph(2, 6), MetricGraph.grid_graph(2, 7)])],
    ids=lambda G: str(G.n),
)
def test_rips_witness_matches_scalar_kernel_on_zoo(G):
    value, wit = rips_delta(G, witness=True)
    assert (value, wit) == block_rips_oracle(G)
    assert_witness_attains(G, value, wit)


def test_all_pairs_matches_per_source_bfs():
    from collections import deque

    for G in graph_zoo() + [MetricGraph(1, [])]:
        for src in range(G.n):
            row = {src: 0}
            q = deque([src])
            while q:
                w = q.popleft()
                for y in G.adj[w]:
                    if y not in row:
                        row[y] = row[w] + 1
                        q.append(y)
            assert G.dist.dtype == np.int32
            assert G.dist[src].tolist() == [row[y] for y in range(G.n)]


def test_rips_delta_peak_memory_follows_the_sources_read():
    import tracemalloc

    # with a witness, bs(1,2) reads 68 sources of its 167-vertex block (191
    # vertices), the 11x11 grid 4 of 121; the whole tensor of d(x, I(a, c))
    # would take 2 n^3 bytes
    for G, delta, share in (
        (MetricGraph.cayley_ball(BaumslagSolitar(2), 5), 5, 0.6),
        (MetricGraph.grid_graph(11, 11), 10, 0.1),
    ):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert rips_delta(G, witness=True)[0] == delta
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < share * 2 * G.n**3, (G.n, peak)
