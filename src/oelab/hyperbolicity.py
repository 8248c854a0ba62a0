"""Rips hyperbolicity, cycle distortion, and fat-cycle extraction on graphs.

The Rips constant is computed over metric intervals: x lies on a geodesic
from a to b iff d(a,x) + d(x,b) = d(a,b), and the union of all geodesic
images between two vertices is exactly that interval, so thinness of every
geodesic triangle reduces to interval computations on the distance matrix.
This discrete constant is exact for the interval convention; the continuous
realization of the graph may differ by a bounded additive amount, which is
why reports carry the convention and the declared discrete slack.

Cycle distortion measures the best bi-Lipschitz constants of a combinatorial
cycle inside the graph; a hyperbolic graph cannot contain long cycles with
distortion better than ~ delta log n / n, and conversely a graph with a fat
geodesic triangle contains a long cycle of universally bounded distortion,
which extract_fat_cycle constructs by the quadrilateral subdivision scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rng import derive
from .errors import NotApplicable, ResourceExhausted, UsageError
from .groups import Group

DEFAULT_MATRIX_BUDGET_MB = 1024
CONTRACTION_FLOOR = Fraction(1, 2 * 17820)  # the least contraction a the fat-cycle self-audit accepts
FOUR_POINT_MAX_CELLS = 800_000_000  # m^2 per pair the four-point scan visits in an m-vertex block; 200 vertices need at most 796M


def _check_budget(what: str, need: float, budget_mb: float, n: int, after: str = "", progress=None) -> None:
    if need > budget_mb:
        size = f"{need:.3g}" if need < 100 else f"{need:.0f}"
        raise ResourceExhausted(f"{what} ~{size} MB > budget {budget_mb:g} MB (|V| = {n}){after}", progress)


class MetricGraph:
    """A finite connected graph with its all-pairs distance matrix."""

    def __init__(self, n: int, edges):
        if n < 1:
            raise UsageError("graph needs at least one vertex")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u},{v}) out of range")
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self.adj = [sorted(a) for a in adj]
        self.dist = self._all_pairs()

    def _all_pairs(self) -> np.ndarray:
        """Breadth-first search from every source at once, one level at a time.

        Row v of ``frontier`` marks the sources at the current level from v.
        A vertex enters the next level through any neighbour, so one row
        gather per neighbour slot advances all n searches; the distances are
        symmetric, so the matrix reads the same either way round.
        """
        n = self.n
        # the int32 matrix and two n x n bool arrays
        _check_budget("distance matrix needs", 6 * n**2 / 1e6, DEFAULT_MATRIX_BUDGET_MB, n)
        width = max(map(len, self.adj))
        # slot j of v is its j-th neighbour, or v itself past its degree
        slots = np.repeat(np.arange(n, dtype=np.int32)[:, None], width, axis=1)
        for v, nbrs in enumerate(self.adj):
            slots[v, : len(nbrs)] = nbrs
        dist = np.full((n, n), -1, dtype=np.int32)
        frontier = np.eye(n, dtype=bool)
        level = 0
        while frontier.any():
            dist[frontier] = level
            level += 1
            reach = np.zeros((n, n), dtype=bool)
            for col in slots.T:
                reach |= frontier[col]
            frontier = reach & (dist < 0)
        if (dist < 0).any():
            raise UsageError("graph must be connected")
        return dist

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edge_list(cls, text: str) -> "MetricGraph":
        """Parse the text format: one 'u v' pair per line, 0-indexed."""
        edges = []
        top = -1
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise UsageError(f"bad edge line {number}: {line!r}") from None
            edges.append((u, v))
            top = max(top, u, v)
        if top < 0:
            raise UsageError("empty edge list")
        return cls(top + 1, edges)

    @classmethod
    def path_graph(cls, n: int) -> "MetricGraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle_graph(cls, n: int) -> "MetricGraph":
        if n < 3:
            raise UsageError("cycle needs n >= 3")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def grid_graph(cls, nx: int, ny: int) -> "MetricGraph":
        """The nx-by-ny vertex lattice with nearest-neighbor edges."""
        if nx < 1 or ny < 1:
            raise UsageError("grid needs positive dimensions")
        idx = lambda x, y: x * ny + y
        edges = []
        for x in range(nx):
            for y in range(ny):
                if x + 1 < nx:
                    edges.append((idx(x, y), idx(x + 1, y)))
                if y + 1 < ny:
                    edges.append((idx(x, y), idx(x, y + 1)))
        return cls(nx * ny, edges)

    @classmethod
    def random_tree(cls, n: int, seed: int) -> "MetricGraph":
        edges = [(i, derive(seed, i) % i) for i in range(1, n)]
        return cls(n, edges)

    @classmethod
    def cayley_ball(cls, group: Group, radius: int) -> "MetricGraph":
        """The induced graph on the ball B(e, radius) of a Cayley graph."""
        elements = sorted(group.ball(radius), key=repr)
        index = {g: i for i, g in enumerate(elements)}
        edges = []
        for g in elements:
            for s in group.generators:
                h = group.multiply(g, s)
                j = index.get(h)
                if j is not None:
                    edges.append((index[g], j))
        return cls(len(elements), edges)

    # -- geometry ------------------------------------------------------------

    def interval(self, a: int, b: int) -> np.ndarray:
        """Vertices on some geodesic from a to b (boolean mask)."""
        return self.dist[a] + self.dist[b] == self.dist[a, b]

    def geodesic(self, a: int, b: int) -> list[int]:
        """A canonical geodesic path from a to b (min-index descent)."""
        path = [a]
        cur = a
        while cur != b:
            nxt = min(
                v for v in self.adj[cur] if self.dist[v, b] == self.dist[cur, b] - 1
            )
            path.append(nxt)
            cur = nxt
        return path

    def dist_to_set(self, vertices) -> np.ndarray:
        """Distances from every vertex to a vertex set: the minimum of its rows."""
        rows = self.dist[np.fromiter(vertices, dtype=np.intp)]
        if not len(rows):
            raise UsageError("dist_to_set needs a nonempty set")
        return rows.min(axis=0)


# every batch of pairs or rows in the kernels below spans at most this many
# cells, so their temporaries stay small next to the interval rows
BLOCK_CELLS = 1 << 15


def _source_slab(D: np.ndarray, u: np.ndarray, v: np.ndarray, a: int, work: np.ndarray) -> np.ndarray:
    """slab[x, c] = d(x, I(a, c)) for one source a, as a view of ``work``.

    I(a, c) is {c} together with I(a, p) for every neighbour p of c one step
    closer to a, so d(., I(a, c)) is the minimum of d(., c) and the
    d(., I(a, p)) of those predecessors.  ``work[c]`` is built one BFS level
    from a at a time, then returned transposed.  (u, v) are the directed
    edges, sorted by u.
    """
    da = D[a]
    work[a] = da
    # predecessor edges (c, p), sorted by the level of c, then by c
    pred = da[v] == da[u] - 1
    c, p = u[pred], v[pred]
    order = np.argsort(da[c], kind="stable")
    c, p = c[order], p[order]
    first = np.flatnonzero(np.diff(c, prepend=-1))  # first edge of each c
    ends = np.append(first, len(c))
    # the c at level L own the runs levels[L - 1] to levels[L]
    levels = np.searchsorted(da[c[first]], np.arange(1, int(da.max()) + 2))
    for r0, r1 in zip(levels[:-1], levels[1:]):
        lo, hi = ends[r0], ends[r1]
        heads = c[first[r0:r1]]
        via = np.minimum.reduceat(work[p[lo:hi]], first[r0:r1] - lo, axis=0)
        work[heads] = np.minimum(via, D[heads])
    return work.T


class _SourceRows:
    """d(x, I(a, c)) as one (n, n) int16 slab per source a, built on request.

    ``slab(a)[x, c]`` is d(x, I(a, c)) once ``need`` has been asked for a.
    The pruned pair scan reads few sources on some graphs (4 of 121 on the
    11x11 grid), so memory grows with the sources read, 2 n^2 bytes each,
    and ``need`` charges exactly that against ``budget_mb``.  The slabs one
    ``need`` call builds share one array, a page, so a gather makes one
    fancy index per page, not one per source.
    """

    def __init__(self, G: MetricGraph, budget_mb: float):
        self.G = G
        self.budget_mb = budget_mb
        self.pages: list[np.ndarray] = []
        self.page = np.full(G.n, -1)  # page of source a, -1 until built
        self.slot = np.zeros(G.n, dtype=np.intp)  # its slab within the page
        # directed edges (u, v), sorted by u
        self.u = np.repeat(np.arange(G.n), [len(nbrs) for nbrs in G.adj])
        self.v = np.fromiter((w for nbrs in G.adj for w in nbrs), dtype=np.intp, count=len(self.u))

    def slab(self, a: int) -> np.ndarray:
        return self.pages[self.page[a]][self.slot[a]]

    def need(self, best: int, *sources: np.ndarray) -> None:
        """Build the slabs of these sources that are not built yet, all within
        the budget, or raise with ``best``, the caller's delta so far."""
        n = self.G.n
        wanted = np.zeros(n, dtype=bool)
        for src in sources:
            wanted[src] = True
        todo = np.flatnonzero(wanted & (self.page < 0))
        if len(todo):
            built = sum(map(len, self.pages))
            after, progress = f"; delta >= {best} after {built} sources", {"best": Fraction(best), "sources": built}
            _check_budget("interval rows need", 2 * n**2 * (built + len(todo)) / 1e6, self.budget_mb, n, after, progress)
            D = self.G.dist.astype(np.int16)
            work = np.empty_like(D)
            page = np.empty((len(todo), *D.shape), dtype=np.int16)
            for j, a in enumerate(todo.tolist()):
                page[j] = _source_slab(D, self.u, self.v, a, work)
            self.page[todo] = len(self.pages)
            self.slot[todo] = np.arange(len(todo))
            self.pages.append(page)

    def gather(self, src: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Row x[i] of the slab of src[i], for every i: one fancy index per page."""
        page = self.page[src]
        used = np.flatnonzero(np.bincount(page, minlength=1))
        if len(used) == 1:  # the common case: no mask and no second copy
            return self.pages[used[0]][self.slot[src], x]
        out = np.empty((len(x), self.G.n), dtype=np.int16)
        for k in used.tolist():
            sel = page == k
            out[sel] = self.pages[k][self.slot[src[sel]], x[sel]]
        return out


@dataclass
class ThinnessWitness:
    a: int
    b: int
    c: int
    x: int
    defect: int


def _pairs_by_distance(D: np.ndarray, step: int):
    """Batches (k, a, b) of the pairs a < b with d(a, b) = k, k decreasing."""
    for k in range(int(D.max()), 0, -1):
        A, B = np.nonzero(np.triu(D == k))
        for i in range(0, len(A), step):
            yield k, A[i : i + step], B[i : i + step]


def _row_defects(rows: _SourceRows, a: np.ndarray, b: np.ndarray, x: np.ndarray, best: int) -> np.ndarray:
    """max over c of min(d(x, I(a, c)), d(x, I(b, c))), one value per row."""
    rows.need(best, a, b)
    out = np.empty(len(x), dtype=np.int16)
    step = max(1, BLOCK_CELLS // rows.G.n)
    for i in range(0, len(x), step):
        s = slice(i, i + step)
        # the a side stacked on the b side, gathered in one pass
        m = rows.gather(np.concatenate([a[s], b[s]]), np.tile(x[s], 2))
        half = len(m) // 2
        np.minimum(m[:half], m[half:], out=m[:half])
        out[s] = m[:half].max(axis=1)
    return out


def _blocks(G: MetricGraph) -> list[tuple[list[int], int]]:
    """(vertices in G's order, edge count) of each biconnected component of G.

    One iterative depth-first search (Tarjan, SIAM J. Comput. 1972): when
    the search returns from w to its parent v with low(w) >= disc(v), v cuts
    w's subtree off, and v with the vertices stacked since w is one block.
    Every edge joins a vertex to an ancestor, and it belongs to the block
    that pops its lower end.  A single vertex has no block.
    """
    disc, low, up = [-1] * G.n, [0] * G.n, [0] * G.n  # up: edges to ancestors
    disc[0], seen = 0, 1
    stack, blocks = [0], []
    # (v, its unread neighbours, the stack height below v)
    path = [(0, iter(G.adj[0]), 0)]
    while path:
        v, nbrs, _ = path[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                path.append((w, iter(G.adj[w]), len(stack)))
                stack.append(w)
                break
            low[v] = min(low[v], disc[w])
            up[v] += disc[w] < disc[v]
        else:
            _, _, height = path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    below = stack[height:]
                    blocks.append((sorted([u, *below]), sum(up[x] for x in below)))
                    del stack[height:]
    return blocks


def _scan_blocks(G: MetricGraph) -> list[tuple[int, list[int], MetricGraph]]:
    """(diameter, vertices in G's order, block) for every block of G that is
    not a clique, by decreasing diameter.

    delta of a connected graph is the largest delta of its blocks, for the
    Rips and the four-point constant alike (Cohen, Coudert and Lancin, "On
    computing the Gromov hyperbolicity", ACM JEA 2015), and a clique's is 0.
    A block is convex: a geodesic that left it through a cut vertex would
    come back through the same vertex.  So a block's distances are a slice
    of G.dist, its vertex i is G's V[i], and a block that spans G is G.
    """
    out = []
    for V, edges in _blocks(G):
        m = len(V)
        if 2 * edges == m * (m - 1):  # a clique: every defect is 0
            continue
        if m == G.n:
            B = G
        else:
            local = {v: i for i, v in enumerate(V)}
            B = MetricGraph.__new__(MetricGraph)
            B.n, B.dist = m, G.dist[np.ix_(V, V)]
            B.adj = [[local[w] for w in G.adj[v] if w in local] for v in V]
        out.append((int(B.dist.max()), V, B))
    out.sort(key=lambda block: -block[0])
    return out


def _rips_scan(G: MetricGraph, rows: _SourceRows, best: int) -> tuple[int, tuple[int, int] | None]:
    """(the largest defect of G, the first pair whose interval holds it) if
    it beats ``best``, else (``best``, None).

    Pairs (a, b) come by decreasing d(a,b), then lexicographically, and the
    scan stops once d(a,b)//2, a bound on the defect of any x in I(a,b),
    cannot beat the best found.
    """
    D, pair = G.dist, None
    for k, a, b in _pairs_by_distance(D, max(1, BLOCK_CELLS // G.n)):
        if k // 2 <= best:
            break
        # (pair, x) for every x in I(a, b) whose defect, at most
        # min(d(a,x), d(b,x)), could beat the best
        da, db = D[a], D[b]
        p, x = np.nonzero((da + db == k) & (np.minimum(da, db) > best))
        if len(x):
            defects = _row_defects(rows, a[p], b[p], x, best)
            i = int(defects.argmax())
            if defects[i] > best:
                best, pair = int(defects[i]), (int(a[p[i]]), int(b[p[i]]))
    return best, pair


def rips_delta(G: MetricGraph, budget_mb: float = DEFAULT_MATRIX_BUDGET_MB, witness: bool = False):
    """Exact interval-based Rips constant of the graph.

    delta = max over vertex triples (a,b,c) and x in I(a,b) of
    d(x, I(a,c) u I(b,c)), using metric intervals as the union of all
    geodesics.  It is the largest delta over G's biconnected components
    (blocks), so the pruned pair scan runs on each block that is not a
    clique, by decreasing diameter, and skips a block whose diameter//2
    cannot beat the best so far; a block graph (a tree, a path) is 0 with
    no scan.  The scan reads d(x, I(a,c)) from per-source int16 slabs of
    its block, each built by a level recursion over the BFS layers from its
    source the first time the scan reads that source, so memory grows with
    the sources read (4 of 121 on the 11x11 grid, 25 of the 26-vertex
    block of the ll:2 ball of radius 5).  Each slab is charged 2 m^2 bytes
    against budget_mb as it is built, m the block's size, and a block's
    slabs are released before the next block starts; one that would pass
    the budget raises ResourceExhausted with the best delta so far and the
    sources of that block built.

    With ``witness``, it also returns a ThinnessWitness from the first block
    in that order that attains delta, mapped back to G: the pair whose scan
    row raised the best to delta, with the first (c, x) in row-major order
    inside it, read from the two slabs the scan built for that row, so a
    witness builds no extra slab; (0, ThinnessWitness(0, 0, 0, 0, 0)) when
    every block is a clique.
    """
    best, wit = 0, ThinnessWitness(0, 0, 0, 0, 0)
    for diam, V, B in _scan_blocks(G):
        if diam // 2 <= best:
            break
        rows = _SourceRows(B, budget_mb)
        found, pair = _rips_scan(B, rows, best)
        if witness and pair:
            a, b = pair
            X = np.flatnonzero(B.interval(a, b))
            # defect of x in side [a,b] against corner c, laid out (c, x)
            m = np.minimum(rows.slab(a)[X], rows.slab(b)[X]).T
            c, xi = np.unravel_index(int(m.argmax()), m.shape)
            wit = ThinnessWitness(V[a], V[b], V[c], V[X[xi]], found)
        best = found
    return (Fraction(best), wit) if witness else Fraction(best)


def four_point_delta(G: MetricGraph) -> Fraction:
    """Gromov four-point condition: max defect / 2 over all quadruples.

    It is the largest over G's blocks that are not cliques, visited by
    decreasing diameter; a block graph (a tree, a path) is 0 with no scan.
    Within a block, the defect of a quadruple is at most min(d(a,b), d(c,d))
    for its pairing (a,b), (c,d) with the largest sum, so pairs are visited
    in order of decreasing d(a,b) and the scan stops once d(a,b) <= the best
    defect, which also skips every later block.  Each pair visited costs m^2
    cells, m its block's size; a scan whose cells, summed over blocks, would
    pass FOUR_POINT_MAX_CELLS raises ResourceExhausted with the best value
    so far and the pairs visited as its progress.
    """
    best = cells = visited = 0
    for diam, _, B in _scan_blocks(G):
        if diam <= best:
            break
        m, D = B.n, B.dist
        for k, a, b in _pairs_by_distance(D, max(1, BLOCK_CELLS // (m * m))):
            if k <= best:
                break
            if cells + len(a) * m * m > FOUR_POINT_MAX_CELLS:
                raise ResourceExhausted(
                    f"four-point scan needs more than {FOUR_POINT_MAX_CELLS:,} cells (|V| = {m}); "
                    f"delta >= {Fraction(best, 2)} after {visited} pairs",
                    progress={"best": Fraction(best, 2), "pairs": visited},
                )
            cells += len(a) * m * m
            visited += len(a)
            s1 = k + D  # d(a,b) + d(c,d) over (c, d)
            # d(a,c) + d(b,d) over (pair, c, d); its transpose is d(b,c) + d(a,d)
            s2 = D[a, :, None] + D[b, None, :]
            s3 = s2.transpose(0, 2, 1)
            hi, lo = np.maximum(s2, s3), np.minimum(s2, s3)
            # largest minus middle of (s1, s2, s3)
            np.maximum(lo, np.minimum(s1, hi), out=lo)
            np.maximum(hi, s1, out=hi)
            best = max(best, int((hi - lo).max()))
    return Fraction(best, 2)


@dataclass
class DistortionReport:
    n: int
    a: Fraction
    b: Fraction
    witness_a: tuple[int, int]
    witness_b: tuple[int, int]


def _require_walk(G: MetricGraph, walk: list[int], what: str) -> None:
    """Vertex ids in [0, n), each adjacent to the next."""
    for v in walk:
        if not 0 <= v < G.n:
            raise UsageError(f"vertex {v} out of range [0, {G.n})")
    for u, v in zip(walk, walk[1:]):
        if v not in G.adj[u]:
            raise UsageError(f"{what} vertices {u},{v} not adjacent")


def cycle_distortion(G: MetricGraph, cycle: list[int]) -> DistortionReport:
    """Optimal bi-Lipschitz constants of the cycle map C_n -> G.

    a = min over pairs of d_G / d_C, b = max; consecutive cycle vertices
    must be adjacent in G (so b <= 1) and all vertices distinct.
    """
    n = len(cycle)
    if n < 3:
        raise UsageError("cycle needs at least 3 vertices")
    if len(set(cycle)) != n:
        raise UsageError("cycle vertices must be distinct")
    _require_walk(G, [*cycle, cycle[0]], "cycle")
    amin = None
    bmax = None
    wit_a = wit_b = (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            dc = min(j - i, n - (j - i))
            dg = int(G.dist[cycle[i], cycle[j]])
            r = Fraction(dg, dc)
            if amin is None or r < amin:
                amin, wit_a = r, (i, j)
            if bmax is None or r > bmax:
                bmax, wit_b = r, (i, j)
    return DistortionReport(n=n, a=amin, b=bmax, witness_a=wit_a, witness_b=wit_b)


def cycle_contraction_bound(delta: float, n: float, b: float = 1.0) -> float:
    """The hyperbolic cycle-distortion bound (4 delta log2(b n) + 4 + 2b) / n."""
    if n < 1 or b < 1 or delta < 0:
        raise UsageError("need n >= 1, b >= 1, delta >= 0")
    return (4 * delta * math.log2(b * n) + 4 + 2 * b) / n


@dataclass
class PathAuditReport:
    max_defect: int
    bound: float
    delta: Fraction
    length: int

    @property
    def passes(self) -> bool:
        return self.max_defect <= self.bound + 1e-9


def geodesic_stability_check(G: MetricGraph, path: list[int], delta: Fraction) -> PathAuditReport:
    """Every interval point between the path's endpoints is close to the path.

    Checks max over y in I(x1, x2) of d(y, path) against delta*log2(len)+1.
    """
    if len(path) < 2:
        raise UsageError("path needs at least 2 vertices")
    _require_walk(G, path, "path")
    ell = len(path) - 1
    dp = G.dist_to_set(set(path))
    I = np.flatnonzero(G.interval(path[0], path[-1]))
    max_defect = int(dp[I].max())
    bound = float(delta) * math.log2(max(ell, 1)) + 1
    return PathAuditReport(max_defect=max_defect, bound=bound, delta=delta, length=ell)


# ---------------------------------------------------------------------------
# fat-cycle extraction
# ---------------------------------------------------------------------------


def min_cycle_length(delta) -> int:
    """max(1, delta // 15): where extraction cuts the fat side, and the least length its self-audit accepts."""
    return max(1, int(delta) // 15)


@dataclass
class FatCycleResult:
    cycle: list[int]
    report: DistortionReport
    delta: Fraction
    witness: ThinnessWitness
    discrete_slack: int = 2


def _path_concat(parts: list[list[int]]) -> list[int]:
    out: list[int] = []
    for p in parts:
        if out and out[-1] == p[0]:
            out.extend(p[1:])
        else:
            out.extend(p)
    return out


def _simple_cycle_from_walk(walk: list[int]) -> list[int]:
    """Loop-erase a closed walk, keeping the longest simple cycle found."""
    if walk and walk[0] == walk[-1]:
        walk = walk[:-1]
    best: list[int] = []
    pos: dict[int, int] = {}
    cur: list[int] = []
    for v in walk:
        if v in pos:
            loop = cur[pos[v]:]
            if len(loop) > len(best):
                best = list(loop)
            while len(cur) > pos[v] + 1:
                pos.pop(cur.pop())
        else:
            pos[v] = len(cur)
            cur.append(v)
    if len(cur) > len(best):
        best = cur
    return best


def extract_fat_cycle(G: MetricGraph, budget_mb: float = DEFAULT_MATRIX_BUDGET_MB) -> FatCycleResult:
    """Construct a long cycle of bounded distortion from a fattest triangle.

    Discrete adaptation of the thick-triangle-to-cycle argument: find the
    triangle maximizing the interval thinness defect D, walk its fat side to
    the two points at distance ~D/15 from the union of the other sides, and
    close the resulting quadrilateral through that union.  All continuity
    steps are replaced by stepping along vertex geodesics, so the sharp
    continuous-space constants hold only up to the declared discrete slack;
    the returned report carries the actual audited numbers, which are the
    only guarantees.

    The triangle is rips_delta's witness, which builds no slab beyond the
    scan's, so this raises ResourceExhausted on exactly the budgets
    rips_delta(G) does.
    """
    delta, wit = rips_delta(G, budget_mb, witness=True)
    if delta == 0:
        raise NotApplicable("graph is 0-thin (a tree-like interval structure)")
    D = wit.defect
    a, b, c, x = wit.a, wit.b, wit.c, wit.x
    # geodesic [a,b] through x (x lies on the interval, so this is geodesic)
    side_ab = list(reversed(G.geodesic(x, a)))[:-1] + G.geodesic(x, b)
    side_ac = G.geodesic(a, c)
    side_bc = G.geodesic(b, c)
    union = sorted(set(side_ac) | set(side_bc))
    du = G.dist_to_set(union)
    thr = min_cycle_length(D)
    xi = side_ab.index(x)
    # walk from x toward each endpoint until the distance to the union drops
    # to the threshold; the walk starts at distance D and the endpoints a and
    # b lie on the union, so both walks stop
    ia = next(i for i in range(xi, -1, -1) if du[side_ab[i]] <= thr)
    ib = next(i for i in range(xi, len(side_ab)) if du[side_ab[i]] <= thr)
    xa, xb = side_ab[ia], side_ab[ib]
    ya = union[int(np.argmin([G.dist[xa, u] for u in union]))]
    yb = union[int(np.argmin([G.dist[xb, u] for u in union]))]
    # quadrilateral xa -> xb along the fat side, then back through the union
    fat_part = side_ab[ia : ib + 1]
    walk = _path_concat(
        [
            fat_part,
            G.geodesic(xb, yb),
            _union_path(yb, ya, side_ac, side_bc, c),
            G.geodesic(ya, xa),
        ]
    )
    cycle = _simple_cycle_from_walk(walk)
    if len(cycle) < 3:
        raise NotApplicable("subdivision collapsed; no fat cycle at this scale")
    report = cycle_distortion(G, cycle)
    return FatCycleResult(cycle=cycle, report=report, delta=delta, witness=wit)


def _union_path(start, end, side_ac, side_bc, corner) -> list[int]:
    """A walk from start to end inside the union of the two control sides."""
    if start == end:
        return [start]
    for side in (side_ac, side_bc):
        if start in side and end in side:
            return _segment(side, start, end)
    # cross through the shared corner c
    first = side_ac if start in side_ac else side_bc
    second = side_ac if end in side_ac else side_bc
    return _path_concat([_segment(first, start, corner), _segment(second, corner, end)])


def _segment(path: list[int], start: int, end: int) -> list[int]:
    """The stretch of path from start to end, reversed if end comes first."""
    i, j = path.index(start), path.index(end)
    return path[i : j + 1] if i <= j else path[j : i + 1][::-1]
