"""Graphs, the Platonic catalog, constructions, and coloring verification.

Graphs are finite, undirected, simple and loop-free, stored as sorted
per-vertex neighbor tuples.  Besides the five Platonic edge graphs this
module carries the two constructions that realize any valid color
adjacency matrix:

  * a circulant k-regular graph on n vertices, which exists whenever
    n >= k + 1 and n k is even, and
  * a bipartite graph whose parts have sizes r and s and uniform degrees
    p and q, built greedily by joining u_a to w_{(a p + b) mod s} for
    b = 0 .. p-1, which exists whenever p <= s, q <= r and p r = q s.

build_witness glues the raw edge lists of these constructions per color
class and class pair, on the smallest class sizes compatible with the
matrix; the union is connected and comes back with its coloring.  The
class sizes meet both constructions' conditions, so the union is
wrapped as a Graph unvalidated, as cam._cam wraps kernel output.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index

from .cam import (ColorAdjacencyMatrix, _Value, _cam, _is_int, _load_json,
                  _ratios, entries_of)


class Graph(_Value):
    """An undirected simple graph on vertices 0 .. n-1."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n, adj):
        n = index(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = tuple(tuple(sorted(index(u) for u in nbrs))
                     for nbrs in adj)
        if len(rows) != n:
            raise ValueError("adjacency table must have one row per vertex")
        for v, nbrs in enumerate(rows):
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate neighbor at vertex {v}")
            for u in nbrs:
                row = rows[u]  # sorted: a binary search, not a scan
                at = bisect_left(row, v)
                if at == len(row) or row[at] != v:
                    raise ValueError(f"edge {v}-{u} missing its reverse")
        self._set(n, rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph with these edges; loops and repeated edges are
        rejected by the constructor's checks."""
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls(n, nbrs)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        return [(v, u) for v in range(self.n) for u in self.adj[v] if v < u]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[self._vertex(v)])

    def regularity(self) -> int | None:
        """The common degree k if the graph is regular, else None."""
        degrees = {len(nbrs) for nbrs in self.adj}
        return degrees.pop() if len(degrees) == 1 else None

    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(1 if u in nbrs else 0 for u in range(self.n))
                     for nbrs in self.adj)

    def bfs_order(self, start: int = 0) -> list[int]:
        """Vertices reachable from start, in breadth-first order."""
        start = self._vertex(start)
        seen = [False] * self.n
        seen[start] = True
        order = [start]
        for v in order:
            for u in self.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
        return order

    def component(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.bfs_order(v)))

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.bfs_order(0)) == self.n

    def induced(self, vertices) -> "Graph":
        """Subgraph on the given vertices, relabeled in their sorted order."""
        keep = sorted({self._vertex(v) for v in vertices})
        relabel = {old: new for new, old in enumerate(keep)}
        rows = tuple(tuple(relabel[u] for u in self.adj[old] if u in relabel)
                     for old in keep)
        return Graph(len(keep), rows)

    def _vertex(self, v) -> int:
        v = index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v


class Coloring(_Value):
    """Colors 1..m assigned to vertices 0..n-1, every color used."""

    assignment: tuple[int, ...]
    m: int

    def __init__(self, assignment, m):
        seq = tuple(index(c) for c in assignment)
        m = index(m)
        if m < 1:
            raise ValueError("need at least one color")
        used = set(seq)
        if not used:
            raise ValueError("coloring must cover at least one vertex")
        if min(used) < 1 or max(used) > m:
            raise ValueError(f"colors must lie in 1..{m}")
        if len(used) < m:  # used lies in 1..m, so some color is missing
            missing = next(c for c in range(1, m + 1) if c not in used)
            raise ValueError(f"color {missing} is unused")
        self._set(seq, m)

    def class_sizes(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for c in self.assignment:
            counts[c - 1] += 1
        return tuple(counts)


# ------------------------------------------------------------------ catalog

def platonic(name: str) -> Graph:
    """The edge graph of a Platonic solid.

    Accepted names: tetrahedron, cube, octahedron, dodecahedron,
    icosahedron.  Vertex counts and degrees are (4,3), (8,3), (6,4),
    (20,3), (12,5).
    """
    try:
        return PLATONIC_BUILDERS[name.strip().lower()]()
    except KeyError:
        raise ValueError(f"unknown Platonic solid: {name!r}") from None


def _tetrahedron() -> Graph:
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def _cube() -> Graph:
    edges = [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
    return Graph.from_edges(8, edges)


def _octahedron() -> Graph:
    # three antipodal pairs {0,1}, {2,3}, {4,5}; all cross edges
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2]
    return Graph.from_edges(6, edges)


def _dodecahedron() -> Graph:
    # generalized Petersen graph GP(10, 2): outer 10-cycle 0..9,
    # spokes to 10..19, inner vertices joined at step 2
    edges = []
    for i in range(10):
        edges.append((i, (i + 1) % 10))
        edges.append((i, 10 + i))
        edges.append((10 + i, 10 + (i + 2) % 10))
    return Graph.from_edges(20, edges)


def _icosahedron() -> Graph:
    # two apexes capping a pentagonal antiprism: apex 0 over cycle 1..5,
    # apex 11 under cycle 6..10
    edges = []
    for t in range(5):
        upper = 1 + t
        lower = 6 + t
        edges.append((0, upper))
        edges.append((11, lower))
        edges.append((upper, 1 + (t + 1) % 5))
        edges.append((lower, 6 + (t + 1) % 5))
        edges.append((upper, lower))
        edges.append((upper, 6 + (t + 4) % 5))
    return Graph.from_edges(12, edges)


PLATONIC_BUILDERS = {
    "tetrahedron": _tetrahedron,
    "cube": _cube,
    "octahedron": _octahedron,
    "dodecahedron": _dodecahedron,
    "icosahedron": _icosahedron,
}


# ------------------------------------------------------------ constructions

def construct_regular(n: int, k: int) -> Graph:
    """A k-regular graph on n vertices: the circulant C_n(1..k/2 [, n/2]).

    Offsets 1 .. floor(k/2) give two neighbors each; odd k adds the
    antipodal offset n/2 (n is even then, since n k must be even).
    Raises ValueError when n < k + 1 or n k is odd, the exact conditions
    under which no k-regular graph on n vertices exists.
    """
    n, k = index(n), index(k)
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if n < k + 1:
        raise ValueError(f"no {k}-regular graph on {n} vertices: need n >= k+1")
    if (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices: n*k is odd")
    return Graph.from_edges(n, _circulant_edges(n, k))


def _circulant_edges(n: int, k: int) -> list[tuple[int, int]]:
    """The edges of construct_regular(n, k), arguments unchecked."""
    edges = [(v, (v + o) % n) for o in range(1, k // 2 + 1) for v in range(n)]
    if k % 2:
        edges += [(v, v + n // 2) for v in range(n // 2)]
    return edges


def construct_biregular(p: int, q: int, r: int, s: int) -> Graph:
    """A bipartite graph, parts of sizes r and s, uniform degrees p and q.

    Vertices 0..r-1 form the degree-p part, r..r+s-1 the degree-q part.
    For positive p, q the edges are u_a to w_{(a p + b) mod s} for
    0 <= a < r, 0 <= b < p: the p r endpoint indices a p + b run through
    0 .. p r - 1 exactly once, so modulo s every w-vertex is hit exactly
    p r / s = q times, and within one u_a the p indices are distinct
    because p <= s.

    Args:
        p: degree in the first part.
        q: degree in the second part.
        r: size of the first part.
        s: size of the second part.

    Raises:
        ValueError: if p > s or q > r (balanced degrees make these one
            condition), p*r != q*s, or exactly one of p, q is zero.
    """
    p, q, r, s = (index(x) for x in (p, q, r, s))
    if min(p, q, r, s) < 0:
        raise ValueError("arguments must be nonnegative")
    if (p == 0) != (q == 0):
        raise ValueError("degrees p and q must be zero together")
    if p * r != q * s:
        raise ValueError(f"part degrees do not balance: {p}*{r} != {q}*{s}")
    if p > s:  # balanced degrees with q > r have p > s too
        raise ValueError(f"degree p={p} exceeds opposite part size s={s}")
    edges = [(u, r + w) for u, w in _biregular_edges(p, r, s)]
    return Graph.from_edges(r + s, edges)


def _biregular_edges(p: int, r: int, s: int) -> list[tuple[int, int]]:
    """The edges of construct_biregular(p, p r / s, r, s) as (u, w) pairs
    of indices into the first and the second part, arguments unchecked."""
    return [(a, (a * p + b) % s) for a in range(r) for b in range(p)]


def minimal_class_sizes(A) -> tuple[int, ...]:
    """Smallest class sizes of any perfect coloring with matrix A.

    Scales the ratio vector by the least t whose sizes meet the class-size
    rule of _sizes_fit.  Any perfect coloring with matrix A, on any simple
    graph, has sizes lam v with lam meeting it (see build_witness), so
    lam >= t.
    """
    return _minimal_sizes(entries_of(A))


def _minimal_sizes(a) -> tuple[int, ...]:
    ratios = _ratios(a)
    # t v_i >= a_ji for all i, j; s_i > a_ii by t + 1, an even t by t + 2
    t = max(-(-top // v) for top, v in zip(map(max, zip(*a)), ratios))
    while not _sizes_fit(a, [t * x for x in ratios]):
        t += 1
    return tuple(t * x for x in ratios)


def _sizes_fit(a, sizes) -> bool:
    """The class-size rule: whether a perfect coloring with matrix a on a
    simple graph can have these class sizes.  A vertex of class j has a_ji
    distinct neighbors in class i, none of them itself, so s_i >= a_ji +
    [i = j]; class i induces an a_ii-regular graph, so a_ii s_i is even."""
    return all(s > a[i][i] and not a[i][i] * s % 2
               and all(row[i] <= s for row in a)
               for i, s in enumerate(sizes))


def build_witness(A) -> tuple[Graph, Coloring]:
    """A perfect coloring realizing a valid matrix, on a connected graph.

    Classes occupy contiguous vertex blocks sized by minimal_class_sizes:
    an a_ii-regular circulant inside class i, an (a_ij, a_ji)-biregular
    graph between classes i and j.  The union is connected: each of its
    components K is a perfect coloring with matrix A, so counting edges
    gives a_ij |K&C_i| = a_ji |K&C_j|, and as the color graph is
    connected, |K&C_i| = lam v_i for the coprime ratios v and an integer
    lam >= 1 (Bezout).  These sizes meet the class-size rule of
    _sizes_fit, K being a perfect coloring on a simple graph, so lam >= t
    for the t of minimal_class_sizes.  The lam of all components sum to
    t, so there is one component.  Minimality matters: at twice these
    sizes some unions fall apart.
    """
    a = entries_of(A)
    m = len(a)
    sizes = _minimal_sizes(a)
    offsets = [sum(sizes[:i]) for i in range(m + 1)]
    nbrs: list[list[int]] = [[] for _ in range(offsets[-1])]
    for i in range(m):
        for j in range(i, m):
            oi, oj = offsets[i], offsets[j]
            pairs = (_circulant_edges(sizes[i], a[i][i]) if i == j else
                     _biregular_edges(a[i][j], sizes[i], sizes[j]))
            for u, w in pairs:
                nbrs[oi + u].append(oj + w)
                nbrs[oj + w].append(oi + u)
    graph = object.__new__(Graph)
    graph._set(len(nbrs), tuple(tuple(sorted(row)) for row in nbrs))
    colors = tuple(i + 1 for i in range(m) for _ in range(sizes[i]))
    return graph, Coloring(colors, m)


def verify_coloring(G: Graph, coloring) -> ColorAdjacencyMatrix | None:
    """The color adjacency matrix of a coloring, or None if not perfect.

    Accepts a Coloring or a plain sequence of colors 1..m (m inferred as
    the maximum).  Raises ValueError when the assignment length differs
    from the vertex count or some color in 1..m is unused.
    """
    col = _as_coloring(coloring)
    if len(col.assignment) != G.n:
        raise ValueError(f"coloring covers {len(col.assignment)} vertices, "
                         f"graph has {G.n}")
    m = col.m
    assign = col.assignment
    rows: list[list[int] | None] = [None] * m
    for v in range(G.n):
        counts = [0] * m
        for u in G.adj[v]:
            counts[assign[u] - 1] += 1
        i = assign[v] - 1
        if rows[i] is None:
            rows[i] = counts
        elif rows[i] != counts:
            return None
    return _cam(tuple(map(tuple, rows)))


def _as_coloring(coloring) -> Coloring:
    if isinstance(coloring, Coloring):
        return coloring
    seq = tuple(index(c) for c in coloring)
    return Coloring(seq, max(seq, default=0))


# -------------------------------------------------------------------- I/O

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: a vertex-count line, then `u v` lines.

    Blank lines and `#` comments are skipped.  Vertices are 0-indexed.
    Loops, duplicate edges, and out-of-range endpoints are rejected with
    the offending line number.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            try:  # a count takes no sign
                if len(fields) != 1 or fields[0].startswith("-"):
                    raise ValueError
                n = _integer(fields[0])
            except ValueError:
                raise ValueError(f"line {lineno}: expected the vertex count") from None
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected an edge 'u v'")
        try:
            u, v = map(_integer, fields)
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise ValueError("empty document: missing the vertex count line")
    return Graph.from_edges(n, edges)


def _integer(text: str) -> int:
    """text as an int if it is ASCII digits after an optional '-', else
    ValueError; int() also reads '1_0', '+3', ' 4 ' and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def emit_edge_list(G: Graph, coloring: Coloring | None = None) -> str:
    """The inverse of parse_graph; an optional coloring rides in comments."""
    lines = [str(G.n)] + [f"{u} {v}" for u, v in G.edges()]
    if coloring is not None:
        if len(coloring.assignment) != G.n:
            raise ValueError("coloring does not match the vertex count")
        lines.insert(0, "# colors: " + " ".join(str(c) for c in coloring.assignment))
    return "\n".join(lines) + "\n"


_DOT_FILL = {1: "white", 2: "black", 3: "red", 4: "green"}


def emit_dot(G: Graph, coloring: Coloring | None = None) -> str:
    """A DOT document for the graph, colored when a coloring is given.

    Colors 1 to 4 are drawn white, black, red and green; any further
    color falls back to gray.
    """
    if coloring is not None and len(coloring.assignment) != G.n:
        raise ValueError("coloring does not match the vertex count")
    lines = ["graph G {", "  node [shape=circle, style=filled];"]
    for v in range(G.n):
        if coloring is None:
            lines.append(f"  {v} [fillcolor=\"lightgray\"];")
        else:
            c = coloring.assignment[v]
            fill = _DOT_FILL.get(c, "gray")
            font = " fontcolor=\"white\"" if fill == "black" else ""
            lines.append(f"  {v} [fillcolor=\"{fill}\"{font}];")
    for u, v in G.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(G: Graph) -> dict:
    """A JSON-ready mapping {"n": ..., "edges": [[u, v], ...]}."""
    return {"n": G.n, "edges": [[u, v] for u, v in G.edges()]}


def graph_from_json(document) -> Graph:
    """Rebuild a graph from graph_to_json output (mapping or JSON text).

    Raises ValueError, naming the problem, unless n is a nonnegative
    integer and every edge is a pair of integers.
    """
    obj = (_load_json(document, "not a graph") if isinstance(document, str)
           else document)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("expected an object with 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if not _is_int(n) or n < 0:
        raise ValueError("'n' must be a nonnegative integer")
    if not isinstance(edges, (list, tuple)):
        raise ValueError("'edges' must be an array of [u, v] pairs")
    for i, e in enumerate(edges):
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and _is_int(e[0]) and _is_int(e[1])):
            raise ValueError(f"edge {i} is not a pair of integers [u, v]")
    return Graph.from_edges(n, [tuple(e) for e in edges])
