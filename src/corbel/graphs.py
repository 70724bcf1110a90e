"""Labeled simple graphs on vertices 1..n: construction, queries, enumeration.

Vertices are contiguous 1-based labels throughout, and a vertex set is a
mask with bit v for vertex v.  Operations that delete vertices relabel the
result back onto 1..k and return the old-to-new label map, so variable
orders built on top of the labels stay well defined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapError, InputError, ParseError

# Connected graphs up to isomorphism on 1..7 vertices.
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853)
# The largest order enumerate_connected_graphs builds.
ENUMERATION_CAP = 7


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on 1..n, stored as neighbour masks.

    ``adj[v]`` has bit w set for each neighbour w of v; ``adj[0]`` is 0, so
    no mask has bit 0 set.
    """

    n: int
    adj: tuple[int, ...]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) pairs with u < v, sorted."""
        # the shifts keep the bits above u at the cost of adj[u] alone
        return [(u, v) for u in self.vertices() for v in bits(self.adj[u] >> u + 1 << u + 1)]

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def is_complete(self) -> bool:
        return self.num_edges() == self.n * (self.n - 1) // 2

    def _check_vertex(self, v: int) -> None:
        if not (type(v) is int and 1 <= v <= self.n):
            raise InputError(f"vertex {v!r} is not in 1..{self.n}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first: the vertices of a vertex mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph on 1..n from an iterable of (i, j) pairs."""
    # type(x) is int: a bool, such as JSON's true, is not a vertex count or label
    if not (type(n) is int and n >= 0):
        raise InputError(f"vertex count must be a nonnegative integer, got {n!r}")
    adj = [0] * (n + 1)
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} is not a pair") from None
        if not (type(i) is int and type(j) is int):
            raise InputError(f"edge {e!r} has non-integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InputError(f"edge {e!r} leaves the vertex range 1..{n}")
        if i == j:
            raise InputError(f"loop at vertex {i} is not allowed")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def from_json_dict(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError("graph JSON must be an object with 'n' and 'edges' keys")
    if not isinstance(obj["edges"], list):
        raise InputError(f"graph JSON 'edges' must be a list, got {obj['edges']!r}")
    return from_edge_list(obj["n"], obj["edges"])


# ---------------------------------------------------------------------------
# graph6 format

def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (single trailing newline tolerated)."""
    data = text
    if data.endswith("\n"):
        data = data[:-1]
    if data.endswith("\r"):
        data = data[:-1]
    if not data:
        raise ParseError("empty graph6 input", offset=0)
    vals = []
    for pos, ch in enumerate(data):
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise ParseError(f"character {ch!r} outside graph6 range", offset=pos)
        vals.append(code)
    if vals[0] < 63:
        n = vals[0]
        idx = 1
    elif len(vals) >= 2 and vals[1] < 63:
        if len(vals) < 4:
            raise ParseError("truncated graph6 size field", offset=len(data))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        idx = 4
    else:
        if len(vals) < 8:
            raise ParseError("truncated graph6 size field", offset=len(data))
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        idx = 8
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(vals) - idx < nbytes:
        raise ParseError("truncated graph6 adjacency data", offset=len(data))
    if len(vals) - idx > nbytes:
        raise ParseError("trailing data after adjacency bits", offset=idx + nbytes)
    edges = []
    t = 0
    # column-major upper triangle, big-endian bits inside each 6-bit group
    for j in range(2, n + 1):
        for i in range(1, j):
            bit = (vals[idx + t // 6] >> (5 - t % 6)) & 1
            if bit:
                edges.append((i, j))
            t += 1
    # padding bits must be zero
    while t < 6 * nbytes:
        if (vals[idx + t // 6] >> (5 - t % 6)) & 1:
            raise ParseError("nonzero padding bit", offset=idx + t // 6)
        t += 1
    return from_edge_list(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (n up to 258047)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise CapError("graph6 writer supports at most 258047 vertices", size=n, cap=258047)
    flags = [g.adj[j] >> i & 1 for j in range(2, n + 1) for i in range(1, j)]
    while len(flags) % 6:
        flags.append(0)
    body = []
    for k in range(0, len(flags), 6):
        val = 0
        for b in flags[k:k + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


# ---------------------------------------------------------------------------
# elementary operations

def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Induced subgraph on the vertex mask ``keep``, relabeled 1..|keep| in label order."""
    full = (2 << g.n) - 2
    # a negative mask, like one with bits outside 1..n, is not inside full
    if not (type(keep) is int and keep | full == full):
        raise InputError(f"vertex mask {keep!r} is not a set of vertices in 1..{g.n}")
    old = bits(keep)
    label = {v: new for new, v in enumerate(old, start=1)}
    adj = [sum(1 << label[w] for w in bits(g.adj[v] & keep)) for v in old]
    return Graph(len(old), (0, *adj))


def g_v_operation(g: Graph, v: int) -> Graph:
    """Complete the neighborhood of v, keeping all labels."""
    g._check_vertex(v)
    nbrs = g.adj[v]
    adj = list(g.adj)
    for w in bits(nbrs):
        adj[w] |= nbrs ^ 1 << w
    return Graph(g.n, tuple(adj))


def is_free_vertex(g: Graph, v: int) -> bool:
    """True when the neighborhood of v induces a clique."""
    g._check_vertex(v)
    nbrs = g.adj[v]
    return all(nbrs & ~g.adj[w] == 1 << w for w in bits(nbrs))


def non_free_vertices(g: Graph) -> int:
    """Vertex mask of the vertices whose neighborhood is not a clique."""
    return sum(1 << v for v in g.vertices() if not is_free_vertex(g, v))


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Vertex masks of the connected components, ordered by lowest member.

    With ``within``, a vertex mask, the components of the subgraph induced
    on those vertices, which keep their labels.
    """
    left = (2 << g.n) - 2 if within is None else within
    parts = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for u in bits(frontier):
                reach |= g.adj[u]
            frontier = reach & left & ~comp
            comp |= frontier
        left ^= comp
        parts.append(comp)
    return parts


def ncomponents(g: Graph) -> int:
    return len(connected_components(g))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or ncomponents(g) == 1


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union with h's labels shifted above g's."""
    edges = g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()]
    return from_edge_list(g.n + h.n, edges)


# ---------------------------------------------------------------------------
# isomorphism and enumeration

def _min_edge_mask(adj) -> int:
    """The minimal edge mask of the graph with these neighbour masks; see canonical_form."""
    by_degree: dict[int, int] = {}
    for v in range(1, len(adj)):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    # a state is the ordered partition of the unlabeled vertices into cells,
    # lowest labels first; each cell owns the next block of labels
    frontier = {tuple(by_degree[d] for d in sorted(by_degree, reverse=True))}
    mask = 0
    for k in range(len(adj) - 1, 1, -1):
        best = -1
        survivors: set[tuple[int, ...]] = set()
        for cells in frontier:
            top = cells[-1]
            tried: list[int] = []
            rest = top
            while rest:
                bit = rest & -rest
                rest ^= bit
                row = adj[bit.bit_length() - 1]
                # swapping two twins in one cell is an automorphism that
                # fixes the partition, so both choices give the same subtree
                if any((row ^ adj[t.bit_length() - 1]) & ~(bit | t) == 0 for t in tried):
                    continue
                tried.append(bit)
                column = 0
                low = 0
                split: list[int] = []
                for cell in cells[:-1] + (top ^ bit,):
                    if not cell:
                        continue
                    inside = cell & row
                    column |= ((1 << inside.bit_count()) - 1) << low
                    low += cell.bit_count()
                    if inside:
                        split.append(inside)
                    if inside != cell:
                        split.append(cell ^ inside)
                if best < 0 or column < best:
                    best = column
                    survivors = set()
                if column == best:
                    survivors.add(tuple(split))
        frontier = survivors
        # columns 2..k-1 hold 1 + 2 + ... + (k-2) bits below column k
        mask |= best << ((k - 1) * (k - 2) // 2)
    return mask


def canonical_form(g: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key: (n, minimal edge mask over relabelings).

    The mask of a labeling sets bit ``(b-1)(b-2)/2 + (a-1)`` for each edge
    ab with a < b, so column b (the edges from label b down to smaller
    labels) is more significant the higher b is.  The minimum runs over the
    labelings that give the smallest labels to the highest degrees; any
    isomorphism preserves degrees, so the key is invariant.

    The minimum is found one column at a time, from label n down.  The
    vertex at label k comes from the cell of unlabeled vertices that owns
    label k.  Once it is chosen, its column is smallest exactly when each
    cell below lists its neighbours before the rest, because cells own
    disjoint blocks of labels and a block's bits are smallest with its ones
    at the bottom.  So the column is known as soon as the vertex is, and
    the labelings that still reach the minimum are those consistent with
    the split cells.  Each level keeps only the partitions whose column is
    minimal, tries one vertex of each set of twins, and merges equal
    partitions, since what lies below depends only on the partition.
    """
    return (g.n, _min_edge_mask(g.adj))


def enumerate_connected_graphs(max_n: int):
    """Yield one representative per isomorphism class of connected graphs.

    Covers all orders 1..max_n, smaller orders first.  Each order extends
    every representative of the order below by a new top vertex with each
    nonempty neighbourhood, keeps the first candidate of each canonical
    form, and yields them sorted by that form, so the stream is
    deterministic.  Candidates are bare neighbour-mask tuples; a Graph is
    built only for the representatives.  The size is checked at the call,
    before any graph is built: a max_n that is not an int of at least 1 is
    an InputError, and one above ENUMERATION_CAP is a CapError.
    """
    if not (isinstance(max_n, int) and max_n >= 1):
        raise InputError(f"max_n must be an int of at least 1, got {max_n!r}")
    if max_n > ENUMERATION_CAP:
        raise CapError(
            f"connected graph enumeration capped: max_n {max_n} > {ENUMERATION_CAP}",
            size=max_n,
            cap=ENUMERATION_CAP,
        )
    return _iter_connected_graphs(max_n)


def _iter_connected_graphs(max_n: int):
    reps: list[tuple[int, ...]] = [(0, 0)]
    yield Graph(1, reps[0])
    for n in range(2, max_n + 1):
        new = 1 << n
        seen: dict[int, tuple[int, ...]] = {}
        for base in reps:
            # every connected graph arises from a connected one by adding a
            # vertex with a nonempty neighborhood (delete a non-cut vertex)
            for mask in range(2, new, 2):
                grown = (row | new if mask >> v & 1 else row for v, row in enumerate(base))
                adj = (*grown, mask)
                seen.setdefault(_min_edge_mask(adj), adj)
        reps = [seen[k] for k in sorted(seen)]
        for adj in reps:
            yield Graph(n, adj)


def parse_graph_name(name: str) -> tuple[str, int]:
    """(kind, n) for a graph_from_name name, with no graph built.

    kind is "k", "p" or "c", or "" for n isolated vertices; n is the order.
    """
    s = name.strip().lower()
    try:
        if s.endswith("k1") and len(s) > 2 and s[:-2].isdigit():
            kind, num = "", s[:-2]
        else:
            kind, num = s[0], s[1:]
        n = int(num)
        if n < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise InputError(f"unknown graph name {name!r}") from None
    if kind not in ("", "k", "p", "c"):
        raise InputError(f"unknown graph name {name!r}")
    if kind == "c" and n < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {name!r}")
    return kind, n


def graph_from_name(name: str) -> Graph:
    """Small named graphs: k<n>, p<n>, c<n>, and <m>k1 for m isolated vertices."""
    kind, n = parse_graph_name(name)
    if kind == "k":
        return from_edge_list(n, itertools.combinations(range(1, n + 1), 2))
    if kind == "p":
        return from_edge_list(n, [(i, i + 1) for i in range(1, n)])
    if kind == "c":
        return from_edge_list(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])
    return from_edge_list(n, [])
