"""Simple undirected graphs and the exact search routines everything else uses.

Vertices are dense integer indices 0..n-1. A vertex set passed between
functions is an int bitmask (bit v for vertex v), checked by ``vertex_mask``;
paths and edges are vertex tuples. Graphs are immutable after construction
and every operation here is a pure function, which makes values safe to share
across concurrent workers.

All searches are exact and refuse (with CapacityError) instances above their
documented limits instead of ever returning an approximate answer.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CapacityError, GraphParseError

Edge = tuple[int, int]

#: largest vertex count accepted by the exact independence search
INDEPENDENCE_LIMIT = 40
#: largest vertex count accepted by the exhaustive longest-path search
LONGEST_PATH_LIMIT = 18
#: most branching steps (DFS nodes with two or more extensions) one
#: longest-path search may take; the count, not the clock, decides, so a
#: refusal is the same on every host and at any worker count
LONGEST_PATH_STEPS = 1 << 20
#: largest vertex count a graph file may declare; checked before any
#: per-vertex allocation. Far above every exact routine's limit, and low
#: enough that a graph's n adjacency masks, up to n bits each, stay small
DECLARED_VERTEX_LIMIT = 1 << 10


def norm_edge(u: int, v: int) -> Edge:
    """Unordered edge as an ordered pair."""
    return (u, v) if u < v else (v, u)


def vertex_mask(g: Graph, mask: int | None) -> int:
    """``mask`` checked as a vertex set of g; all of g when None.

    Anything but an int, such as a set of vertices, raises TypeError. A
    negative mask, or one with a bit at n or above, raises ValueError; the
    check reads ``bit_length`` only, so it never shifts or copies the mask.
    """
    if mask is None:
        return g.full_mask
    if not isinstance(mask, int):
        raise TypeError(f"a vertex set is an int bitmask, not {type(mask).__name__}")
    if mask < 0 or mask.bit_length() > g.n:
        raise ValueError(f"vertex mask has a bit outside 0..{g.n - 1}")
    return mask


def bits(mask: int):
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(NamedTuple):
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj_bits[v]`` is the bitmask of v's neighbors, derived from ``edges``
    at construction time; it is the graph's only adjacency.
    """

    n: int
    edges: tuple[Edge, ...]
    adj_bits: tuple[int, ...]

    @classmethod
    def build(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normed: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            normed.add(norm_edge(u, v))
        edge_tuple = tuple(sorted(normed))
        adj_bits = [0] * n
        for u, v in edge_tuple:
            adj_bits[u] |= 1 << v
            adj_bits[v] |= 1 << u
        return cls(n=n, edges=edge_tuple, adj_bits=tuple(adj_bits))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# parsing / serialization


def _header_count(token: str, lineno: int, what: str) -> int:
    """Non-negative integer from a header token; ``what`` names it."""
    try:
        k = int(token)
    except ValueError:
        raise GraphParseError(f"line {lineno}: {what} {token!r} is not an integer") from None
    if k < 0:
        raise GraphParseError(f"line {lineno}: {what} must be non-negative")
    return k


def _declared_count(token: str, lineno: int) -> int:
    """Vertex count from a header token, in 0..DECLARED_VERTEX_LIMIT."""
    n = _header_count(token, lineno, "vertex count")
    if n > DECLARED_VERTEX_LIMIT:
        raise GraphParseError(
            f"line {lineno}: vertex count {n} exceeds the limit of {DECLARED_VERTEX_LIMIT}"
        )
    return n


def load_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    A header line ``n <count>`` fixes the vertex count and must precede all
    edges; every other significant line is ``u v``. ``#`` starts a comment,
    blank lines are skipped, duplicate edges collapse.
    """
    return _edge_list(text.splitlines())


def _edge_list(lines) -> Graph:
    """``load_edge_list`` over an iterable of lines."""
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphParseError(f"line {lineno}: duplicate vertex-count header")
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n <count>'")
            n = _declared_count(parts[1], lineno)
            continue
        if n is None:
            raise GraphParseError(f"line {lineno}: edge before the 'n <count>' header")
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        edges.add(norm_edge(u, v))
    if n is None:
        raise GraphParseError("missing 'n <count>' header")
    return Graph.build(n, edges)


def load_dimacs(text: str) -> Graph:
    """Parse DIMACS: ``c`` comments, one ``p edge <n> <m>`` line, ``e u v``
    lines with 1-based vertices (converted to 0-based). ``m`` must be a
    non-negative integer but need not match the edge lines, since duplicate
    edges collapse."""
    return _dimacs(text.splitlines())


def _dimacs(lines) -> Graph:
    """``load_dimacs`` over an iterable of lines."""
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"line {lineno}: expected 'p edge <n> <m>'")
            n = _declared_count(parts[2], lineno)
            _header_count(parts[3], lineno, "edge count")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
            edges.add(norm_edge(u - 1, v - 1))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphParseError("missing 'p edge <n> <m>' line")
    return Graph.build(n, edges)


def _parse_lines(lines) -> Graph:
    """Parse ``lines`` in one pass, holding only those up to the first significant one."""
    lines, head, parse = iter(lines), [], _edge_list
    for raw in lines:
        head.append(raw)
        line = raw.strip()
        if line and not line.startswith("#"):
            if line.split()[0] in ("p", "c", "e"):
                parse = _dimacs
            break
    return parse(itertools.chain(head, lines))


def load_graph_text(text: str) -> Graph:
    """Parse a graph file, detecting the format from its first significant line."""
    return _parse_lines(text.splitlines())


def _file_lines(fh):
    """The lines of the UTF-8 text in binary file ``fh``, as ``str.splitlines()``
    splits it; a line ends in ``\\n``, never inside a character, so it decodes alone."""
    offset = 0
    for raw in fh:
        try:
            yield from raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            start, end = offset + exc.start, offset + exc.end
            where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if end - start == 1
                     else f"bytes in position {start}-{end - 1}")
            raise GraphParseError(f"'utf-8' codec can't decode {where}: {exc.reason}") from None
        offset += len(raw)


def read_graph_file(path) -> Graph:
    """Parse the graph file at ``path`` as ``load_graph_text`` parses its text, a line at a
    time; a parse error, or a byte that is not UTF-8, raises GraphParseError naming the file."""
    try:
        with open(path, "rb") as fh:
            return _parse_lines(_file_lines(fh))
    except GraphParseError as exc:
        raise GraphParseError(f"{path}: {exc}") from None


def to_edge_list(g: Graph, comments: tuple[str, ...] = ()) -> str:
    """Render ``g`` in the edge-list format (round-trips through
    load_edge_list); each line of a comment becomes its own ``#`` line."""
    lines = [f"# {line}" for c in comments for line in c.splitlines()]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact parameters


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(a.bit_count() for a in g.adj_bits)


def _greedy_independent(adj_bits, mask: int) -> int:
    """Size of the independent set found by repeatedly taking a
    minimum-degree vertex of the remaining induced subgraph, the lowest-index
    one on ties."""
    size = 0
    remaining = mask
    while remaining:
        low_deg = remaining.bit_count()
        rest = remaining
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            d = (adj_bits[u] & remaining).bit_count()
            if d < low_deg:
                low_deg, v = d, u
            rest ^= low
        size += 1
        remaining &= ~(adj_bits[v] | (1 << v))
    return size


def independence_number(g: Graph, mask: int | None = None) -> int:
    """alpha(G[mask]) (of g when None).

    Exact branch and bound: branch on a highest-degree vertex of the
    candidate set (in, then out of the set), prune with the trivial size
    bound, seed with the min-degree greedy count of
    ``_greedy_independent``. Guaranteed correct for every instance it
    accepts; instances above INDEPENDENCE_LIMIT vertices raise
    CapacityError, and ``vertex_mask`` checks ``mask``.
    """
    mask = vertex_mask(g, mask)
    if mask.bit_count() > INDEPENDENCE_LIMIT:
        raise CapacityError(
            f"independence search limited to {INDEPENDENCE_LIMIT} vertices, got {mask.bit_count()}"
        )
    adj = g.adj_bits
    best = _greedy_independent(adj, mask)

    def expand(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        top = -1
        rest = cand
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            d = (adj[u] & cand).bit_count()
            if d > top:
                top, v, bit = d, u, low
            rest ^= low
        expand(cand & ~(adj[v] | bit), size + 1)
        expand(cand & ~bit, size)

    expand(mask, 0)
    return best


def component_masks(adj_bits, mask: int):
    """Bitmasks of the connected components of ``mask``, by smallest member:
    each grows from the lowest vertex left, one frontier at a time."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj_bits[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~comp
            comp |= frontier
        yield comp
        mask ^= comp


def longest_path(g: Graph, mask: int | None = None) -> tuple[int, ...]:
    """The lexicographically smallest path (distinct vertices, consecutive
    adjacent) among those of G[mask] (of g when None) with the most vertices.

    Exhaustive DFS from every start vertex in ascending order, extending by
    ascending neighbor, so paths are visited in lexicographic order; ``best``
    is only replaced by a strictly longer path, so the first longest path in
    that order is returned. Any valid upper bound on a branch's reach may
    therefore prune it without changing the answer. The bound at vertex v
    with reachable unvisited set R is ``len(path) + |R| - max(0, ends - 1)``,
    where ``ends`` counts the vertices of R with exactly one neighbor in
    R + v: such a vertex can only be the last one of the path. One bitmask
    walk builds R and, in two masks, the vertices with at least one
    (``once``, started from v's neighbors) and at least two (``twice``)
    neighbors among v and the vertices walked so far; ``ends`` is then
    ``R & ~twice``. The bound is skipped at a forced step, where v has one
    extension u: the child's R is R - u, one vertex fewer for a path one
    vertex longer, with no fewer ends, so the child's bound is no weaker;
    and a subtree that a valid bound prunes holds no strictly longer path,
    so ``best`` changes at the same paths either way. Start vertices stop
    once ``best`` spans a largest component. Exponential; refuses instances
    above LONGEST_PATH_LIMIT vertices, and a search that passes
    LONGEST_PATH_STEPS branching steps (read at call time), with
    CapacityError; ``vertex_mask`` checks ``mask``.
    """
    mask = vertex_mask(g, mask)
    k = mask.bit_count()
    if k == 0:
        raise ValueError("longest path of an empty vertex set is undefined")
    if k > LONGEST_PATH_LIMIT:
        raise CapacityError(f"longest-path search limited to {LONGEST_PATH_LIMIT} vertices, got {k}")
    adj = g.adj_bits
    budget = LONGEST_PATH_STEPS
    steps = 0
    best: list[int] = []
    path: list[int] = []

    def dfs(v: int, avail: int):
        nonlocal best, steps
        if len(path) > len(best):
            best = list(path)
        ext = adj[v] & avail
        if not ext:
            return
        # the bitmask walks below inline component_masks' walk and bits(),
        # in the same ascending order: this is the hot loop of the solver.
        # A forced step (one extension) skips the bound: its child's own
        # bound is no weaker
        if ext & (ext - 1):
            steps += 1
            if steps > budget:
                raise CapacityError(
                    f"longest-path search limited to {budget} branching steps, on {k} vertices"
                )
            # one walk builds the reach R and the vertices with at least one
            # (once) and at least two (twice) neighbours in R + v
            reach = frontier = ext
            once = adj[v]
            twice = 0
            while frontier:
                while frontier:
                    low = frontier & -frontier
                    a = adj[low.bit_length() - 1]
                    twice |= once & a
                    once |= a
                    frontier ^= low
                frontier = once & avail & ~reach
                reach |= frontier
            # ``or 1`` makes ends - 1 read max(0, ends - 1) without a call
            ends = (reach & ~twice).bit_count() or 1
            if ends - 1 >= len(path) + reach.bit_count() - len(best):
                return
        while ext:
            low = ext & -ext
            u = low.bit_length() - 1
            path.append(u)
            dfs(u, avail ^ low)
            path.pop()
            ext ^= low

    largest = max(c.bit_count() for c in component_masks(adj, mask))
    for s in bits(mask):
        if len(best) == largest:
            break
        path = [s]
        dfs(s, mask & ~(1 << s))
    return tuple(best)

