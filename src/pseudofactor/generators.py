"""Deterministic instance families: the two bound-tight constructions plus
seeded random and named graphs for the harness.

Vertex numbering is fixed (the base graph h first, new vertices after, in
order) so golden tests stay stable. Random bits come from MT19937
(``random.Random``) with explicit seeding, scanning vertex pairs in
lexicographic order; the same (n, edge_prob, seed) always yields the same
graph, bit for bit, on every platform.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import GraphParseError, ManifestError
from .graph import DECLARED_VERTEX_LIMIT, Graph, _file_lines

#: largest edge count a family spec may imply (for gnp: the vertex pairs it
#: samples); checked at parse time, before anything is built
MANIFEST_EDGE_LIMIT = 1 << 18


def join_sharpness(h: Graph, p: int) -> Graph:
    """``h`` joined to p disjoint edges: disjoint union plus every edge between
    V(h) and the 2p new vertices.

    With p > b|V(h)|/2 this family meets the small-component ceiling exactly:
    minimum degree |V(h)|+1, independence number p.
    """
    if h.n == 0:
        raise ValueError("base graph must be nonempty")
    if p < 1:
        raise ValueError("p must be positive")
    n = h.n + 2 * p
    edges = list(h.edges)
    for i in range(p):
        a = h.n + 2 * i
        edges.append((a, a + 1))
    for v in range(h.n):
        for w in range(h.n, n):
            edges.append((v, w))
    return Graph.build(n, edges)


def pendant_sharpness(h: Graph) -> Graph:
    """``h`` plus one new degree-1 vertex hung on each of its vertices.

    Requires every vertex of h to have degree at least 2, so h itself is a
    valid large component for every b at least its maximum degree. The
    result has minimum degree 1 and independence number |V(h)|.
    """
    if h.n == 0:
        raise ValueError("base graph must be nonempty")
    for v in range(h.n):
        d = h.adj_bits[v].bit_count()
        if d < 2:
            raise ValueError(f"vertex {v} has degree {d} < 2")
    edges = list(h.edges) + [(i, h.n + i) for i in range(h.n)]
    return Graph.build(2 * h.n, edges)


def gnp(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded Erdős–Rényi-style sample; reproducible bit for bit."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph.build(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("n must be positive")
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# family specs ("family key=value ...") for the CLI and corpus manifests

#: family -> (its keys; the (vertices, edges) of the graph it builds, gnp
#: counting every vertex pair it samples; its builder). Both functions take
#: the values in key order, as ``_arguments`` gives them.
_FAMILIES = {
    "join": (("h", "p"),
             lambda h, p: (h + 2 * p, h * (h - 1) // 2 + p + 2 * h * p),
             lambda h, p: join_sharpness(complete_graph(h), p)),
    "pendant": (("h",), lambda h: (2 * h, 2 * h), lambda h: pendant_sharpness(cycle_graph(h))),
    "gnp": (("n", "p", "seed"), lambda n, p, seed: (n, n * (n - 1) // 2), gnp),
    "cycle": (("n",), lambda n: (n, n), cycle_graph),
    "complete": (("n",), lambda n: (n, n * (n - 1) // 2), complete_graph),
    "path": (("n",), lambda n: (n, max(0, n - 1)), path_graph),
}
#: the one (family, key) whose value may be real; every other is an integer
_REAL_KEY = ("gnp", "p")


def _arguments(family: str, params) -> list[int | float]:
    """The values of ``params`` as the family's functions take them: ints,
    except gnp's p, which is passed as given."""
    return [v if (family, k) == _REAL_KEY else int(v) for k, v in params]


class FamilySpec(NamedTuple):
    """One instance family with its parameters.

    join: h = size of the complete base graph, p = number of disjoint edges.
    pendant: h = length of the cycle used as base graph.
    gnp: n, p (edge probability), seed.
    cycle / complete / path: n.
    Every value but gnp's p must be an integer (``6`` or ``6.0``, never
    ``6.5``). Values are kept as parsed, so ``n=6.0`` stays ``n=6.0`` in
    ``instance_id``.
    """

    family: str
    params: tuple[tuple[str, int | float], ...]

    @classmethod
    def parse(cls, line: str) -> "FamilySpec":
        parts = line.split()
        if not parts:
            raise ManifestError("empty family spec")
        family = parts[0]
        if family not in _FAMILIES:
            raise ManifestError(f"unknown family {family!r} (expected one of {', '.join(_FAMILIES)})")
        keys, size, _ = _FAMILIES[family]
        seen: dict[str, int | float] = {}
        for tok in parts[1:]:
            if "=" not in tok:
                raise ManifestError(f"expected key=value, got {tok!r}")
            key, _, val = tok.partition("=")
            if key in seen:
                raise ManifestError(f"duplicate key {key!r}")
            try:
                seen[key] = int(val)
            except ValueError:
                try:
                    seen[key] = float(val)
                except ValueError:
                    raise ManifestError(f"non-numeric value for {key!r}: {val!r}") from None
        missing = [k for k in keys if k not in seen]
        if missing:
            raise ManifestError(f"family {family!r} missing {', '.join(missing)}")
        extra = [k for k in seen if k not in keys]
        if extra:
            raise ManifestError(f"family {family!r} does not take {', '.join(extra)}")
        for key in keys:
            val = seen[key]
            if isinstance(val, float) and (family, key) != _REAL_KEY:
                if not math.isfinite(val):
                    raise ManifestError(f"{key}={val} is not finite")
                if not val.is_integer():
                    raise ManifestError(f"{key}={val} is not an integer")
        params = tuple((k, seen[k]) for k in keys)
        # negative values count as 0 here and are left to the builder
        vertices, edges = size(*(max(0, v) for v in _arguments(family, params)))
        if vertices > DECLARED_VERTEX_LIMIT:
            raise ManifestError(
                f"family {family!r} implies {vertices} vertices, over the limit of {DECLARED_VERTEX_LIMIT}"
            )
        if edges > MANIFEST_EDGE_LIMIT:
            raise ManifestError(
                f"family {family!r} implies {edges} edges, over the limit of {MANIFEST_EDGE_LIMIT}"
            )
        return cls(family, params)

    def get(self, key: str) -> int | float:
        return dict(self.params)[key]

    def instance_id(self) -> str:
        return " ".join([self.family] + [f"{k}={v}" for k, v in self.params])

    def build(self) -> Graph:
        try:
            return _FAMILIES[self.family][2](*_arguments(self.family, self.params))
        except ValueError as exc:
            raise ManifestError(f"{self.instance_id()}: {exc}") from exc


def _parse_lines(lines) -> list[FamilySpec]:
    """The FamilySpecs of ``lines``, read as ``parse_manifest`` reads them."""
    specs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            specs.append(FamilySpec.parse(line))
        except ManifestError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from None
    return specs


def parse_manifest(text: str) -> list[FamilySpec]:
    """One FamilySpec per significant line; '#' comments and blanks skipped."""
    return _parse_lines(text.splitlines())


def read_manifest(path) -> list[FamilySpec]:
    """Parse the manifest at ``path`` a line at a time, as ``parse_manifest`` parses
    its text; a bad line, or a byte that is not UTF-8, raises ManifestError naming it."""
    try:
        with open(path, "rb") as fh:
            return _parse_lines(_file_lines(fh))
    except (ManifestError, GraphParseError) as exc:
        raise ManifestError(f"{path}: {exc}") from None
