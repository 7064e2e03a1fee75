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

from .errors import ManifestError
from .graph import DECLARED_VERTEX_LIMIT, Graph

FAMILIES = ("join", "pendant", "gnp", "cycle", "complete", "path")
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


def pendant_sharpness(h: Graph, b: int | None = None) -> Graph:
    """``h`` plus one new degree-1 vertex hung on each of its vertices.

    Requires every vertex of h to have degree at least 2 (and at most b when
    b is given), so h itself is a valid large component. The result has
    minimum degree 1 and independence number |V(h)|.
    """
    if h.n == 0:
        raise ValueError("base graph must be nonempty")
    for v in range(h.n):
        d = h.adj_bits[v].bit_count()
        if d < 2:
            raise ValueError(f"vertex {v} has degree {d} < 2")
        if b is not None and d > b:
            raise ValueError(f"vertex {v} has degree {d} > b = {b}")
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

_REQUIRED_KEYS = {
    "join": ("h", "p"),
    "pendant": ("h",),
    "gnp": ("n", "p", "seed"),
    "cycle": ("n",),
    "complete": ("n",),
    "path": ("n",),
}


def _implied_size(family: str, values: dict[str, int | float]) -> tuple[int, int]:
    """(vertices, edges) of the graph a spec builds; gnp counts every vertex
    pair it samples. Negative sizes count as 0 and are left to ``build``."""

    def size(key: str) -> int:
        return max(0, int(values[key]))

    if family == "join":
        h, p = size("h"), size("p")
        return h + 2 * p, h * (h - 1) // 2 + p + 2 * h * p
    if family == "pendant":
        h = size("h")
        return 2 * h, 2 * h
    n = size("n")
    if family == "cycle":
        return n, n
    if family == "path":
        return n, max(0, n - 1)
    return n, n * (n - 1) // 2  # complete, gnp


class FamilySpec(NamedTuple):
    """One instance family with its parameters.

    join: h = size of the complete base graph, p = number of disjoint edges.
    pendant: h = length of the cycle used as base graph.
    gnp: n, p (edge probability), seed.
    cycle / complete / path: n.
    Every value but gnp's p must be an integer (``6`` or ``6.0``, never
    ``6.5``).
    """

    family: str
    params: tuple[tuple[str, int | float], ...]

    @classmethod
    def parse(cls, line: str) -> "FamilySpec":
        parts = line.split()
        if not parts:
            raise ManifestError("empty family spec")
        family = parts[0]
        if family not in FAMILIES:
            raise ManifestError(f"unknown family {family!r} (expected one of {', '.join(FAMILIES)})")
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
        required = _REQUIRED_KEYS[family]
        missing = [k for k in required if k not in seen]
        if missing:
            raise ManifestError(f"family {family!r} missing {', '.join(missing)}")
        extra = [k for k in seen if k not in required]
        if extra:
            raise ManifestError(f"family {family!r} does not take {', '.join(extra)}")
        for key in required:
            val = seen[key]
            if isinstance(val, float) and (family, key) != ("gnp", "p"):
                if not math.isfinite(val):
                    raise ManifestError(f"{key}={val} is not finite")
                if not val.is_integer():
                    raise ManifestError(f"{key}={val} is not an integer")
        vertices, edges = _implied_size(family, seen)
        if vertices > DECLARED_VERTEX_LIMIT:
            raise ManifestError(
                f"family {family!r} implies {vertices} vertices, over the limit of {DECLARED_VERTEX_LIMIT}"
            )
        if edges > MANIFEST_EDGE_LIMIT:
            raise ManifestError(
                f"family {family!r} implies {edges} edges, over the limit of {MANIFEST_EDGE_LIMIT}"
            )
        return cls(family, tuple((k, seen[k]) for k in required))

    def get(self, key: str) -> int | float:
        return dict(self.params)[key]

    def instance_id(self) -> str:
        return " ".join([self.family] + [f"{k}={v}" for k, v in self.params])

    def build(self) -> Graph:
        try:
            if self.family == "join":
                return join_sharpness(complete_graph(int(self.get("h"))), int(self.get("p")))
            if self.family == "pendant":
                return pendant_sharpness(cycle_graph(int(self.get("h"))))
            if self.family == "gnp":
                return gnp(int(self.get("n")), float(self.get("p")), int(self.get("seed")))
            if self.family == "cycle":
                return cycle_graph(int(self.get("n")))
            if self.family == "complete":
                return complete_graph(int(self.get("n")))
            return path_graph(int(self.get("n")))
        except ValueError as exc:
            raise ManifestError(f"{self.instance_id()}: {exc}") from exc


def parse_manifest(text: str) -> list[FamilySpec]:
    """One FamilySpec per significant line; '#' comments and blanks skipped."""
    specs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            specs.append(FamilySpec.parse(line))
        except ManifestError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from None
    return specs


def read_manifest(path) -> list[FamilySpec]:
    """Parse the manifest at ``path``; a bad line, or text that is not UTF-8,
    raises ManifestError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_manifest(fh.read())
    except (ManifestError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: {exc}") from None
