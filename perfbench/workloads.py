"""The benchmark's workloads and the seeded inputs each one runs.

Every workload runs ``verify`` on gnp graphs with minimum degree >= 1. The
benchmark seed only chooses which gnp seeds are scanned: seed ``s`` scans
upward from ``s * SEED_STRIDE``. Seed 0 therefore scans from 0, as
``tests/conftest.py::build_random_corpus`` does, and the acceptance workload
reproduces its 504-graph corpus exactly (``selfcheck.py`` compares the two).

The gnp sampler is re-derived here (the same MT19937 draws, vertex pairs in
lexicographic order), so picking inputs neither imports nor times the code
under test; the set-up step checks that the program builds the same edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SEED_STRIDE = 1_000_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # verify --mode
    #: the traced run also makes one pass at this many pool jobs (0: none);
    #: the timed passes are always jobs 1
    pool_jobs: int
    b_values: tuple[int, ...]
    #: (n, edge probability, graphs) per cell, in manifest order
    cells: tuple[tuple[int, float, int], ...]
    #: keep only graphs with exactly round(p * n(n-1)/2) edges; at the
    #: oracle and solver edges the cost of a row grows steeply with density,
    #: and a fixed edge count keeps the work of a pass steady across seeds
    exact_edges: bool
    #: graphs are written as edge-list files and read back (else a manifest)
    as_files: bool
    why: str


ACCEPTANCE_CELLS = tuple((n, p, 28) for n in range(4, 10) for p in (0.3, 0.5, 0.7))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance-both", "both", 2, (4, 5, 6), ACCEPTANCE_CELLS, False, False,
            "the 504-graph acceptance corpus every user and test runs; many tiny "
            "rows, so per-call overhead and the n<=9 oracle DP dominate",
        ),
        Workload(
            "oracle-mid", "oracle", 0, (4,),
            ((13, 0.6, 3), (14, 0.35, 7)), True, False,
            "exact oracle near its n=15 capacity edge (n=13-14): sparse rows load "
            "the 3^n subset DP, dense rows the spanning_in_range searches; no solver work",
        ),
        Workload(
            "solver-edge", "heuristic", 0, (4, 5, 6),
            ((17, 0.15, 70), (18, 0.15, 70)), True, True,
            "constructive solver at the n=17-18 longest-path edge, read from "
            "edge-list files; longest_path dominates and the oracle never runs",
        ),
    )
}


@dataclass(frozen=True)
class GraphInput:
    n: int
    p: float
    seed: int  # gnp seed
    edges: tuple[tuple[int, int], ...]

    def instance_id(self) -> str:
        """The id FamilySpec.instance_id gives the manifest line."""
        return f"gnp n={self.n} p={self.p} seed={self.seed}"

    def file_name(self, index: int) -> str:
        return f"{index:03d}_gnp-n{self.n}-p{self.p}-seed{self.seed}.edges"


def gnp_edges(n: int, p: float, seed: int) -> tuple[tuple[int, int], ...]:
    rng = random.Random(seed)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)


def _min_degree_positive(n: int, edges) -> bool:
    touched = set()
    for u, v in edges:
        touched.add(u)
        touched.add(v)
    return len(touched) == n


def make_inputs(workload: Workload, seed: int) -> list[GraphInput]:
    """The workload's graphs at this benchmark seed, in manifest order."""
    out: list[GraphInput] = []
    for n, p, count in workload.cells:
        want_m = round(p * n * (n - 1) / 2) if workload.exact_edges else None
        gseed = seed * SEED_STRIDE
        found = 0
        while found < count:
            edges = gnp_edges(n, p, gseed)
            if (want_m is None or len(edges) == want_m) and _min_degree_positive(n, edges):
                out.append(GraphInput(n, p, gseed, edges))
                found += 1
            gseed += 1
    return out


def write_inputs(workload: Workload, inputs: list[GraphInput], work: Path) -> Path:
    """Write the inputs where the program reads them: a manifest file, or a
    directory of edge-list files. Returns that path."""
    if not workload.as_files:
        manifest = work / "manifest.txt"
        manifest.write_text("".join(g.instance_id() + "\n" for g in inputs), encoding="utf-8")
        return manifest
    graphs = work / "graphs"
    graphs.mkdir(parents=True, exist_ok=True)
    for stale in graphs.iterdir():
        stale.unlink()
    for i, g in enumerate(inputs):
        lines = [f"# {g.instance_id()}", f"n {g.n}"] + [f"{u} {v}" for u, v in g.edges]
        (graphs / g.file_name(i)).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return graphs


def expected_items(workload: Workload, inputs: list[GraphInput]):
    """(instance id, n, edges) of each input as the program should load it."""
    if workload.as_files:
        return [(g.file_name(i), g.n, g.edges) for i, g in enumerate(inputs)]
    return [(g.instance_id(), g.n, g.edges) for g in inputs]
