"""One graph's searches that do not depend on b, shared by every stage and
every b row of that graph.

The memo sits below both solvers and imports only ``graph`` and ``errors``
at run time, so the exact oracle can keep its scan in it without importing
the constructive solver. Every longest-path search of the solver goes
through ``SolveMemo.path``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CapacityError
from .graph import Graph, independence_number, longest_path

if TYPE_CHECKING:
    from .heuristic import HeuristicResult
    from .oracle import OracleResult


class SolveMemo:
    """The searches on one graph that do not depend on b, each run on first use
    and then shared by every stage and every b that asks: the longest path and
    the alpha of each induced subgraph met (both keyed by the mask of its vertex
    set, so the seed path and alpha(G) are the entries of the full set and each
    alpha(G - F) the entry of ``V - F``), the exact oracle's matching-table scan
    (``scan``: the ``nu`` table and the candidate groups, filled by
    ``min_small_components_exact``, whose walk sorts each group in place when it
    first reaches it), the oracle's witnesses that cannot depend on b
    (``witnesses``: a large part S mapped to ``(Δ(G[S]), result)``, Δ(G[S]) the
    largest degree inside G[S]; kept by a row whose walk ended at S with
    Δ(G[S]) <= its b, and reused by every row whose walk reaches S at a
    b >= Δ(G[S])), and the solver's descent from the seed (``descent``:
    ``(need, result)``, kept and reused by ``solve`` at every b >= need, a b
    from which on none of the solver's degree caps can bind along that descent;
    see ``heuristic._cap_need``). A reused witness or factor is not rebuilt,
    only re-checked at its row's b (``PseudoFactor.with_bound``). A refused path
    search is kept as its ``CapacityError``, which every later call for that mask
    raises again without searching; a fresh memo searches again under the step
    budget of its time. The other searches store nothing when they refuse."""

    def __init__(self, g: Graph):
        self.g = g
        self.paths: dict[int, tuple[int, ...] | CapacityError] = {}
        self.alphas: dict[int, int] = {}
        self.scan: tuple[list[int], list[list[int]]] | None = None
        self.witnesses: dict[int, tuple[int, OracleResult]] = {}
        self.descent: tuple[int, HeuristicResult] | None = None

    @classmethod
    def of(cls, g: Graph, memo: SolveMemo | None) -> SolveMemo:
        """``memo``, checked to belong to ``g``; a fresh memo when None."""
        if memo is None:
            return cls(g)
        if memo.g is not g:
            raise ValueError("memo belongs to another graph")
        return memo

    def path(self, mask: int) -> tuple[int, ...]:
        """``longest_path`` of G[mask], mask nonempty, searched once per mask;
        a refusal is raised again, with its message, on every later call."""
        val = self.paths.get(mask)
        if val is None:
            try:
                val = longest_path(self.g, mask)
            except CapacityError as exc:
                val = exc
            self.paths[mask] = val
        if isinstance(val, CapacityError):
            raise CapacityError(*val.args)
        return val

    def alpha(self, mask: int) -> int:
        """alpha(G[mask]) of a vertex mask, searched once per mask."""
        val = self.alphas.get(mask)
        if val is None:
            val = independence_number(self.g, mask)
            self.alphas[mask] = val
        return val
