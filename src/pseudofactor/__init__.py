"""Pseudo [2,b]-factors at desk scale.

Exact minimization of edge/vertex components over all pseudo [2,b]-factors,
a proof-style exchange heuristic, bound-tight instance families, and a
verification harness for the ceiling max(0, alpha - floor(b*(delta-1)/2)).
"""

from .errors import (
    CapacityError,
    FactorError,
    GraphParseError,
    ManifestError,
    NonMaximalPathError,
    ParseError,
)
from .factor import (
    ComponentClass,
    FactorComponent,
    PseudoFactor,
    factor_to_text,
    is_2b_subgraph,
    spanning_in_range,
    validate_pseudo_factor,
)
from .generators import (
    FamilySpec,
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    parse_manifest,
    path_graph,
    pendant_sharpness,
)
from .graph import (
    Graph,
    independence_number,
    load_dimacs,
    load_edge_list,
    load_graph_text,
    longest_path,
    min_degree,
    read_graph_file,
    to_edge_list,
)
from .harness import (
    BoundReport,
    CorpusRun,
    run_corpus,
    theorem_bound,
    verify_instance,
    write_csv,
    write_jsonl,
)
from .heuristic import (
    ExchangeMove,
    HeuristicResult,
    SearchState,
    enumerate_moves,
    improve,
    initial_subgraph,
    posa_cover,
    solve,
)
from .memo import SolveMemo
from .oracle import OracleResult, min_small_components_exact

__version__ = "0.1.0"
