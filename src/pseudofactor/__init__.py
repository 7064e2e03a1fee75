"""Pseudo [2,b]-factors at desk scale.

Exact minimization of edge/vertex components over all pseudo [2,b]-factors,
a proof-style exchange heuristic, bound-tight instance families, and a
verification harness for the ceiling max(0, alpha - floor(b*(delta-1)/2)).

``import pseudofactor`` loads the graph records, the loaders and the
generators (``errors``, ``graph``, ``generators``). Each solver module
(``factor``, ``memo``, ``oracle``, ``heuristic``, ``harness``) is imported
when one of its names is first read from the package (PEP 562), so loading
graphs never compiles the solvers.
"""

import importlib as _importlib

#: each module's exported names, the ones README's Library section lists. The
#: loader modules (errors, graph, generators) are imported with the package:
#: perfbench's tracer finds ``pseudofactor.generators`` in ``sys.modules``, and
#: nothing in the solver stack imports it. The solver modules load on first read.
_EXPORTS = {
    "errors": ("CapacityError", "FactorError", "GraphParseError", "ManifestError",
               "NonMaximalPathError", "ParseError"),
    "graph": ("Graph", "independence_number", "load_dimacs", "load_edge_list", "load_graph_text",
              "min_degree", "read_graph_file", "to_edge_list"),
    "generators": ("FamilySpec", "complete_graph", "cycle_graph", "gnp", "join_sharpness",
                   "parse_manifest", "path_graph", "pendant_sharpness"),
    "factor": ("PseudoFactor", "factor_to_text"),
    "memo": ("SolveMemo",),
    "oracle": ("OracleResult", "min_small_components_exact"),
    "heuristic": ("HeuristicResult", "solve"),
    "harness": ("BoundReport", "CorpusRun", "run_corpus", "theorem_bound", "verify_instance",
                "write_csv", "write_jsonl"),
}
#: exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its module (imported on first use) and
    kept in the package's namespace, so later reads skip this hook."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


# the loader modules bind their names now, through the same hook
for _module in ("errors", "graph", "generators"):
    for _name in _EXPORTS[_module]:
        __getattr__(_name)
del _module, _name
