"""Load a workload's graphs the way ``pseudofactor verify`` does.

Run as a script, it times one set-up in a fresh interpreter: import
pseudofactor, then build the graphs of a manifest (``parse_manifest`` and
``FamilySpec.build``) or read the graph files of a directory
(``read_graph_file``). It prints one JSON line with the seconds taken, the
durations of the reference kernel (``speed.py``) timed three times just
before and three times just after, so the caller can scale the set-up to the
nominal host speed, and a digest of the graphs, so it can check what was
built::

    PYTHONPATH=src python3 perfbench/setup_probe.py manifest <manifest file>
    PYTHONPATH=src python3 perfbench/setup_probe.py files <graph directory>

Interpreter start-up is not counted; the clock starts before the package
import.
"""

import time

if __name__ == "__main__":
    from speed import SpeedProbe

    _PROBE = SpeedProbe()
    for _ in range(3):
        _PROBE.sample()

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def load_items(kind: str, source: Path):
    """(instance id, Graph) pairs, in the order verify runs them."""
    if kind == "manifest":
        from pseudofactor.generators import parse_manifest

        specs = parse_manifest(source.read_text(encoding="utf-8"))
        return [(spec.instance_id(), spec.build()) for spec in specs]
    from pseudofactor.graph import read_graph_file

    return [(p.name, read_graph_file(p)) for p in sorted(source.iterdir()) if p.is_file()]


def items_digest(items) -> str:
    """sha256 over (instance id, n, edges) triples, in order."""
    h = hashlib.sha256()
    for instance, n, edges in items:
        h.update(f"{instance}|{n}|{list(edges)}\n".encode())
    return h.hexdigest()


def main(argv) -> int:
    kind, source = argv[1], Path(argv[2])
    items = load_items(kind, source)
    seconds = time.perf_counter() - _T0
    for _ in range(3):
        _PROBE.sample()
    digest = items_digest((i, g.n, g.edges) for i, g in items)
    print(json.dumps({"seconds": seconds, "kernel_s": _PROBE.dur, "digest": digest}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
