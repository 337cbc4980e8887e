"""Seeded benchmark inputs: graph files, the Bell strategy JSON, bad inputs.

Everything here is a pure function of the workload seed. Graphs are plain
``(n, edges)`` pairs with 1-indexed vertices, the form the graph text format
uses, so the same edges can be written to a file for the command line and
handed to ``qsvkit.graphs.Graph`` in-process.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports ``qsvkit.cli`` and builds one workload's inputs into a
directory (``python3 perfbench/fixtures.py --workload NAME --seed N --out DIR``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from pathlib import Path

FAMILY_SIZES = range(2, 9)

# Command lines that must fail with exit code 2 and a one-line message. The
# self-loop case needs a file, written by write_fixtures.
SELF_LOOP_TEXT = "n 2\n1 1\n"


def ring(n: int) -> list[tuple[int, int]]:
    """Cycle on n vertices; the two-vertex ring is the single edge."""
    if n == 2:
        return [(1, 2)]
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def star(n: int) -> list[tuple[int, int]]:
    return [(1, i) for i in range(2, n + 1)]


def complete(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


FAMILIES = {"ring": ring, "star": star, "complete": complete}


def random_connected(n: int, rng: random.Random, density: float = 0.35) -> list[tuple[int, int]]:
    """Random spanning tree plus each remaining pair with probability ``density``."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for pos in range(1, n):
        u, v = order[pos], order[rng.randrange(pos)]
        edges.add((min(u, v), max(u, v)))
    for pair in combinations(range(1, n + 1), 2):
        if pair not in edges and rng.random() < density:
            edges.add(pair)
    return sorted(edges)


def connected_graphs(n: int) -> list[list[tuple[int, int]]]:
    """Every labeled connected graph on vertices 1..n, in edge-subset order."""
    pool = list(combinations(range(1, n + 1), 2))
    found = []
    for mask in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        parent = list(range(n + 1))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in range(1, n + 1)}) == 1:
            found.append(edges)
    return found


def graph_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def random_graphs(seed: int) -> dict[int, list[tuple[int, int]]]:
    """One seeded random connected graph for each size in FAMILY_SIZES."""
    rng = random.Random(f"random-graphs:{seed}")
    return {n: random_connected(n, rng) for n in FAMILY_SIZES}


def write_fixtures(directory: Path, seed: int) -> dict[str, Path]:
    """Write every input file of the benchmark into ``directory``.

    Files: ``<family>-<n>.graph`` for ring, star, complete and random at
    n = 2..8, ``bell.json`` (the reference Bell strategy) and
    ``self_loop.graph`` (malformed). Returns the paths by stem.
    """
    from qsvkit.strategy import reference_bell_artifacts, strategy_to_json

    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    graphs = {f"{fam}-{n}": (n, make(n)) for fam, make in FAMILIES.items() for n in FAMILY_SIZES}
    graphs.update({f"random-{n}": (n, edges) for n, edges in random_graphs(seed).items()})
    for stem, (n, edges) in graphs.items():
        paths[stem] = directory / f"{stem}.graph"
        paths[stem].write_text(graph_text(n, edges), encoding="utf-8")
    paths["bell"] = directory / "bell.json"
    paths["bell"].write_text(
        json.dumps(strategy_to_json(reference_bell_artifacts()[0])), encoding="utf-8"
    )
    paths["self_loop"] = directory / "self_loop.graph"
    paths["self_loop"].write_text(SELF_LOOP_TEXT, encoding="utf-8")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/qsvkit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    import qsvkit.cli  # noqa: F401  (the import is part of what set-up measures)
    import workloads

    workloads.build(args.workload, args.seed, args.size, Path(args.out), Path(args.root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
