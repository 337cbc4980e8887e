"""Graphs the tests share: fixed small graphs, rings, every labeled connected graph,
the stock two-component fake source and its exact i.i.d. pass rate."""

from itertools import combinations

from qsvkit.graph_strategy import graph_pass_probability
from qsvkit.graphs import Graph, graph_state
from qsvkit.qcore import Ket, orthonormal_complement

PATH2 = Graph(2, [(1, 2)])
TRIANGLE = Graph(3, [(1, 2), (2, 3), (1, 3)])


def ring(n: int) -> Graph:
    """The cycle on n vertices; the path for n <= 2."""
    return Graph(n, [(i, i + 1) for i in range(1, n)] + ([(1, n)] if n >= 3 else []))


def _connected(n: int, edges) -> bool:
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, n + 1)}) == 1


def connected_graphs(n: int) -> list[Graph]:
    """Every labeled connected graph on vertices 1..n, in subset order."""
    pool = list(combinations(range(1, n + 1), 2))
    found = []
    for mask in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        if _connected(n, edges):
            found.append(Graph(n, edges))
    return found


def graph_mix(g: Graph, weight: float) -> list[tuple[float, Ket]]:
    """The graph state with this weight, the first complement vector with the rest."""
    target = graph_state(g)
    perp = orthonormal_complement(target)[:, 0]
    return [(weight, target), (1.0 - weight, Ket(perp, target.dims))]


def iid_pair_rate(gs, mix) -> float:
    """Exact pass rate sum_ab w_a w_b p(k_a, k_b) of a graph strategy on an i.i.d. pair source."""
    return sum(wa * wb * graph_pass_probability(gs, ka, kb)[0] for wa, ka in mix for wb, kb in mix)
