"""Graph-level quantities used by the competitive analysis.

Implements Definitions 1 and 2 of the paper: the minimum total area
:math:`A_{\\min}` and the minimum critical-path length :math:`C_{\\min}`,
both lower bounds on the optimal makespan (Lemma 2, see
:mod:`repro.bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.taskgraph import TaskGraph
from repro.types import TaskId
from repro.util.validation import check_positive_int

__all__ = [
    "minimum_total_area",
    "minimum_critical_path",
    "critical_path_tasks",
    "graph_stats",
    "GraphStats",
]


def minimum_total_area(graph: TaskGraph, P: int) -> float:
    """Return :math:`A_{\\min} = \\sum_j a^{\\min}_j` (Definition 1)."""
    P = check_positive_int(P, "P")
    return sum(task.model.a_min(P) for task in graph.tasks())


def _min_length_to(graph: TaskGraph, P: int) -> dict[TaskId, float]:
    """Longest path (in minimum execution times) ending at each task."""
    t_min = {task.id: task.model.t_min(P) for task in graph.tasks()}
    preds = graph.predecessor_map()
    length: dict[TaskId, float] = {}
    for u in graph.topological_order():
        best_pred = max((length[p] for p in preds[u]), default=0.0)
        length[u] = best_pred + t_min[u]
    return length


def minimum_critical_path(graph: TaskGraph, P: int) -> float:
    """Return :math:`C_{\\min}` (Definition 2).

    The longest path in the graph where each task is weighted by its
    minimum execution time :math:`t^{\\min}_j = t_j(p^{\\max}_j)`.
    """
    P = check_positive_int(P, "P")
    if len(graph) == 0:
        return 0.0
    return max(_min_length_to(graph, P).values())


def critical_path_tasks(graph: TaskGraph, P: int) -> list[TaskId]:
    """Return one path achieving :math:`C_{\\min}`, from source to sink."""
    P = check_positive_int(P, "P")
    if len(graph) == 0:
        return []
    length = _min_length_to(graph, P)
    t_min = {task.id: task.model.t_min(P) for task in graph.tasks()}
    # Walk backwards from the task with the largest finishing length.
    current = max(length, key=lambda t: length[t])
    path = [current]
    while graph.predecessors(current):
        target = length[current] - t_min[current]
        nxt = None
        for p in graph.predecessors(current):
            if abs(length[p] - target) <= 1e-12 * max(1.0, abs(target)):
                nxt = p
                break
        if nxt is None:  # pragma: no cover - defensive; DP guarantees a match
            nxt = max(graph.predecessors(current), key=lambda t: length[t])
        path.append(nxt)
        current = nxt
    path.reverse()
    return path


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a task graph (for experiment reports)."""

    n_tasks: int
    n_edges: int
    depth: int
    width: int
    min_total_area: float
    min_critical_path: float

    def __str__(self) -> str:
        return (
            f"n={self.n_tasks} m={self.n_edges} depth={self.depth} "
            f"width={self.width} A_min={self.min_total_area:.4g} "
            f"C_min={self.min_critical_path:.4g}"
        )


def graph_stats(graph: TaskGraph, P: int) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph`` on a ``P``-processor platform.

    ``width`` is the size of the largest antichain layer under the canonical
    depth layering (an easy-to-compute proxy for maximum task parallelism).
    """
    P = check_positive_int(P, "P")
    preds = graph.predecessor_map()
    depth_of: dict[TaskId, int] = {}
    for u in graph.topological_order():
        depth_of[u] = 1 + max((depth_of[p] for p in preds[u]), default=0)
    layer_sizes: dict[int, int] = {}
    for d in depth_of.values():
        layer_sizes[d] = layer_sizes.get(d, 0) + 1
    return GraphStats(
        n_tasks=len(graph),
        n_edges=graph.num_edges(),
        depth=max(depth_of.values(), default=0),
        width=max(layer_sizes.values(), default=0),
        min_total_area=minimum_total_area(graph, P),
        min_critical_path=minimum_critical_path(graph, P),
    )
