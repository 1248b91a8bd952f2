"""An independent reference for compiled outputs.

:func:`evaluate_graph` runs a frontend graph node by node with each
operator's ``OP_REGISTRY`` compute function.  It skips every compiler pass
(constant folding, inference simplification, layout rewriting, fusion,
memory planning), so a compiled build that agrees with it agrees with the
unoptimised model.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: largest accepted ``max|compiled - reference| / max|reference|``; the
#: passes reorder float32 arithmetic, which moves results by ~1e-7
MAX_RELATIVE_ERROR = 1e-5


def evaluate_graph(graph, params: Dict[str, np.ndarray],
                   inputs: Dict[str, np.ndarray]) -> List[np.ndarray]:
    """Outputs of ``graph`` on ``inputs``, one per graph output."""
    from repro.graph.ops import OP_REGISTRY

    values: Dict[str, np.ndarray] = {}
    for node in graph.nodes:
        if node.is_variable:
            if node.name in inputs:
                values[node.name] = inputs[node.name]
            elif node.name in params:
                values[node.name] = params[node.name]
            else:
                raise KeyError(f"graph input {node.name!r} has no value")
            continue
        args = [values[parent.name] for parent in node.inputs]
        values[node.name] = OP_REGISTRY[node.op].compute(*args, node.attrs)
    return [values[node.name] for node in graph.outputs]


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return float("inf")
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    error = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    if not np.isfinite(error):
        return float("inf")
    return error / scale if scale > 0 else error


def outputs_match(actual: List[np.ndarray], expected: List[np.ndarray]
                  ) -> bool:
    return len(actual) == len(expected) and all(
        relative_error(a, e) <= MAX_RELATIVE_ERROR
        for a, e in zip(actual, expected))
