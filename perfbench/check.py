"""Independent output checker: every metric recomputed with plain numpy.

Nothing here calls the library's evaluators (``evaluate_partition``,
``evaluate_multires``, ``evaluate_hyper_partition``); it reads only the
instance's raw arrays and the returned assignment.  A result passes when
the assignment is well formed and the cut (edge cut, or (λ−1)
connectivity for hypergraphs) and the feasibility verdict the library
reported both match the recomputation.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """A result disagrees with the independent recomputation."""


def _assignment(assign, n: int, k: int) -> np.ndarray:
    a = np.asarray(assign)
    if a.shape != (n,):
        raise CheckError(f"assignment has shape {a.shape}, expected ({n},)")
    if not np.issubdtype(a.dtype, np.integer):
        raise CheckError(f"assignment dtype {a.dtype} is not integral")
    if n and (a.min() < 0 or a.max() >= k):
        raise CheckError(
            f"assignment values outside [0, {k}): {a.min()}..{a.max()}"
        )
    return a.astype(np.int64)


def graph_metrics(eu, ev, ew, node_weights, assign, k):
    """``(cut, pairwise bandwidth matrix, part loads)`` of a 2-pin graph.

    *node_weights* is ``(n,)`` for scalar resources or ``(n, R)`` for
    vector resources; the loads are ``(k,)`` or ``(k, R)`` accordingly.
    """
    nw = np.asarray(node_weights, dtype=np.float64)
    a = _assignment(assign, nw.shape[0], k)
    pu, pv = a[eu], a[ev]
    crossing = pu != pv
    cut = float(ew[crossing].sum())
    bw = np.zeros((k, k))
    np.add.at(bw, (pu[crossing], pv[crossing]), ew[crossing])
    bw = bw + bw.T
    loads = np.zeros((k,) + nw.shape[1:])
    np.add.at(loads, a, nw)
    return cut, bw, loads


def hyper_metrics(pins, net_ids, roots, net_weights, node_weights, assign, k):
    """``(λ−1 connectivity, root-attributed bandwidth matrix, loads)``."""
    nw = np.asarray(node_weights, dtype=np.float64)
    a = _assignment(assign, nw.shape[0], k)
    pairs = np.unique(net_ids * k + a[pins])  # distinct (net, part) pairs
    net, part = pairs // k, pairs % k
    lam = np.bincount(net, minlength=len(net_weights))
    conn = float((net_weights * np.maximum(lam - 1, 0)).sum())
    root_part = a[roots][net]
    away = part != root_part
    bw = np.zeros((k, k))
    np.add.at(bw, (root_part[away], part[away]), net_weights[net[away]])
    bw = bw + bw.T
    loads = np.bincount(a, weights=nw, minlength=k)
    return conn, bw, loads


def feasible(bw, loads, bmax, rmax) -> bool:
    """Both paper constraints: every pairwise bandwidth ≤ Bmax and every
    part load ≤ Rmax (componentwise for a vector *rmax*)."""
    return bool(np.all(bw <= bmax) and np.all(loads <= np.asarray(rmax)))


def hyper_arrays(hg):
    """The raw arrays :func:`hyper_metrics` reads from an ``HGraph``."""
    pins, net_ids = hg.pin_arrays
    return pins, net_ids, hg.roots, hg.net_weights, hg.node_weights


def verify(recomputed_cut, recomputed_feasible, reported_cut,
           reported_feasible) -> tuple[float, bool]:
    """Raise :class:`CheckError` unless the reported figures match."""
    if not math.isclose(recomputed_cut, float(reported_cut),
                        rel_tol=1e-9, abs_tol=1e-9):
        raise CheckError(
            f"reported cut {reported_cut} but the assignment cuts "
            f"{recomputed_cut}"
        )
    if bool(reported_feasible) != recomputed_feasible:
        raise CheckError(
            f"reported feasible={bool(reported_feasible)} but the "
            f"recomputation says {recomputed_feasible}"
        )
    return recomputed_cut, recomputed_feasible


def check_graph(g, k, bmax, rmax, assign, reported_cut, reported_feasible,
                resources=None):
    """Check a graph partition (scalar or vector resources)."""
    nw = g.node_weights if resources is None else resources
    cut, bw, loads = graph_metrics(*g.edge_array, nw, assign, k)
    return verify(cut, feasible(bw, loads, bmax, rmax), reported_cut,
                  reported_feasible)


def check_hyper(hg, k, bmax, rmax, assign, reported_cut, reported_feasible):
    """Check a hypergraph partition under the (λ−1) metric."""
    conn, bw, loads = hyper_metrics(*hyper_arrays(hg), assign, k)
    return verify(conn, feasible(bw, loads, bmax, rmax), reported_cut,
                  reported_feasible)

