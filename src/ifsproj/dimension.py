"""Similarity-dimension solver and spectral-radius machinery.

For a strongly connected graph-directed system the similarity dimension is
the unique s with spectral radius rho(A(s)) = 1, where A(s)[i, j] sums r_e^s
over the edges from i to j (Mauldin and Williams 1988); a self-similar system
is the one-vertex case, where rho(A(s)) = sum(r_i^s) is Moran's equation.
Every entry of A(s) is log-linear in s, so phi(s) = log rho(A(s)) is convex
(Kingman 1961) and strictly decreasing.  One safeguarded Newton iteration on
phi from s = 0 therefore climbs monotonically to the root, with no bracket
search; the derivative is phi'(s) = u^T A'(s) v / (rho u^T v) for the left
and right Perron vectors u, v.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from . import tolerances
from .geometry import (
    DimensionMismatchError,
    GeometryError,
    NumericFailureError,
    SSIFS,
    Similarity,
    checked_rotations,
)


class GdifsStructureError(GeometryError):
    pass


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    map: Similarity


class GDIFS:
    """Directed multigraph with a contracting similarity on every edge.

    Edge e runs from ``source[e]`` to ``target[e]`` and carries the map with
    ``ratio[e]``, ``rotation[e]`` and ``translation[e]``; ``edges`` builds
    the same graph as a tuple of Edge objects on first use.
    """

    def __init__(self, vertex_count: int, edges: Sequence[Edge], name: str | None = None):
        edges = tuple(edges)
        if not edges:
            raise GdifsStructureError("need at least one edge")
        d = edges[0].map.ambient_dim
        if any(e.map.ambient_dim != d for e in edges):
            raise DimensionMismatchError("all edge maps must share the ambient dimension")
        self._set_arrays(
            vertex_count,
            np.array([e.source for e in edges], dtype=np.intp),
            np.array([e.target for e in edges], dtype=np.intp),
            np.array([e.map.ratio for e in edges]),
            np.array([e.map.rotation for e in edges]),
            np.array([e.map.translation for e in edges]),
            name,
        )
        self.edges = edges

    @classmethod
    def from_arrays(
        cls, vertex_count: int, source, target, ratio, rotation, translation, name=None
    ) -> "GDIFS":
        """A graph from edge arrays, with the checks Similarity applies per map."""
        ratio = np.asarray(ratio, dtype=float)
        if not ((ratio > 0.0) & (ratio < 1.0)).all():
            raise GeometryError("edge ratios must lie in (0, 1)")
        rotation = checked_rotations(np.asarray(rotation, dtype=float))
        g = cls.__new__(cls)
        g._set_arrays(
            vertex_count,
            np.asarray(source, dtype=np.intp),
            np.asarray(target, dtype=np.intp),
            ratio,
            rotation,
            np.asarray(translation, dtype=float),
            name,
        )
        return g

    def _set_arrays(self, q, source, target, ratio, rotation, translation, name) -> None:
        if q < 1:
            raise GdifsStructureError("need at least one vertex")
        if len(source) == 0:
            raise GdifsStructureError("need at least one edge")
        if rotation.shape[1:] != (translation.shape[1],) * 2:
            raise DimensionMismatchError("edge rotations do not match the translations")
        outside = (source < 0) | (source >= q) | (target < 0) | (target >= q)
        if outside.any():
            e = int(np.argmax(outside))
            raise GdifsStructureError(f"edge endpoint out of range: {source[e]}->{target[e]}")
        if (np.bincount(source, minlength=q) == 0).any():
            raise GdifsStructureError("every vertex needs at least one outgoing edge")
        self.vertex_count = q
        self.source = source
        self.target = target
        self.ratio = ratio
        self.rotation = rotation
        self.translation = translation
        self.name = name
        # Edge arrays of A(s): the flat cell source * q + target and log r_e.
        self._cell = source * q + target
        self._log_ratio = np.log(ratio)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.edge(e) for e in range(len(self.source)))

    def edge(self, e: int) -> Edge:
        return Edge(
            int(self.source[e]),
            int(self.target[e]),
            Similarity(float(self.ratio[e]), self.rotation[e], self.translation[e]),
        )

    @property
    def ambient_dim(self) -> int:
        return self.translation.shape[1]

    def transition_matrix(self, s: float) -> np.ndarray:
        """A(s)[i, j] = sum of r_e^s over edges from i to j."""
        return _cell_sums(self._cell, np.exp(s * self._log_ratio), self.vertex_count)

    def delete_edge(self, index: int) -> "GDIFS":
        if not 0 <= index < len(self.source):
            raise GdifsStructureError("edge index out of range")
        keep = np.arange(len(self.source)) != index
        g = GDIFS.__new__(GDIFS)
        g._set_arrays(
            self.vertex_count,
            self.source[keep],
            self.target[keep],
            self.ratio[keep],
            self.rotation[keep],
            self.translation[keep],
            self.name,
        )
        return g


def strongly_connected_components(vertex_count: int, arcs) -> list[list[int]]:
    """Tarjan's algorithm, iterative; arcs is an iterable of (source, target)."""
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in arcs:
        adj[u].append(v)
    index_of = [-1] * vertex_count
    lowlink = [0] * vertex_count
    on_stack = [False] * vertex_count
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(vertex_count):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index_of[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def is_strongly_connected(g: GDIFS) -> bool:
    """Tarjan's algorithm on the distinct arcs (at most q^2) of the edge list."""
    sources, targets = np.divmod(np.unique(g._cell), g.vertex_count)
    comps = strongly_connected_components(
        g.vertex_count, zip(sources.tolist(), targets.tolist())
    )
    return len(comps) == 1


def _power_iteration(a: np.ndarray, tol: float, max_iter: int):
    """Perron root and vector of a nonnegative matrix with an irreducible
    positivity pattern, via power iteration on A + I (always primitive)."""
    q = a.shape[0]
    shifted = a + np.eye(q)
    x = np.ones(q)
    scale = max(1.0, float(np.abs(a).max()))
    lam = 0.0
    for _ in range(max_iter):
        y = shifted @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0, x
        y /= norm
        lam = float(y @ (shifted @ y))
        residual = float(np.linalg.norm(shifted @ y - lam * y, np.inf))
        x = y
        if residual <= tol * scale:
            return lam - 1.0, x
    raise NumericFailureError("power iteration did not converge within the cap")


def spectral_radius(a, tol: float | None = None, max_iter: int = 10**5) -> float:
    """Largest absolute eigenvalue of a nonnegative matrix.

    Computed per strongly connected component of the positivity pattern and
    maximized, so reducible matrices are handled as well.
    """
    if tol is None:
        tol = tolerances.TAU_EIG
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GeometryError("matrix must be square")
    if (a < 0).any():
        raise GeometryError("matrix must be entrywise nonnegative")
    q = a.shape[0]
    arcs = zip(*np.nonzero(a))
    best = 0.0
    for comp in strongly_connected_components(q, arcs):
        sub = a[np.ix_(comp, comp)]
        if len(comp) == 1 and sub[0, 0] == 0.0:
            continue
        rho, _ = _power_iteration(sub, tol, max_iter)
        best = max(best, rho)
    return best


def perron_eigenpair(a, tol: float | None = None, max_iter: int = 10**5):
    """(rho, y) with A y = rho y and y > 0; requires an irreducible matrix."""
    if tol is None:
        tol = tolerances.TAU_EIG
    a = np.asarray(a, dtype=float)
    comps = strongly_connected_components(a.shape[0], zip(*np.nonzero(a)))
    if len(comps) != 1:
        raise GeometryError("matrix is reducible; no Perron eigenpair")
    rho, y = _power_iteration(a, tol, max_iter)
    return rho, y


class DimensionMethod(enum.Enum):
    SSIFS_MORAN = "ssifs_moran_equation"
    GDIFS_SPECTRAL_RADIUS = "gdifs_spectral_radius"


@dataclass(frozen=True)
class DimensionReport:
    value: float
    residual: float
    iterations: int
    method: DimensionMethod


def _cell_sums(cell: np.ndarray, weights: np.ndarray, q: int) -> np.ndarray:
    return np.bincount(cell, weights=weights, minlength=q * q).reshape(q, q)


def _dimension_root(cell: np.ndarray, log_ratio: np.ndarray, q: int, max_iter: int = 100):
    """(s, rho(A(s)) - 1, steps) at the root of rho(A(s)) = 1.

    Newton steps on phi(s) = log rho(A(s)) from s = 0; a step that leaves the
    bracket seen so far is replaced by bisection (doubling while no point
    with phi < 0 is known).  Stops once |rho - 1| <= tau_dim and either the
    next Newton step or the bracket is below 1e-14 (1 + s), the resolution
    bisection used to stop at.  The matrix must be irreducible.
    """
    tau = tolerances.tau_dim()

    def evaluate(s: float):
        weights = np.exp(s * log_ratio)
        a = _cell_sums(cell, weights, q)
        da = _cell_sums(cell, log_ratio * weights, q)
        if q == 1:
            rho = float(a[0, 0])
            return rho, float(da[0, 0]) / rho
        w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
        i = int(np.argmax(w.real))
        rho = float(w[i].real)
        u, v = vl[:, i].real, vr[:, i].real
        return rho, float(u @ da @ v) / (rho * float(u @ v))

    rho, slope = evaluate(0.0)
    if rho - 1.0 < -tau:
        raise NumericFailureError("function already negative at s=0")
    if abs(rho - 1.0) <= tau:
        return 0.0, rho - 1.0, 0
    s, lo, hi = 0.0, 0.0, math.inf
    for it in range(1, max_iter + 1):
        nxt = s - math.log(rho) / slope
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
        s = nxt
        rho, slope = evaluate(s)
        if rho > 1.0:
            lo = s
        elif rho < 1.0:
            hi = s
        resolution = 1e-14 * (1.0 + s)
        if abs(rho - 1.0) <= tau and (
            abs(math.log(rho) / slope) <= resolution or hi - lo <= resolution
        ):
            return s, rho - 1.0, it
    raise NumericFailureError("dimension solver did not converge within the cap")


def _moran_report(ratios) -> DimensionReport:
    log_ratio = np.log(np.asarray(ratios, dtype=float))
    s, residual, iterations = _dimension_root(np.zeros(len(log_ratio), np.intp), log_ratio, 1)
    return DimensionReport(s, residual, iterations, DimensionMethod.SSIFS_MORAN)


def sim_dim_ssifs(ifs: SSIFS) -> DimensionReport:
    """Similarity dimension: the root of sum(r_i^s) = 1."""
    if len(ifs) < 2:
        raise GeometryError("similarity dimension needs at least two maps")
    return _moran_report(ifs.ratios)


def sim_dim_words(ifs: SSIFS, words) -> DimensionReport:
    """Similarity dimension of the subsystem given by composition words."""
    ratios = [w.ratio for w in words]
    if len(ratios) < 2:
        raise GeometryError("similarity dimension needs at least two words")
    return _moran_report(ratios)


def sim_dim_gdifs(g: GDIFS) -> DimensionReport:
    """The unique s with rho(A(s)) = 1, for a strongly connected system."""
    if not is_strongly_connected(g):
        raise GdifsStructureError(
            "graph is not strongly connected; the dimension equation is ambiguous"
        )
    s, residual, iterations = _dimension_root(g._cell, g._log_ratio, g.vertex_count)
    return DimensionReport(s, residual, iterations, DimensionMethod.GDIFS_SPECTRAL_RADIUS)


def single_vertex_gdifs(ifs: SSIFS) -> GDIFS:
    """Embed an SSIFS as a one-vertex GDIFS with one self-loop per map."""
    return GDIFS(1, [Edge(0, 0, s) for s in ifs], name=ifs.name)
