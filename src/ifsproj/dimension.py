"""Similarity-dimension solver and the Perron root behind it.

For a strongly connected graph-directed system the similarity dimension is
the unique s with spectral radius rho(A(s)) = 1, where A(s)[i, j] sums r_e^s
over the edges from i to j (Mauldin and Williams 1988); a self-similar system
is the one-vertex case, where rho(A(s)) = sum(r_i^s) is Moran's equation.
Every entry of A(s) is log-linear in s, so phi(s) = log rho(A(s)) is convex
(Kingman 1961) and strictly decreasing.  One safeguarded Newton iteration on
phi from s = 0 therefore climbs monotonically to the root, with no bracket
search; the derivative is phi'(s) = u^T A'(s) v / (rho u^T v) for the left
and right Perron vectors u, v.

One routine, ``_perron`` (the eig pair of largest real part), gives the Perron
root and vector to the solver and to ``spectral_radius``.  One reachability
product, ``_reach`` (the q x q arc pattern plus I, squared until it stops
changing), decides strong connectivity and gives the components.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .geometry import (
    DimensionMismatchError,
    GeometryError,
    NumericFailureError,
    SSIFS,
    Similarity,
    checked_maps,
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
    ``ratio[e]``, ``rotation[e]`` and ``translation[e]``; the maps pass
    ``checked_maps``.  ``edges`` is a read-only view of the same graph as a
    tuple of Edge objects, built on first use.
    """

    def __init__(
        self, vertex_count: int, source, target, ratio, rotation, translation, name=None
    ):
        q = vertex_count
        source = np.asarray(source, dtype=np.intp)
        target = np.asarray(target, dtype=np.intp)
        ratio = np.asarray(ratio, dtype=float)
        translation = np.asarray(translation, dtype=float)
        rotation = np.asarray(rotation, dtype=float)
        if q < 1:
            raise GdifsStructureError("need at least one vertex")
        if len(source) == 0:
            raise GdifsStructureError("need at least one edge")
        n, d = translation.shape
        if not len(source) == len(target) == len(ratio) == n or rotation.shape != (n, d, d):
            raise DimensionMismatchError("edge arrays differ in length or dimension")
        rotation = checked_maps(ratio, rotation, translation)
        outside = (source < 0) | (source >= q) | (target < 0) | (target >= q)
        if outside.any():
            e = int(np.argmax(outside))
            raise GdifsStructureError(f"edge endpoint out of range: {source[e]}->{target[e]}")
        # More vertices than edges leaves one without an outgoing edge; it is
        # tested first, so a huge vertex count allocates nothing.
        if q > n or (np.bincount(source, minlength=q) == 0).any():
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
        arrays = zip(self.source, self.target, self.ratio, self.rotation, self.translation)
        return tuple(Edge(int(i), int(j), Similarity(float(r), o, v)) for i, j, r, o, v in arrays)

    @property
    def ambient_dim(self) -> int:
        return self.translation.shape[1]

    def transition_matrix(self, s: float) -> np.ndarray:
        """A(s)[i, j] = sum of r_e^s over edges from i to j."""
        return _cell_sums(self._cell, np.exp(s * self._log_ratio), self.vertex_count)

    def delete_edge(self, index: int) -> "GDIFS":
        if not 0 <= index < len(self.source):
            raise GdifsStructureError("edge index out of range")
        arrays = (self.source, self.target, self.ratio, self.translation)
        source, target, ratio, translation = (np.delete(a, index, axis=0) for a in arrays)
        # A broadcast rotation stack (first stride 0) stays one.
        rotation = self.rotation
        rotation = rotation[1:] if rotation.strides[0] == 0 else np.delete(rotation, index, axis=0)
        arrays = (source, target, ratio, rotation, translation)
        return GDIFS(self.vertex_count, *arrays, name=self.name)


def _reach(pattern: np.ndarray) -> np.ndarray:
    """Reachability of a q x q boolean arc pattern, each vertex reaching itself.

    Squares pattern | I until the product stops changing; each entry of the
    0/1 float64 product counts at most q paths, which float64 holds exactly.
    """
    reach = pattern | np.eye(len(pattern), dtype=bool)
    while True:
        paths = reach.astype(float)
        squared = paths @ paths > 0
        if np.array_equal(squared, reach):
            return reach
        reach = squared


def _components(pattern: np.ndarray) -> list[list[int]]:
    """The distinct rows of reach & reach^T, each listing one component's
    vertices in increasing order; components come in order of least vertex."""
    reach = _reach(pattern)
    mutual = reach & reach.T
    first = np.unique(mutual, axis=0, return_index=True)[1]
    return [np.flatnonzero(mutual[v]).tolist() for v in np.sort(first)]


def strongly_connected_components(vertex_count: int, arcs) -> list[list[int]]:
    """Strongly connected components; arcs is an iterable of (source, target)."""
    ends = np.array(list(arcs), dtype=np.intp).reshape(-1, 2)
    pattern = np.zeros((vertex_count, vertex_count), dtype=bool)
    pattern[ends[:, 0], ends[:, 1]] = True
    return _components(pattern)


def is_strongly_connected(g: GDIFS) -> bool:
    """Every vertex reaches every other along the edges."""
    q = g.vertex_count
    pattern = np.zeros(q * q, dtype=bool)
    pattern[g._cell] = True
    return bool(_reach(pattern.reshape(q, q)).all())


def _perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """(rho, v): the eigenvalue of a nonnegative matrix with the largest real
    part, which is rho(A) by Perron-Frobenius, and its right eigenvector."""
    w, v = np.linalg.eig(a)
    i = int(np.argmax(w.real))
    return float(w[i].real), v[:, i].real


def spectral_radius(a) -> float:
    """Largest absolute eigenvalue of a nonnegative matrix.

    The largest Perron root over the strongly connected components of the
    positivity pattern: one eig of a whole reducible matrix can lose half the
    digits of a repeated block root, one per diagonal block does not.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GeometryError("matrix must be square")
    if (a < 0).any():
        raise GeometryError("matrix must be entrywise nonnegative")
    comps = _components(a != 0)
    return max((_perron(a[np.ix_(comp, comp)])[0] for comp in comps), default=0.0)


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


# Most Newton or bisection steps of the dimension solver.
_DIMENSION_MAX_ITER = 100


def _dimension_root(cell: np.ndarray, log_ratio: np.ndarray, q: int):
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
        rho, v = _perron(a)
        u = _perron(a.T)[1]
        return rho, float(u @ da @ v) / (rho * float(u @ v))

    rho, slope = evaluate(0.0)
    if rho - 1.0 < -tau:
        raise NumericFailureError("function already negative at s=0")
    if abs(rho - 1.0) <= tau:
        return 0.0, rho - 1.0, 0
    s, lo, hi = 0.0, 0.0, math.inf
    for it in range(1, _DIMENSION_MAX_ITER + 1):
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
    zeros = np.zeros(len(ifs), dtype=np.intp)
    return GDIFS(1, zeros, zeros, ifs.ratios, ifs.rotations, ifs.translations, name=ifs.name)
