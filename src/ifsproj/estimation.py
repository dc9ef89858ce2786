"""Attractor sampling, box counting, and covering-sum upper bounds.

Box dimension is a valid numerical proxy for the Hausdorff dimension of a
self-similar set, which justifies all estimators here as desk-scale checks
of the exact dimension statements.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    DimensionMismatchError,
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    _fixed_points,
)


_BOUNDS_BLOCK = 1024  # rows per block of column_bounds' contiguous reductions
_CHAOS_BLOCK = 16  # chaos-game steps whose map choices are drawn at once
_TREE_BLOCK_BYTES = 2**19  # bytes of one block of word-tree images


class SamplingMethod(enum.Enum):
    DETERMINISTIC_DEPTH = "deterministic_depth"
    CHAOS_GAME = "chaos_game"


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    seed: int
    method: SamplingMethod
    source_hash: str
    depth: int | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def diameter(self) -> float:
        lo, hi = column_bounds(self.points)
        return float(np.linalg.norm(hi - lo))


def column_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``points.min(axis=0)`` and ``points.max(axis=0)``, faster: numpy
    reduces a tall array along axis 0 a few values at a time.  A C-ordered
    array with d > 1 is reduced as rows of ``_BOUNDS_BLOCK * d`` contiguous
    values whose columns are folded afterwards (min and max are exact, so the
    order does not matter); any other array one column at a time."""
    n, d = points.shape
    k = n - n % _BOUNDS_BLOCK
    if d == 1 or k == 0 or not points.flags.c_contiguous:
        return np.array([col.min() for col in points.T]), np.array([col.max() for col in points.T])
    blocks, rest = points[:k].reshape(-1, _BOUNDS_BLOCK * d), points[k:]
    lo = np.concatenate([blocks.min(axis=0).reshape(-1, d), rest]).min(axis=0)
    hi = np.concatenate([blocks.max(axis=0).reshape(-1, d), rest]).max(axis=0)
    return lo, hi


def ifs_digest(ifs: SSIFS) -> str:
    """sha256 of each map's ratio, rotation and translation, map by map."""
    m = len(ifs)
    rows = np.column_stack([ifs.ratios, ifs.rotations.reshape(m, -1), ifs.translations])
    return hashlib.sha256(rows.tobytes()).hexdigest()


def sample_attractor(
    ifs: SSIFS,
    n: int,
    seed: int = 0,
    method: SamplingMethod = SamplingMethod.DETERMINISTIC_DEPTH,
) -> PointCloud:
    """Sample the attractor.

    Deterministic mode enumerates the depth-k images of the first map's fixed
    point, for the smallest k with m^k >= n: row i m^(k-1) + r of the
    C-ordered (m^k, d) output is map i's image of point r of level k - 1.
    Levels 0 .. k - 1 hold one point per column of a single (d, m^(k-1))
    buffer (1/m of the output): level j is its last m^j columns, and level
    j + 1 is written over the last m^(j+1).  Each level is read in blocks of
    w columns, and one matmul of the stacked rotations (m d, d) with a block
    gives every map's image of it at once, m d rows of w values in one
    buffer of at most ``_TREE_BLOCK_BYTES``.  Each row is scaled and shifted
    in place and copied to its map's columns of the next level, or to one
    coordinate of the output's rows on the last level.  Map m - 1's images of
    a block land on the block's own columns, which the matmul has already
    read, so no level is copied.

    The chaos game iterates uniformly chosen maps from the fixed point (the
    start lies on the attractor, so a burn-in of 100 steps is kept only for
    contract parity) on 1024 parallel chains.  Each step applies every map to
    every chain with one matmul against the stacked R_i^T and gathers each
    chain's chosen image straight into the output.

    Both modes run, per coordinate, the IEEE operations of
    ``Similarity.__call__`` in its order: the matmul, then ``* ratio``, then
    ``+ translation``.  BLAS gives each entry of a product the same rounding
    whatever the number of rows or columns, but a product with a single row
    or column runs another kernel.  So the tree's block width w is a power
    of m and at least m: it divides every level past the root, and only the
    root's one point is multiplied alone, as ``Similarity.__call__`` would
    multiply it.  In the chaos game a map that one chain alone draws is
    applied to that row alone.  The output stays C-ordered, since
    ``LinearMap.__call__`` projects a column-major cloud to other bits.  So
    the points are bitwise those of applying the maps one by one, as the
    per-map oracles in the tests check.
    """
    if n < 1:
        raise GeometryError("need n >= 1")
    digest = ifs_digest(ifs)
    m, d = ifs.translations.shape
    ratios, rotations, translations = ifs.ratios.tolist(), ifs.rotations, ifs.translations
    x0 = _fixed_points(ifs.ratios[:1], rotations[:1], translations[:1])[0]
    if method is SamplingMethod.DETERMINISTIC_DEPTH:
        depth = 0
        while m**depth < n:
            depth += 1
        points = np.empty((m**depth, d))
        if depth == 0:
            points[0] = x0
            return PointCloud(points, seed, method, digest, depth)
        levels = np.empty((d, m ** (depth - 1)))
        levels[:, -1] = x0
        width = m  # the widest power of m, from m on, whose images fit the block bytes
        while 8 * m * d * m * width <= _TREE_BLOCK_BYTES:
            width *= m
        stacked = rotations.reshape(m * d, d)
        scale = np.repeat(ifs.ratios, d)[:, None]
        shift = translations.reshape(m * d, 1)
        images = np.empty(m * d * min(width, levels.shape[1]))
        for k in range(depth):
            size = m**k
            w = min(width, size)
            block = images[: m * d * w].reshape(m * d, w)
            source = levels[:, -size:]
            # Point r of map i's image goes to target[i, r], an (m, size, d) view.
            if k == depth - 1:
                target = points.reshape(m, size, d)
            else:
                target = levels[:, -m * size :].reshape(d, m, size).transpose(1, 2, 0)
            for c in range(0, size, w):
                np.matmul(stacked, source[:, c : c + w], out=block)
                block *= scale
                block += shift
                for i in range(m):
                    for j in range(d):
                        target[i, c : c + w, j] = block[i * d + j]
        return PointCloud(points, seed, method, digest, depth)

    rng = np.random.default_rng(seed)
    burn_in = 100
    # Many parallel chains keep the sequential chaos game vectorized; block
    # assignment is fixed, so the output is reproducible for a fixed seed.
    chains = min(n, 1024)
    steps = burn_in + -(-n // chains)
    # Map i applied to chain c is row c * m + i of the (chains * m, d) view of
    # images.  Ratios and translations are tiled to the full (chains, m * d)
    # shape: broadcasting along a short axis is several times slower.
    stacked_rt = np.ascontiguousarray(np.concatenate(rotations.transpose(0, 2, 1), axis=1))
    tiled_ratios = np.tile(np.repeat(ratios, d), (chains, 1))
    tiled_translations = np.tile(translations.ravel(), (chains, 1))
    images = np.empty((chains, m * d))
    flat_images = images.reshape(chains * m, d)
    base = np.arange(chains) * m
    x = np.tile(x0, (chains, 1))
    collected = np.empty((steps - burn_in, chains, d))
    for step, (row, lone) in enumerate(_chaos_choices(rng, m, steps, chains)):
        np.matmul(x, stacked_rt, out=images)
        images *= tiled_ratios
        images += tiled_translations
        for i in lone:
            c = int(np.flatnonzero(row == i)[0])
            image = ratios[i] * (x[c : c + 1] @ rotations[i].T) + translations[i]
            flat_images[c * m + i] = image[0]
        if step >= burn_in:
            x = collected[step - burn_in]
        # mode="clip" writes straight into out; "raise" would buffer it.
        np.take(flat_images, base + row, axis=0, out=x, mode="clip")
    points = collected.reshape(-1, d)[:n]
    return PointCloud(points, seed, SamplingMethod.CHAOS_GAME, digest)


def _chaos_choices(rng: np.random.Generator, m: int, steps: int, chains: int):
    """Per step, the map each chain draws and the maps one chain alone draws
    (whose image takes the one-row product, as ``Similarity.__call__`` would).
    Drawn ``_CHAOS_BLOCK`` steps at a time, which continues the stream of
    doubles one ``rng.choice(m, size=(steps, chains), p=weights)`` call would
    read for uniform weights.  That call builds the cdf below and picks, for
    each double, the number of cdf entries at or below it (a right-sided
    ``searchsorted``); counting the m - 1 inner edges gives the same maps."""
    cdf = np.full(m, 1.0 / m).cumsum()
    cdf /= cdf[-1]
    offsets = np.arange(0, _CHAOS_BLOCK * m, m)[:, None]
    for first in range(0, steps, _CHAOS_BLOCK):
        uniform = rng.random((min(_CHAOS_BLOCK, steps - first), chains))
        choices = np.zeros(uniform.shape, dtype=np.int64)
        for edge in cdf[:-1]:
            choices += uniform >= edge
        draws = np.bincount((choices + offsets[: len(choices)]).ravel(), minlength=len(choices) * m)
        lone = draws.reshape(-1, m) == 1
        for row, lone_maps, any_lone in zip(choices, lone, lone.any(axis=1).tolist()):
            yield row, (np.flatnonzero(lone_maps) if any_lone else ())


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    r_squared: float


# Halving a quotient is exact while it stays above the subnormal range.
_TINY = np.finfo(float).tiny
_INT64_LIMIT = 2.0**63


def _floor_cells(column: np.ndarray, scale: float, guard: float = 0.0):
    """floor(column / scale) as int64 cells, their min and max as ints, and
    whether every negative quotient is at most -guard."""
    with np.errstate(over="ignore"):
        q = np.divide(column, scale)
    lo, hi = np.floor(q.min()), np.floor(q.max())  # floor is monotone
    if not (-_INT64_LIMIT <= lo and hi < _INT64_LIMIT):
        raise GeometryError(
            f"box counting needs finite points with |x|/scale < 2^63 (scale {scale:g})"
        )
    # A quotient in (-guard, 0) is one above -guard that is not >= 0.
    clear = not guard or lo >= 0 or np.count_nonzero(q > -guard) == np.count_nonzero(q >= 0)
    np.floor(q, out=q)
    cells = q.view(np.int64)
    cells[...] = q  # element-wise in-place cast: no second n-length buffer
    return cells, int(lo), int(hi), clear


def _narrowed(key: np.ndarray) -> np.ndarray:
    """The int64 ``key`` as int32 over the front of its own buffer.  Chunk
    [a, 2a) fills the bytes of int64 values [a/2, a), already read, so only
    the first chunk overlaps its source (numpy buffers that small copy)."""
    out = key.view(np.int32)[: key.size]
    done = 0
    while done < key.size:
        end = min(max(2 * done, 4096), key.size)
        out[done:end] = key[done:end]
        done = end
    return out


def _distinct_cells(column, d: int) -> np.ndarray:
    """Distinct rows, as an (m, d) int64 array, of the cells whose j-th column
    ``column(j)`` returns as a fresh int64 array, with its min and max.

    One mixed-radix key per row; only the key and one column are alive at a
    time.  When the key's radix (the product of the column spans) is at most
    the number of rows, each key marks its entry of a one-byte occupancy mask
    and the marked entries are read back in order.  Otherwise the key is
    sorted in place and compared with its neighbour; when the radix is below
    2^31, so that every key and radix fits int32, the int64 key is first
    narrowed to int32 in place, which halves the bytes the sort moves.  When
    the radix would overflow int64 the rows are sorted with ``np.lexsort``
    instead.
    """
    key = None
    los, radices = [], []
    radix = 1
    for j in range(d):
        cells, lo, hi = column(j)
        if radix * (hi - lo + 1) >= 2**63:
            return _distinct_rows_lexsort(np.stack([column(i)[0] for i in range(d)], axis=1))
        cells -= lo
        if key is None:
            key = cells
        else:
            cells *= radix
            key += cells
        los.append(lo)
        radices.append(radix)
        radix *= hi - lo + 1
        del cells  # freed before the next column is floored
    if radix <= key.size:
        occupied = np.zeros(radix, dtype=bool)
        occupied[key] = True
        key = np.flatnonzero(occupied)
    else:
        if radix < 2**31:
            key = _narrowed(key)
        key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    out = np.empty((key.size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j], key = np.divmod(key, radices[j])
        out[:, j] += los[j]
    return out


def _distinct_rows_lexsort(cells: np.ndarray) -> np.ndarray:
    rows = cells[np.lexsort(cells.T)]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def box_counts(points: np.ndarray, scales) -> list[int]:
    """Occupied origin-anchored grid boxes of side s, for each s in ``scales``
    (counts in the order the scales are given).

    Each count is the number of distinct cells floor(x / s) over the points.
    When the scales, sorted from coarse to fine, halve exactly
    (s[i] == 2 s[i+1]), the points are quantised only once, at the finest
    scale, and each coarser count comes from shifting the distinct cells of
    the next finer scale right by one bit.  This is exact: the correctly
    rounded quotient x / (2 s) is exactly half of x / s unless it is
    subnormal, and floor(y / 2) = floor(y) >> 1 for an arithmetic shift.  If
    some negative point's quotient at the finest scale is small enough that
    a halving could underflow (e.g. x = -5e-324), or the scales do not halve,
    every scale is quantised and counted on its own by the same kernel.

    Raises GeometryError for a non-positive or non-finite scale, and for
    points that are not finite or whose |x| / scale reaches 2^63.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    scales = [float(s) for s in scales]
    if not all(0.0 < s < math.inf for s in scales):
        raise GeometryError("scale must be positive and finite")
    n, d = points.shape
    if n == 0:
        return [0] * len(scales)
    order = sorted(range(len(scales)), key=lambda i: -scales[i])
    counts = [0] * len(scales)
    ladder = [scales[i] for i in order]
    halving = len(ladder) > 1 and all(a == 2.0 * b for a, b in zip(ladder, ladder[1:]))
    if halving:
        guard = 2.0 * _TINY * (ladder[0] / ladder[-1])  # tiny 2^len, inf on overflow
        clear, bounds = [True] * d, [None] * d

        def finest(j):
            cells, lo, hi, clear[j] = _floor_cells(points[:, j], ladder[-1], guard)
            bounds[j] = (lo, hi)
            return cells, lo, hi

        cells = _distinct_cells(finest, d)
        if all(clear):
            counts[order[-1]] = len(cells)
            for i in reversed(order[:-1]):
                # c >> 1 is monotone: it shifts each column's min and max.
                bounds = [(lo >> 1, hi >> 1) for lo, hi in bounds]
                cells = _distinct_cells(lambda j: (cells[:, j] >> 1, *bounds[j]), d)
                counts[i] = len(cells)
            return counts
    for i, s in enumerate(scales):
        counts[i] = len(_distinct_cells(lambda j: _floor_cells(points[:, j], s)[:3], d))
    return counts


def box_count(points: np.ndarray, scale: float) -> int:
    """Occupied origin-anchored grid boxes of side ``scale``."""
    return box_counts(points, [scale])[0]


def default_scales(cloud: PointCloud) -> list[float]:
    """Dyadic ladder 2^-3 .. 2^-10 relative to the cloud diameter."""
    diam = cloud.diameter()
    if diam == 0.0:
        diam = 1.0
    return [diam * 2.0**-k for k in range(3, 11)]


def _fit(log_inv_scale: np.ndarray, log_counts: np.ndarray):
    slope, intercept = np.polyfit(log_inv_scale, log_counts, 1)
    predicted = slope * log_inv_scale + intercept
    ss_res = float(np.sum((log_counts - predicted) ** 2))
    ss_tot = float(np.sum((log_counts - log_counts.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def box_dim(cloud: PointCloud, scales) -> BoxDimEstimate:
    """Least-squares box-counting slope over the given scale ladder.

    The two coarsest scales are dropped when the initial fit has r^2 < 0.99
    (lattice transients).
    """
    scales = sorted((float(s) for s in scales), reverse=True)
    if len(scales) < 2:
        raise GeometryError("need at least two scales")
    if len(cloud) < 100:
        raise GeometryError("need at least 100 points")
    counts = box_counts(cloud.points, scales)
    if len(set(counts)) == 1:
        if counts[0] == 1:
            return BoxDimEstimate(0.0, tuple(scales), tuple(counts), 1.0)
        raise GeometryError("degenerate fit: all box counts equal")
    log_inv = np.log(1.0 / np.array(scales))
    log_n = np.log(np.array(counts, dtype=float))
    slope, r2 = _fit(log_inv, log_n)
    if r2 < 0.99 and len(scales) > 4:
        slope, r2 = _fit(log_inv[2:], log_n[2:])
    return BoxDimEstimate(slope, tuple(scales), tuple(counts), r2)


def project_cloud(cloud: PointCloud, linear_map: LinearMap) -> PointCloud:
    if linear_map.domain_dim != cloud.ambient_dim:
        raise DimensionMismatchError(
            f"cannot apply a map on R^{linear_map.domain_dim} to a cloud in R^{cloud.ambient_dim}"
        )
    return replace(cloud, points=linear_map(cloud.points))


def covering_sums(cloud: PointCloud, t: float, scales) -> tuple[list[int], list[float]]:
    """Grid-cover upper bounds on the t-dimensional Hausdorff content, one per
    scale in the order given: N(s) (s sqrt(d))^t.  Returns (counts, sums);
    a sum that overflows raises NumericFailureError."""
    if not (math.isfinite(t) and t > 0):
        raise GeometryError("t must be finite and positive")
    counts = box_counts(cloud.points, scales)
    side = math.sqrt(cloud.ambient_dim)
    try:
        sums = [count * (float(s) * side) ** t for count, s in zip(counts, scales)]
        if all(map(math.isfinite, sums)):
            return counts, sums
    except OverflowError:
        pass
    raise NumericFailureError(f"a covering sum at t = {t} overflows")


def covering_sum_upper_bound(cloud: PointCloud, t: float, scale: float) -> float:
    """Grid-cover upper bound on the t-dimensional Hausdorff content."""
    return covering_sums(cloud, t, [scale])[1][0]
