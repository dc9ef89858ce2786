"""Attractor sampling, box counting, and covering sums of a sample.

Box dimension is a valid numerical proxy for the Hausdorff dimension of a
self-similar set, which justifies all estimators here as desk-scale checks
of the exact dimension statements.  A sample's box count is only a lower
bound on the set's, so its covering sums estimate, not bound, the set's.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

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
_CHUNK_ROWS = 2**17  # rows per chunk of the quantisation loop: its temporaries stay in cache


def _chunks(n: int):
    """Rows 0..n as ranges of at most ``_CHUNK_ROWS`` rows."""
    for c in range(0, n, _CHUNK_ROWS):
        yield c, min(c + _CHUNK_ROWS, n)


class SamplingMethod(enum.Enum):
    DETERMINISTIC_DEPTH = "deterministic_depth"
    CHAOS_GAME = "chaos_game"


@dataclass(frozen=True)
class PointCloud:
    """Sample points with ``bounds``, each column's (min, max) with zeros as
    0.0, and ``sample_diameter``, the diameter of the sample before any
    projection.  Whoever builds a cloud records both."""

    points: np.ndarray
    seed: int
    method: SamplingMethod
    source_hash: str
    bounds: tuple
    sample_diameter: float
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
        return _diameter(*self.bounds)


def _diameter(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.linalg.norm(hi - lo))


def column_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``points.min(axis=0)`` and ``points.max(axis=0)``, faster: numpy
    reduces a tall array along axis 0 a few values at a time.  A C-ordered
    array with d > 1 is reduced as rows of ``_BOUNDS_BLOCK * d`` contiguous
    values whose columns are folded afterwards (min and max are exact, so the
    order does not matter); any other array one column at a time.  A zero
    bound is returned as 0.0: which sign of zero a reduction keeps depends
    on the order it met them in."""
    n, d = points.shape
    k = n - n % _BOUNDS_BLOCK
    if d == 1 or k == 0 or not points.flags.c_contiguous:
        lo, hi = np.array([col.min() for col in points.T]), np.array([col.max() for col in points.T])
    else:
        blocks, rest = points[:k].reshape(-1, _BOUNDS_BLOCK * d), points[k:]
        lo = np.concatenate([blocks.min(axis=0).reshape(-1, d), rest]).min(axis=0)
        hi = np.concatenate([blocks.max(axis=0).reshape(-1, d), rest]).max(axis=0)
    return lo + 0.0, hi + 0.0


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
    linear_map: LinearMap | None = None,
) -> PointCloud:
    """Sample the attractor K, or with ``linear_map`` its image L(K).

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
    read, so no level is copied.  On the last level each block's row minima
    and maxima are taken too, and their fold gives the cloud's ``bounds``
    and ``sample_diameter``.

    With a map L the (m^k, d) sample is never built.  On the last level the
    rows go instead to a C-ordered (m w, d) scratch buffer, one block's m w
    images, and one product with L^T projects them into an (m w, l) scratch.
    Its rows are copied to the (m^k, l) output, and its column minima and
    maxima are folded while it is in cache.  That fold is the cloud's
    ``bounds``, and the diameter of the block bounds' fold its
    ``sample_diameter``, the diameter of the unprojected sample.

    The chaos game iterates uniformly chosen maps from the fixed point (the
    start lies on the attractor, so a burn-in of 100 steps is kept only for
    contract parity) on 1024 parallel chains.  Each step applies every map to
    every chain with one matmul against the stacked R_i^T and gathers each
    chain's chosen image straight into the output.  One ``column_bounds``
    pass over the collected rows gives their bounds and diameter; with a map
    L the cloud is ``project_cloud`` of them, one product with L^T and one
    pass that bounds the projection.

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
    per-map oracles in the tests check.  Each projection has more than one
    row too: a block's images of all m maps are projected together, m w >= 2
    rows even on a depth-1 tree, and only the one point of n = 1 is projected
    alone, as ``project_cloud`` projects it.  So a projected sample is bitwise
    ``project_cloud`` of the unprojected one, in every field.
    """
    if n < 1:
        raise GeometryError("need n >= 1")
    m, d = ifs.translations.shape
    if linear_map is not None:
        _check_domain(linear_map, d)
    digest = ifs_digest(ifs)
    ratios, rotations, translations = ifs.ratios.tolist(), ifs.rotations, ifs.translations
    x0 = _fixed_points(ifs.ratios[:1], rotations[:1], translations[:1])[0]
    if method is SamplingMethod.DETERMINISTIC_DEPTH:
        depth = 0
        while m**depth < n:
            depth += 1
        if depth == 0:
            points = x0[None] if linear_map is None else linear_map(x0[None])
            return PointCloud(points, seed, method, digest, column_bounds(points), 0.0, depth)
        l = d if linear_map is None else linear_map.codomain_dim
        points = np.empty((m**depth, l))
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
            last = k == depth - 1
            if last:
                target = points.reshape(m, size, l)
                lows, highs = np.empty((2, size // w, m * d))
            else:
                target = levels[:, -m * size :].reshape(d, m, size).transpose(1, 2, 0)
            # With a map, the last level's images of a block go to the scratch
            # rows, whose projection goes to the output.
            gather = last and linear_map is not None
            if gather:
                out, target = target, np.empty((m, w, d))
                projected = np.empty((m * w, l))
                projected_lows, projected_highs = np.empty((2, size // w, l))
            for c in range(0, size, w):
                np.matmul(stacked, source[:, c : c + w], out=block)
                block *= scale
                block += shift
                if last:  # the sample's bounds, folded while the block is in cache
                    block.min(axis=1, out=lows[c // w])
                    block.max(axis=1, out=highs[c // w])
                a = 0 if gather else c
                for i in range(m):
                    for j in range(d):
                        target[i, a : a + w, j] = block[i * d + j]
                if gather:
                    np.matmul(target.reshape(m * w, d), linear_map.matrix.T, out=projected)
                    projected.min(axis=0, out=projected_lows[c // w])
                    projected.max(axis=0, out=projected_highs[c // w])
                    out[:, c : c + w] = projected.reshape(m, w, l)
        lo = lows.min(axis=0).reshape(m, d).min(axis=0)
        hi = highs.max(axis=0).reshape(m, d).max(axis=0)
        sample_diameter = _diameter(lo, hi)
        if linear_map is not None:
            lo, hi = projected_lows.min(axis=0), projected_highs.max(axis=0)
        return PointCloud(points, seed, method, digest, (lo + 0.0, hi + 0.0), sample_diameter, depth)

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
    bounds = column_bounds(points)
    cloud = PointCloud(points, seed, SamplingMethod.CHAOS_GAME, digest, bounds, _diameter(*bounds))
    return cloud if linear_map is None else project_cloud(cloud, linear_map)


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


def _floor_cells(column: np.ndarray, scale: float, negative: bool, guard: float):
    """floor(column / scale) as a fresh int64 array, in one buffer, and
    whether a quotient lies in (-guard, 0).  With ``negative`` false every
    quotient is >= 0 (or -0.0), which the truncating cast already floors,
    and none lies there."""
    q = np.divide(column, scale)
    close = False
    if negative:
        close = bool(guard) and bool(np.any((q > -guard) & (q < 0)))
        np.floor(q, out=q)
    cells = q.view(np.int64)
    cells[...] = q  # element-wise in-place cast: no second buffer
    return cells, close


def _quantised(points: np.ndarray, scale: float, lows, highs, guard: float = 0.0):
    """Distinct rows of floor(points / scale), given each column's min and
    max (``lows``, ``highs``), and whether some quotient lies in (-guard, 0).
    Division by scale > 0 and floor are both monotone, so floor(min / scale)
    is the lowest cell of a column, exactly, before any row is floored.  The
    guard is checked on each chunk of quotients while it is in cache, and
    only in a column whose bounds leave room for such a quotient."""
    with np.errstate(over="ignore"):
        q_lo, q_hi = lows / scale, highs / scale
    lo, hi = np.floor(q_lo), np.floor(q_hi)
    if not (np.all(-_INT64_LIMIT <= lo) and np.all(hi < _INT64_LIMIT)):
        raise GeometryError(
            f"box counting needs finite points with |x|/scale < 2^63 (scale {scale:g})"
        )
    negative = (q_lo < 0).tolist()
    guards = [guard if neg and q > -guard else 0.0 for neg, q in zip(negative, q_hi.tolist())]
    close = []  # the columns with a quotient in (-guard, 0)

    def column(j, a, b):
        cells, near = _floor_cells(points[a:b, j], scale, negative[j], guards[j])
        if near:
            close.append(j)
        return cells

    bounds = [(int(l), int(h)) for l, h in zip(lo, hi)]
    return _distinct_cells(column, len(points), bounds), bool(close)


def _distinct_cells(column, n: int, bounds) -> np.ndarray:
    """Distinct rows, as an (m, d) int64 array, of the n rows of cells whose
    rows a..b of column j ``column(j, a, b)`` returns as a fresh int64
    array, where ``bounds[j]`` is column j's (min, max).

    One mixed-radix key per row, built a chunk of ``_CHUNK_ROWS`` rows at a
    time, so only a chunk's cells are alive.  When the key's radix (the
    product of the column spans) is at most n, each chunk marks its keys in
    a one-byte occupancy mask whose marked entries are read back in order.
    Otherwise the chunks write their keys into one buffer, int32 when the
    radix is below 2^31 and int64 otherwise, which is sorted once and
    compared with its neighbour.  When the radix would overflow int64 the
    rows are sorted with ``np.lexsort`` instead.
    """
    d = len(bounds)
    radices, radix = [], 1
    for lo, hi in bounds:
        radices.append(radix)
        radix *= hi - lo + 1
    if radix >= 2**63:
        return _distinct_rows_lexsort(np.stack([column(j, 0, n) for j in range(d)], axis=1))

    def keys(a, b):
        key = column(0, a, b)
        key -= bounds[0][0]
        for j in range(1, d):
            cells = column(j, a, b)
            cells -= bounds[j][0]
            cells *= radices[j]
            key += cells
        return key

    if radix <= n:
        occupied = np.zeros(radix, dtype=bool)
        for a, b in _chunks(n):
            occupied[keys(a, b)] = True
        key = np.flatnonzero(occupied)
    else:
        key = np.empty(n, dtype=np.int32 if radix < 2**31 else np.int64)
        for a, b in _chunks(n):
            key[a:b] = keys(a, b)
        key = _sorted_distinct(key)
    out = np.empty((key.size, d), dtype=np.int64)
    for j in range(d - 1, -1, -1):
        out[:, j], key = np.divmod(key, radices[j])
        out[:, j] += bounds[j][0]
    return out


def _sorted_distinct(key: np.ndarray) -> np.ndarray:
    """The distinct values of ``key`` in order; sorts ``key`` in place."""
    key.sort()
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return key[keep]


def _distinct_rows_lexsort(cells: np.ndarray) -> np.ndarray:
    rows = cells[np.lexsort(cells.T)]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def box_counts(points: np.ndarray, scales, bounds=None) -> list[int]:
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
    The column bounds are found once, for every scale, unless ``bounds``
    gives them: the (min, max) pair of arrays that ``column_bounds`` returns.

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
    lows, highs = column_bounds(points) if bounds is None else bounds
    order = sorted(range(len(scales)), key=lambda i: -scales[i])
    counts = [0] * len(scales)
    ladder = [scales[i] for i in order]
    halving = len(ladder) > 1 and all(a == 2.0 * b for a, b in zip(ladder, ladder[1:]))
    if halving:
        finest = ladder[-1]
        guard = 2.0 * _TINY * (ladder[0] / finest)  # tiny 2^len, inf on overflow
        cells, close = _quantised(points, finest, lows, highs, guard)
        if not close:
            counts[order[-1]] = len(cells)
            # The cells' min and max: each column's lowest and highest cell.
            bounds = [(int(c.min()), int(c.max())) for c in cells.T]
            for i in reversed(order[:-1]):
                # c >> 1 is monotone: it shifts each column's min and max.
                bounds = [(lo >> 1, hi >> 1) for lo, hi in bounds]
                cells = _distinct_cells(lambda j, a, b: cells[a:b, j] >> 1, len(cells), bounds)
                counts[i] = len(cells)
            return counts
    for i, s in enumerate(scales):
        counts[i] = len(_quantised(points, s, lows, highs)[0])
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
    counts = box_counts(cloud.points, scales, cloud.bounds)
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


def _check_domain(linear_map: LinearMap, d: int) -> None:
    if linear_map.domain_dim != d:
        raise DimensionMismatchError(
            f"cannot apply a map on R^{linear_map.domain_dim} to a cloud in R^{d}"
        )


def project_cloud(cloud: PointCloud, linear_map: LinearMap) -> PointCloud:
    """L(points), with their own bounds and the sample diameter of ``cloud``."""
    _check_domain(linear_map, cloud.ambient_dim)
    points = linear_map(cloud.points)
    return PointCloud(
        points, cloud.seed, cloud.method, cloud.source_hash, column_bounds(points),
        cloud.sample_diameter, cloud.depth,
    )


def covering_sums(cloud: PointCloud, t: float, scales) -> tuple[list[int], list[float]]:
    """Grid-cover sums N(s) (s sqrt(d))^t of the sample, one per scale in the
    order given: they bound the sample's t-dimensional Hausdorff content and
    estimate the set's.  Returns (counts, sums); an overflow raises NumericFailureError."""
    if not (math.isfinite(t) and t > 0):
        raise GeometryError("t must be finite and positive")
    counts = box_counts(cloud.points, scales, cloud.bounds)
    side = math.sqrt(cloud.ambient_dim)
    try:
        sums = [count * (float(s) * side) ** t for count, s in zip(counts, scales)]
        if all(map(math.isfinite, sums)):
            return counts, sums
    except OverflowError:
        pass
    raise NumericFailureError(f"a covering sum at t = {t} overflows")


def covering_sum_upper_bound(cloud: PointCloud, t: float, scale: float) -> float:
    """``covering_sums`` at one scale: a bound for the sample, not for the set."""
    return covering_sums(cloud, t, [scale])[1][0]
