"""Constructive procedures on self-similar systems.

Implements the projection graph-directed system for a finite rotation group,
the dimension-dropping projection built from an exact overlap, the
strong-separation subsystem extraction, and greedy disjoint-cylinder
selection with a rotation target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dimension import (
    GDIFS,
    DimensionReport,
    GdifsStructureError,
    _moran_report,
    is_strongly_connected,
    sim_dim_gdifs,
    sim_dim_ssifs,
)
from .geometry import (
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    Subspace,
    Word,
    WordLevel,
    _fixed_points,
    _row_max_abs,
    attractor_bounding_ball,
)
from .groups import (
    TransformationGroup,
    _RotationTable,
    _store_new,
    group_closure,
    kronecker_power,
    rotation_distance,
)

# Longest corrector word, and most rotations a corrector search visits.
_CORRECTOR_LENGTH_CAP = 200
_CORRECTOR_STATE_CAP = 4096
# Most powers tried to separate the seed (or fallback) cylinder balls.
_MAX_POWER_ROUNDS = 12
# No level search (dimension drop, packing, cylinders) builds more words than this.
_WORD_BUDGET = 300000
# Most powers of a lead generator tried to move a fixed point apart.
_FIXED_POINT_POWER_CAP = 64
# Most candidate ball pairs the disjointness sweep tests at once; each pair's
# temporaries take about 100 bytes, so a block stays near 0.4 MB.
_PAIR_CHUNK = 1 << 12


class HypothesisViolationError(GeometryError):
    """An input violates a structural hypothesis (infinite group, etc.)."""


@dataclass(frozen=True)
class ProjectionGdifsResult:
    gdifs: GDIFS
    group: TransformationGroup
    # None for a word level, whose similarity dimension nothing reads.
    source_dim: float | None


def build_projection_gdifs(ifs: SSIFS | WordLevel, linear_map: LinearMap) -> ProjectionGdifsResult:
    """Graph-directed system whose attractor tuple is (L(O_1 K), ..., L(O_q K)).

    Vertices are the elements of the (finite) rotation group; there is an
    edge from i to j for every map index n with O_i T_n = O_j, carrying the
    homothety x -> r_n x + L(O_i(v_n)).  Edges are emitted in (vertex, map)
    order.  A word level stands for its depth-iterated system; its words
    are read as they are, with no second check of the system and no
    similarity dimension.
    """
    if isinstance(ifs, WordLevel):
        ratios, rotations, translations = ifs.ratio, ifs.rotation, ifs.translation
        name = ifs.ifs.name
    else:
        ratios, rotations, translations = ifs.ratios, ifs.rotations, ifs.translations
        name = ifs.name
    d, m = translations.shape[1], len(ratios)
    if linear_map.operator_norm() == 0.0:
        raise GeometryError("linear map must be nonzero")
    if linear_map.domain_dim != d:
        raise GeometryError("linear map domain does not match the system dimension")
    group = group_closure(rotations)
    if not group.is_finite:
        raise HypothesisViolationError(
            "rotation group closure exceeded the cap; the projection "
            "graph-directed construction needs a finite group"
        )
    d2, q = linear_map.codomain_dim, group.order
    targets = group.indices_of((group.elements[:, None] @ rotations[None]).reshape(-1, d, d))
    translation = np.einsum("lj,ijk,nk->inl", linear_map.matrix, group.elements, translations)
    gdifs = GDIFS(
        q,
        np.repeat(np.arange(q), m),
        targets,
        np.tile(ratios, q),
        np.broadcast_to(np.eye(d2), (q * m, d2, d2)),
        translation.reshape(q * m, d2),
        name=name,
    )
    if not is_strongly_connected(gdifs):
        raise NumericFailureError("projection graph is unexpectedly not strongly connected")
    source_dim = None if isinstance(ifs, WordLevel) else _moran_report(ratios).value
    return ProjectionGdifsResult(gdifs, group, source_dim)


@dataclass(frozen=True)
class OverlapWitness:
    word_a: Word
    word_b: Word


@dataclass(frozen=True)
class DimensionDropResult:
    subspace: Subspace
    dropped_gdifs: GDIFS
    s_original: float
    s_reduced: float
    overlap_witness: OverlapWitness
    group: TransformationGroup


def _extended(level: WordLevel, error: str) -> WordLevel:
    """The next level, or NumericFailureError(error with {depth} filled in)
    if it would hold more than _WORD_BUDGET words."""
    if len(level) * len(level.ifs) > _WORD_BUDGET:
        raise NumericFailureError(error.format(depth=level.depth + 1))
    return level.extend()


def _identity_equal_ratio_pair(level: WordLevel, tau: float) -> tuple[int, int] | None:
    """The lexicographically first pair ka < kb of identity-rotation words
    of the level with |r_ka - r_kb| <= tau, or None.

    Sorted by ratio, the identity words fall into runs whose consecutive
    gaps are at most tau, and every pair within tau lies in one run.  A word
    in a run of two or more has a partner (a neighbour), and one alone has
    none; so ka is the first word in such a run and kb its first partner.
    """
    d = level.ifs.ambient_dim
    off_identity = _row_max_abs(level.rotation - np.eye(d))
    words = np.flatnonzero(off_identity <= 10.0 * tolerances.tau_orth())
    ratio = level.ratio[words]
    order = np.argsort(ratio, kind="stable")
    close = np.diff(ratio[order]) <= tau
    paired = np.zeros(len(words), dtype=bool)
    paired[order[1:][close]] = True
    paired[order[:-1][close]] = True
    if not paired.any():
        return None
    a = int(np.argmax(paired))
    partners = np.flatnonzero(np.abs(ratio - ratio[a]) <= tau)
    return int(words[a]), int(words[partners[partners > a][0]])


def find_dimension_drop(ifs: SSIFS, l: int) -> DimensionDropResult:
    """A projection subspace M with dim(Pi_M(K)) strictly below the similarity dim.

    Searches increasing word depths for the first pair of words with identity
    rotation and equal ratio (lexicographically smallest pair); the difference
    of their translations gives the direction annihilated by Pi_M, making the
    two projected cylinders coincide exactly.  The projection system then has
    a duplicate self-loop at the identity vertex, whose deletion strictly
    lowers the dimension root.
    """
    d = ifs.ambient_dim
    if not 1 <= l < d:
        raise GeometryError(f"need 1 <= l < d, got l={l}, d={d}")
    group = group_closure(ifs.rotations)
    if not group.is_finite:
        raise HypothesisViolationError("dimension-drop construction needs a finite group")
    q = group.order
    tau = tolerances.tau_num()
    eye = np.eye(d)

    pair = None
    level = WordLevel.root(ifs)
    while pair is None and level.depth < 2 * q:
        level = _extended(level, "word search exceeded the budget at depth {depth}")
        pair = _identity_equal_ratio_pair(level, tau)
    if pair is None:
        raise NumericFailureError(
            "no identity-rotation equal-ratio word pair found; "
            "this contradicts the finite-group iteration argument"
        )

    ka, kb = pair
    witness = OverlapWitness(ifs.word(level.indices(ka)), ifs.word(level.indices(kb)))
    v = level.translation[ka] - level.translation[kb]
    if np.linalg.norm(v) <= tau:
        # The two maps coincide; any subspace works.
        subspace = Subspace.span_of_first_axes(d, l)
    else:
        subspace = Subspace.orthogonal_complement_of_vector(v, l)

    projection = LinearMap.projection_onto(subspace)
    built = build_projection_gdifs(level, projection)
    g = built.gdifs
    # Edges are emitted in (vertex, map) order.
    edge_a, edge_b = built.group.index_of(eye) * len(level) + np.array([ka, kb])
    if (
        abs(g.ratio[edge_a] - g.ratio[edge_b]) > tau
        or np.abs(g.translation[edge_a] - g.translation[edge_b]).max() > 10.0 * tau
    ):
        raise NumericFailureError("projected overlap witness maps do not coincide")
    # A parallel self-loop: its deletion keeps the graph strongly connected.
    reduced = g.delete_edge(int(edge_b))
    s_original = sim_dim_ssifs(ifs).value
    s_reduced = sim_dim_gdifs(reduced).value
    if not s_reduced < s_original:
        raise NumericFailureError("edge deletion failed to reduce the dimension root")
    return DimensionDropResult(subspace, reduced, s_original, s_reduced, witness, group)


@dataclass(frozen=True)
class Subsystem:
    """A word subsystem of an SSIFS with a ball-disjointness certificate."""

    words: tuple[Word, ...]
    sim_dim: DimensionReport
    exponent: float
    trivial_fallback: bool = False


def _fixed_point_change_words(ifs: SSIFS, root_radius: float) -> list[Word]:
    """One word per generator, with pairwise distinct fixed points.

    Word i is p^c * i (or q^c * i) for small c, where p, q are two generators
    with different fixed points; composing with powers of p or q perturbs a
    coinciding fixed point away from the others.
    """
    m = len(ifs)
    fps = _fixed_points(ifs.ratios, ifs.rotations, ifs.translations)
    spacing = 1e-6 * root_radius
    p = 0
    q = next(
        i for i in range(m) if np.linalg.norm(fps[i] - fps[p]) > tolerances.tau_num()
    )
    chosen: list[Word] = []
    points: list[np.ndarray] = []
    for i in range(m):
        for c in range(_FIXED_POINT_POWER_CAP):
            words = [(lead + 1,) * c + (i + 1,) for lead in (p, q)]
            level = WordLevel.of_words(ifs, words)
            fps = _fixed_points(level.ratio, level.rotation, level.translation)
            fits = [k for k in (0, 1) if all(np.linalg.norm(fps[k] - x) > spacing for x in points)]
            if fits:
                chosen.append(ifs.word(words[fits[0]]))
                points.append(fps[fits[0]])
                break
        else:
            raise NumericFailureError(f"could not separate the fixed point of generator {i + 1}")
    return chosen


def _word_tuple(level: WordLevel) -> tuple[Word, ...]:
    """The level's words as Word objects, in row order."""
    ifs, m = level.ifs, len(level.ifs)
    return tuple(ifs.word([i + 1 for i in row if i < m]) for row in level.letters.tolist())


def _kept_in_order(centers, radii, separation, pinned: int = 0) -> np.ndarray:
    """Keep-mask of balls taken in index order: ball k is kept iff
    ||c_k - c_j|| >= r_k + r_j + separation for every earlier kept ball j.
    The first `pinned` balls are kept unchecked.

    Only balls whose x-intervals [x - r - separation/2, x + r + separation/2]
    overlap can conflict, so one sort-and-sweep over those intervals finds the
    candidate pairs.  Each interval is widened by a few ulps of its bounds, so
    a pair the sweep skips would pass that predicate in floating point too.
    The candidates are tested with the predicate, a block of at most
    `_PAIR_CHUNK` pairs (or one ball's pairs) at a time, so memory stays
    bounded when many balls share an x-range.  The conflicts are then
    resolved in order of the later ball: it is dropped iff an earlier kept
    ball conflicts with it.
    """
    n = len(radii)
    x, half = centers[:, 0], radii + separation / 2.0
    pad = 8.0 * np.finfo(float).eps * (np.abs(x) + half)
    lo, hi = x - half - pad, x + half + pad
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    # Sorted interval i overlaps the next count[i] intervals; its pairs have
    # the numbers first[i] .. first[i] + count[i] - 1 in one flat range.
    count = np.searchsorted(lo, hi, side="right") - np.arange(n) - 1
    ends = np.cumsum(count)
    first = ends - count
    conflicts = [np.empty((2, 0), dtype=np.intp)]
    start = 0
    while start < n:
        # Sorted rows start .. stop - 1: at most _PAIR_CHUNK pairs, or one row.
        stop = max(start + 1, int(np.searchsorted(ends, first[start] + _PAIR_CHUNK, side="right")))
        i = np.repeat(np.arange(start, stop), count[start:stop])
        a, b = order[i], order[i + 1 + first[start] + np.arange(len(i)) - first[i]]
        j, k = np.minimum(a, b), np.maximum(a, b)
        distance = np.linalg.norm(centers.take(j, axis=0) - centers.take(k, axis=0), axis=1)
        conflict = (k >= pinned) & ~(distance >= radii[k] + radii[j] + separation)
        conflicts.append(np.stack([j[conflict], k[conflict]]))
        start = stop
    earlier, later = np.concatenate(conflicts, axis=1)
    by_later = np.lexsort((earlier, later))
    dropped = set()
    for j, k in zip(earlier[by_later].tolist(), later[by_later].tolist()):
        if j not in dropped:
            dropped.add(k)
    kept = np.ones(n, dtype=bool)
    kept[list(dropped)] = False
    return kept


def _greedy_pack(level: WordLevel, seed_balls, center, radius, separation) -> np.ndarray:
    """Keep-mask of the level's words, taken in order after the seeds' balls:
    a word is kept iff its cylinder ball keeps the separation from every
    ball kept before it."""
    n = len(seed_balls[1])
    centers, radii = map(np.concatenate, zip(seed_balls, level.balls(center, radius)))
    return _kept_in_order(centers, radii, separation, pinned=n)[n:]


def ssc_subsystem(
    ifs: SSIFS,
    epsilon: float,
    t: float | None = None,
    osc_certified: bool = False,
    seed: int = 0,
) -> Subsystem:
    """A subsystem with pairwise disjoint cylinder balls and dimension >= t - epsilon.

    The subsystem always contains, for each generator, a power of a
    fixed-point-change word (exponent from kronecker_power), which preserves
    the density of the generated rotation group; a greedy fixed-depth packing
    of further cylinders then restores the dimension.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise GeometryError("epsilon must be finite and positive")
    if t is not None and not (math.isfinite(t) and t > 0):
        raise GeometryError("t must be finite and positive")
    s = sim_dim_ssifs(ifs).value
    estimated = False
    if t is None:
        if osc_certified:
            t = s
        else:
            from .estimation import box_dim, default_scales, sample_attractor

            cloud = sample_attractor(ifs, 10**5, seed=seed)
            t = box_dim(cloud, default_scales(cloud)).slope
            estimated = True
    center, radius = attractor_bounding_ball(ifs)
    separation = tolerances.TAU_SEP_FACTOR * 2.0 * radius

    def pack(words: WordLevel, target: float) -> Subsystem | None:
        if not _kept_in_order(*words.balls(center, radius), separation).all():
            return None
        report = _moran_report(words.ratio)
        if report.value < target:
            return None
        return Subsystem(_word_tuple(words), report, t)

    target = t - epsilon
    if target <= 0:
        # Trivial two-word fallback with a warning flag.
        base = _fixed_point_change_words(ifs, radius)[:2]
        for n in range(1, _MAX_POWER_ROUNDS + 1):
            result = pack(WordLevel.of_words(ifs, [w.indices * (2**n) for w in base]), 0.0)
            if result is not None:
                return Subsystem(result.words, result.sim_dim, t, True)
        raise NumericFailureError("failed to build even the trivial fallback subsystem")

    # The identity subsystem may already be certified.
    result = pack(WordLevel.root(ifs).extend(), target)
    if result is not None:
        return result

    # Seed words: powers of fixed-point-change words, one per generator.
    base = _fixed_point_change_words(ifs, radius)
    base_rotations = WordLevel.of_words(ifs, [w.indices for w in base]).rotation
    for n in range(1, _MAX_POWER_ROUNDS + 1):
        k = max(kronecker_power(rotation, n) for rotation in base_rotations)
        seeds = WordLevel.of_words(ifs, [w.indices * k for w in base])
        seed_balls = seeds.balls(center, radius)
        if _kept_in_order(*seed_balls, separation).all():
            break
    else:
        raise NumericFailureError("failed to separate the seed cylinder balls")

    # Greedy lexicographic packing at increasing depth, always keeping seeds.
    error = "packing depth cap reached before the dimension target; " + (
        "note: t is a box-count estimate" if estimated else "tolerances may be too strict"
    )
    level = WordLevel.root(ifs)
    while True:
        level = _extended(level, error)
        kept = _greedy_pack(level, seed_balls, center, radius, separation)
        report = _moran_report(np.concatenate([seeds.ratio, level.ratio[kept]]))
        if report.value >= target:
            return Subsystem(_word_tuple(seeds) + _word_tuple(level[kept]), report, t)


@dataclass(frozen=True)
class CylinderSelection:
    words: tuple[Word, ...]
    delta: float
    exponent: float
    mass: float
    depth_cap: int
    partial: bool
    group: TransformationGroup
    # Accepted words the disjointness certificate removed.
    dropped_words: int = 0


def _rotation_word_search(ifs: SSIFS, start: np.ndarray, target: np.ndarray, tol: float):
    """Shortlex first word w with ||start T_w - target|| < tol, or None.

    Walks the rotation Cayley graph one word length at a time: a product
    within tol / 4 of a stored rotation, or met once the search stores
    ``_CORRECTOR_STATE_CAP`` rotations, is tested but not extended.
    """
    gens = ifs.rotations
    m, d = gens.shape[:2]
    table = _RotationTable(d, max(tol / 4.0, 1e-12))
    table.add_if_new(start)
    # The stored rotations of the last length, and their words as letter rows.
    rotations, rows = start[None], np.empty((1, 0), dtype=np.int64)
    for _ in range(_CORRECTOR_LENGTH_CAP):
        products = (rotations[:, None] @ gens[None]).reshape(-1, d, d)
        hit = np.flatnonzero(np.linalg.norm(products - target, 2, axis=(1, 2)) < tol)
        if hit.size:
            k = int(hit[0])
            return (*rows[k // m].tolist(), k % m + 1)
        stored = np.flatnonzero(_store_new(table, products, _CORRECTOR_STATE_CAP))
        if not stored.size:
            return None
        rotations = products[stored]
        rows = np.column_stack([rows[stored // m], stored % m + 1])
    return None


def verify_pairwise_disjoint(words, center, radius, separation: float):
    """Indices of words whose balls conflict with an earlier kept word's ball.

    Words are taken in index order: a word is dropped iff its cylinder ball
    comes closer than the separation to the ball of an earlier word that was
    kept, so the kept words have pairwise separated balls.  Containment needs
    no special case: a repeated word has the same ball, and the ball of a
    word extending another lies inside its ancestor's ball (cylinder balls
    nest), so either always meets the earlier ball.  The balls go through
    the in-order kernel `_kept_in_order`, which tests only the pairs whose
    x-intervals overlap, so a family of well-spread words costs about a sort.
    """
    if not words:
        return set()
    level = WordLevel.of_words(words[0].ifs, [w.indices for w in words])
    kept = _kept_in_order(*level.balls(center, radius), separation)
    return set(np.flatnonzero(~kept).tolist())


def select_disjoint_cylinders(
    ifs: SSIFS,
    rotation_target,
    delta: float,
    t: float,
    mass_target: float = 0.99,
    depth_cap: int = 12,
) -> CylinderSelection:
    """Greedy selection of disjoint cylinders whose rotations approximate O.

    Walks the word tree one depth at a time, each in lexicographic order; a
    word whose rotation lands within delta of the target (exactly, for a
    finite group) is kept and its subtree pruned, others are refined.  At
    the depth cap a pre-computed corrector word is appended as a last chance
    to land near the target.  The walk stops at the first kept word that
    brings the mass to the target.  Kept cylinders are certified pairwise
    disjoint via their bounding balls; conflicting later words are dropped.
    The kept words stay level rows until the result is built.
    """
    o = np.asarray(rotation_target, dtype=float)
    if not (math.isfinite(delta) and delta > 0 and math.isfinite(t) and t > 0):
        raise GeometryError("delta and t must be finite and positive")
    if not 0 < mass_target < 1:
        raise GeometryError("mass_target must lie in (0, 1)")
    if depth_cap < 1:
        raise GeometryError("depth_cap must be at least 1")
    d = ifs.ambient_dim
    group = group_closure(ifs.rotations)
    exact_tol = 10.0 * tolerances.tau_orth() if group.is_finite else None

    # Reachability precondition: a corrector word from the identity to O.
    identity = np.eye(d)
    reach_tol = exact_tol if exact_tol is not None else delta / 2.0
    if rotation_distance(identity, o) >= reach_tol:
        if _rotation_word_search(ifs, identity, o, reach_tol) is None:
            raise NumericFailureError(
                "no corrector word reaches the target rotation; "
                "it may lie outside the semigroup closure at this tolerance"
            )

    center, radius = attractor_bounding_ball(ifs)
    separation = tolerances.TAU_SEP_FACTOR * 2.0 * radius

    def matches(rotation: np.ndarray) -> np.ndarray:
        dist = np.linalg.norm(rotation - o, 2, axis=(1, 2))
        if exact_tol is not None:
            return dist <= exact_tol
        return dist < delta

    def corrected(level: WordLevel, hit: np.ndarray) -> WordLevel:
        """The words in row order, each followed by its corrector word (the
        empty word if it matches); a word with no corrector is dropped.  Rows
        whose rotations round alike on a delta / 4 grid share the first one's."""
        rows = np.flatnonzero(~hit)
        keys = np.round(level.rotation[rows] / (delta / 4.0)).astype(int).reshape(len(rows), d * d)
        _, first, key = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        starts = level.rotation[rows[first]]
        tails = [_rotation_word_search(ifs, start, o, delta / 2.0) for start in starts]
        has_tail = hit.copy()
        has_tail[rows] = np.array([tail is not None for tail in tails], dtype=bool)[key]
        tail_letters = WordLevel.of_words(ifs, [tail or () for tail in tails]).letters
        letters = np.full((len(level), tail_letters.shape[1]), len(ifs), dtype=level.letters.dtype)
        letters[rows] = tail_letters[key]
        letters = np.concatenate([level.letters, letters], axis=1)
        return WordLevel.fold(ifs, letters[has_tail])

    # The accepted words of each depth, in order.
    accepted: list[WordLevel] = []
    mass = 0.0
    level = WordLevel.root(ifs)
    while len(level):
        level = _extended(level, "cylinder search exceeded the word budget at depth {depth}")
        hit = matches(level.rotation)
        at_cap = level.depth == depth_cap
        if at_cap:
            # Depth cap: append a corrector word as the final refinement.
            level = corrected(level, hit)
            hit = matches(level.rotation)
        # Running mass after each accepted word; stop at the first reaching the target.
        hits = level[hit]
        sums = np.cumsum([mass] + [r**t for r in hits.ratio.tolist()])
        reached = np.flatnonzero(sums[1:] >= mass_target)
        stop = int(reached[0]) + 1 if reached.size else len(hits)
        accepted.append(hits[:stop])
        mass = float(sums[stop])
        if reached.size or at_cap:
            break
        level = level[~hit]

    centers, radii = map(np.concatenate, zip(*(words.balls(center, radius) for words in accepted)))
    kept = _kept_in_order(centers, radii, separation)
    starts = np.cumsum([len(words) for words in accepted])[:-1]
    accepted = [words[keep] for words, keep in zip(accepted, np.split(kept, starts))]
    dropped = int(np.count_nonzero(~kept))
    if dropped:
        mass = math.fsum(r**t for words in accepted for r in words.ratio.tolist())
    partial = mass < mass_target
    if mass > 1.0 + tolerances.tau_num():
        raise NumericFailureError(
            f"selected mass {mass} exceeds 1; the exponent t is likely wrong"
        )
    words = sum(map(_word_tuple, accepted), ())
    return CylinderSelection(words, delta, t, mass, depth_cap, partial, group, dropped)
