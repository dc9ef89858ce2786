"""Constructive procedures on self-similar systems.

Implements the projection graph-directed system for a finite rotation group,
the dimension-dropping projection built from an exact overlap, the
strong-separation subsystem extraction, greedy disjoint-cylinder selection
with a rotation target, and the annihilating-rotation search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .dimension import (
    GDIFS,
    DimensionReport,
    GdifsStructureError,
    is_strongly_connected,
    sim_dim_gdifs,
    sim_dim_ssifs,
    sim_dim_words,
)
from .geometry import (
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    Similarity,
    Subspace,
    Word,
    WordLevel,
    attractor_bounding_ball,
    cylinder_ball,
)
from .groups import TransformationGroup, _RotationTable, group_closure, rotation_distance


class HypothesisViolationError(GeometryError):
    """An input violates a structural hypothesis (infinite group, etc.)."""


@dataclass(frozen=True)
class ProjectionGdifsResult:
    gdifs: GDIFS
    group: TransformationGroup
    source_dim: float

    @property
    def vertex_labels(self) -> tuple[np.ndarray, ...]:
        return self.group.elements


def build_projection_gdifs(ifs: SSIFS | WordLevel, linear_map: LinearMap) -> ProjectionGdifsResult:
    """Graph-directed system whose attractor tuple is (L(O_1 K), ..., L(O_q K)).

    Vertices are the elements of the (finite) rotation group; there is an
    edge from i to j for every map index n with O_i T_n = O_j, carrying the
    homothety x -> r_n x + L(O_i(v_n)).  Edges are emitted in (vertex, map)
    order.  A word level stands for its depth-iterated system.
    """
    if isinstance(ifs, WordLevel):
        ifs = ifs.system()
    if linear_map.operator_norm() == 0.0:
        raise GeometryError("linear map must be nonzero")
    if linear_map.domain_dim != ifs.ambient_dim:
        raise GeometryError("linear map domain does not match the system dimension")
    group = group_closure(ifs.rotations)
    if not group.is_finite:
        raise HypothesisViolationError(
            "rotation group closure exceeded the cap; the projection "
            "graph-directed construction needs a finite group"
        )
    d, d2, m, q = ifs.ambient_dim, linear_map.codomain_dim, len(ifs), group.order
    elements = np.array(group.elements)
    targets = group.indices_of((elements[:, None] @ ifs.rotations[None]).reshape(-1, d, d))
    translation = np.einsum("lj,ijk,nk->inl", linear_map.matrix, elements, ifs.translations)
    gdifs = GDIFS.from_arrays(
        q,
        np.repeat(np.arange(q), m),
        targets,
        np.tile(ifs.ratios, q),
        np.broadcast_to(np.eye(d2), (q * m, d2, d2)),
        translation.reshape(q * m, d2),
        name=ifs.name,
    )
    if not is_strongly_connected(gdifs):
        raise NumericFailureError("projection graph is unexpectedly not strongly connected")
    source_dim = sim_dim_ssifs(ifs).value
    return ProjectionGdifsResult(gdifs, group, source_dim)


@dataclass(frozen=True)
class OverlapWitness:
    word_a: Word
    word_b: Word
    shared_image_map: Similarity


@dataclass(frozen=True)
class DimensionDropResult:
    subspace: Subspace
    dropped_gdifs: GDIFS
    s_original: float
    s_reduced: float
    overlap_witness: OverlapWitness
    group: TransformationGroup


def _identity_equal_ratio_pair(level: WordLevel, tau: float) -> tuple[int, int] | None:
    """The lexicographically first pair ka < kb of identity-rotation words
    of the level with |r_ka - r_kb| <= tau, or None.

    Sorted by ratio, the identity words fall into runs whose consecutive
    gaps are at most tau, and every pair within tau lies in one run.  A word
    in a run of two or more has a partner (a neighbour), and one alone has
    none; so ka is the first word in such a run and kb its first partner.
    """
    d = level.ifs.ambient_dim
    off_identity = np.abs(level.rotation - np.eye(d)).max(axis=(1, 2))
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


def find_dimension_drop(ifs: SSIFS, l: int, word_budget: int = 300000) -> DimensionDropResult:
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
    m = len(ifs)
    tau = tolerances.tau_num()
    eye = np.eye(d)

    pair = None
    level = WordLevel.root(ifs)
    while pair is None and level.depth < 2 * q:
        if len(level) * m > word_budget:
            raise NumericFailureError(
                f"word search exceeded the budget at depth {level.depth + 1}"
            )
        level = level.extend()
        pair = _identity_equal_ratio_pair(level, tau)
    if pair is None:
        raise NumericFailureError(
            "no identity-rotation equal-ratio word pair found; "
            "this contradicts the finite-group iteration argument"
        )

    ka, kb = pair
    word_a = ifs.word(level.indices(ka))
    word_b = ifs.word(level.indices(kb))
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
    reduced = g.delete_edge(int(edge_b))
    if not is_strongly_connected(reduced):
        raise NumericFailureError("reduced projection graph lost strong connectivity")
    s_original = sim_dim_ssifs(ifs).value
    s_reduced = sim_dim_gdifs(reduced).value
    if not s_reduced < s_original:
        raise NumericFailureError("edge deletion failed to reduce the dimension root")
    return DimensionDropResult(
        subspace,
        reduced,
        s_original,
        s_reduced,
        OverlapWitness(word_a, word_b, g.edge(int(edge_a)).map),
        group,
    )


def _balls_disjoint(ball_a, ball_b, separation: float) -> bool:
    (ca, ra), (cb, rb) = ball_a, ball_b
    return float(np.linalg.norm(ca - cb)) >= ra + rb + separation


@dataclass(frozen=True)
class Subsystem:
    """A word subsystem of an SSIFS with a ball-disjointness certificate."""

    words: tuple[Word, ...]
    system: SSIFS
    sim_dim: DimensionReport
    exponent: float
    epsilon: float
    trivial_fallback: bool = False


def _fixed_point_change_words(ifs: SSIFS, root_radius: float, cap: int = 64) -> list[Word]:
    """One word per generator, with pairwise distinct fixed points.

    Word i is p^c * i (or q^c * i) for small c, where p, q are two generators
    with different fixed points; composing with powers of p or q perturbs a
    coinciding fixed point away from the others.
    """
    m = len(ifs)
    fps = [s.fixed_point() for s in ifs]
    spacing = 1e-6 * root_radius
    p = 0
    q = next(
        i for i in range(m) if np.linalg.norm(fps[i] - fps[p]) > tolerances.tau_num()
    )
    chosen: list[Word] = []
    points: list[np.ndarray] = []
    for i in range(m):
        found = None
        for c in range(cap):
            for lead in (p, q):
                w = ifs.word((lead + 1,) * c + (i + 1,))
                fp = w.composed.fixed_point()
                if all(np.linalg.norm(fp - x) > spacing for x in points):
                    found = (w, fp)
                    break
            if found:
                break
        if found is None:
            raise NumericFailureError(
                f"could not separate the fixed point of generator {i + 1}"
            )
        chosen.append(found[0])
        points.append(found[1])
    return chosen


def _greedy_pack(level: WordLevel, seeds, center, radius, separation) -> list[Word]:
    """The seeds, then each word of the level in order whose cylinder ball
    keeps the separation from every ball kept before it."""
    d = level.ifs.ambient_dim
    seed_balls = [cylinder_ball(w, center, radius) for w in seeds]
    centers, radii = level.balls(center, radius)
    # Rows from n on are overwritten as words are kept.
    kept_centers = np.concatenate([np.reshape([c for c, _ in seed_balls], (-1, d)), centers])
    kept_radii = np.concatenate([[r for _, r in seed_balls], radii])
    packed = list(seeds)
    n = len(seeds)
    for k in range(len(level)):
        c, r = centers[k], radii[k]
        distance = np.linalg.norm(kept_centers[:n] - c, axis=1)
        if (distance >= r + kept_radii[:n] + separation).all():
            packed.append(level.ifs.word(level.indices(k)))
            kept_centers[n], kept_radii[n] = c, r
            n += 1
    return packed


def ssc_subsystem(
    ifs: SSIFS,
    epsilon: float,
    t: float | None = None,
    osc_certified: bool = False,
    max_power_rounds: int = 12,
    word_budget: int = 300000,
    seed: int = 0,
) -> Subsystem:
    """A subsystem with pairwise disjoint cylinder balls and dimension >= t - epsilon.

    The subsystem always contains, for each generator, a power of a
    fixed-point-change word (exponent from kronecker_power), which preserves
    the density of the generated rotation group; a greedy fixed-depth packing
    of further cylinders then restores the dimension.
    """
    from .groups import kronecker_power

    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
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
    m = len(ifs)

    def ball(word: Word):
        return cylinder_ball(word, center, radius)

    def pack(words: list[Word], target: float) -> Subsystem | None:
        balls = [ball(w) for w in words]
        ok = all(
            _balls_disjoint(balls[i], balls[j], separation)
            for i in range(len(balls))
            for j in range(i + 1, len(balls))
        )
        if not ok:
            return None
        report = sim_dim_words(ifs, words)
        if report.value < target:
            return None
        return Subsystem(
            tuple(words),
            SSIFS([w.composed for w in words], name=ifs.name),
            report,
            t,
            epsilon,
        )

    target = t - epsilon
    if target <= 0:
        # Trivial two-word fallback with a warning flag.
        base = _fixed_point_change_words(ifs, radius)[:2]
        for n in range(1, max_power_rounds + 1):
            words = [ifs.word(w.indices * (2**n)) for w in base]
            result = pack(words, 0.0)
            if result is not None:
                return Subsystem(
                    result.words, result.system, result.sim_dim, t, epsilon, True
                )
        raise NumericFailureError("failed to build even the trivial fallback subsystem")

    # The identity subsystem may already be certified.
    identity_words = [ifs.word((i + 1,)) for i in range(m)]
    result = pack(identity_words, target)
    if result is not None:
        return result

    # Seed words: powers of fixed-point-change words, one per generator.
    base = _fixed_point_change_words(ifs, radius)
    seeds = None
    for n in range(1, max_power_rounds + 1):
        k = max(kronecker_power(w.composed.rotation, n) for w in base)
        candidate = [ifs.word(w.indices * k) for w in base]
        balls = [ball(w) for w in candidate]
        if all(
            _balls_disjoint(balls[i], balls[j], separation)
            for i in range(len(balls))
            for j in range(i + 1, len(balls))
        ):
            seeds = candidate
            break
    if seeds is None:
        raise NumericFailureError("failed to separate the seed cylinder balls")

    # Greedy lexicographic packing at increasing depth, always keeping seeds.
    level = WordLevel.root(ifs)
    while len(level) * m <= word_budget:
        level = level.extend()
        packed = _greedy_pack(level, seeds, center, radius, separation)
        if len(packed) >= 2:
            report = sim_dim_words(ifs, packed)
            if report.value >= target:
                return Subsystem(
                    tuple(packed),
                    SSIFS([w.composed for w in packed], name=ifs.name),
                    report,
                    t,
                    epsilon,
                )
    raise NumericFailureError(
        "packing depth cap reached before the dimension target; "
        + ("note: t is a box-count estimate" if estimated else "tolerances may be too strict")
    )


@dataclass(frozen=True)
class CylinderSelection:
    words: tuple[Word, ...]
    rotation_target: np.ndarray
    delta: float
    exponent: float
    mass: float
    depth_cap: int
    partial: bool
    group: TransformationGroup
    exponent_is_estimate: bool = False


def _rotation_word_search(
    ifs: SSIFS,
    start: np.ndarray,
    target: np.ndarray,
    tol: float,
    length_cap: int,
    state_cap: int = 4096,
):
    """Lexicographically first word w with ||start T_w - target|| < tol.

    Breadth-first search over the rotation Cayley graph with tolerance
    deduplication of visited rotations; returns None when exhausted.
    """
    visited = _RotationTable(start.shape[0], max(tol / 4.0, 1e-12))
    visited.add(start)
    queue = deque([(start, ())])
    while queue:
        rot, word = queue.popleft()
        if len(word) >= length_cap:
            continue
        for n, s in enumerate(ifs, start=1):
            nxt = rot @ s.rotation
            if rotation_distance(nxt, target) < tol:
                return word + (n,)
            if visited.size >= state_cap:
                continue
            if visited.add_if_new(nxt):
                queue.append((nxt, word + (n,)))
    return None


def verify_pairwise_disjoint(words, center, radius, separation: float):
    """Indices of words whose balls conflict with an earlier word's ball.

    Sound pairwise certificate via the prefix tree: two words diverging at a
    node have disjoint balls whenever the balls of the divergent one-letter
    extensions of the shared prefix are disjoint, because cylinder balls nest.
    Falls back to a direct ball comparison when the prefix-level test fails.
    """
    by_prefix: dict[tuple, dict[int, list[int]]] = {}
    for idx, w in enumerate(words):
        for depth in range(len(w.indices)):
            prefix = w.indices[:depth]
            branch = w.indices[depth]
            by_prefix.setdefault(prefix, {}).setdefault(branch, []).append(idx)
    dropped: set[int] = set()
    # Containment: a word that extends another names a nested cylinder, which
    # always meets its ancestor; the prefix-divergence test below cannot see
    # this, so flag the later word of each such pair directly.
    index_of_word = {}
    for idx, w in enumerate(words):
        if w.indices in index_of_word:
            dropped.add(max(idx, index_of_word[w.indices]))
        else:
            index_of_word[w.indices] = idx
    for idx, w in enumerate(words):
        for depth in range(len(w.indices)):
            other = index_of_word.get(w.indices[:depth])
            if other is not None and other != idx:
                dropped.add(max(idx, other))
    ball_cache: dict[tuple, tuple] = {}

    def ball_of(ifs, indices):
        if indices not in ball_cache:
            ball_cache[indices] = cylinder_ball(Word(ifs, indices), center, radius)
        return ball_cache[indices]

    ifs = words[0].ifs if words else None
    for prefix, branches in by_prefix.items():
        letters = sorted(branches)
        for i, li in enumerate(letters):
            for lj in letters[i + 1 :]:
                if _balls_disjoint(
                    ball_of(ifs, prefix + (li,)), ball_of(ifs, prefix + (lj,)), separation
                ):
                    continue
                # Prefix-level certificate failed: compare the words directly.
                for a in branches[li]:
                    for b in branches[lj]:
                        if a in dropped or b in dropped:
                            continue
                        if not _balls_disjoint(
                            ball_of(ifs, words[a].indices),
                            ball_of(ifs, words[b].indices),
                            separation,
                        ):
                            dropped.add(max(a, b))
    return dropped


def select_disjoint_cylinders(
    ifs: SSIFS,
    rotation_target,
    delta: float,
    t: float,
    mass_target: float = 0.99,
    depth_cap: int = 12,
    corrector_length_cap: int = 200,
    t_is_estimate: bool = False,
) -> CylinderSelection:
    """Greedy selection of disjoint cylinders whose rotations approximate O.

    Walks the word tree breadth-first in lexicographic order; a word whose
    rotation lands within delta of the target (exactly, for a finite group)
    is kept and its subtree pruned, others are refined.  At the depth cap a
    pre-computed corrector word is appended as a last chance to land near the
    target.  Kept cylinders are certified pairwise disjoint via their
    bounding balls; conflicting later words are dropped.
    """
    o = np.asarray(rotation_target, dtype=float)
    if delta <= 0 or t <= 0:
        raise GeometryError("delta and t must be positive")
    if not 0 < mass_target < 1:
        raise GeometryError("mass_target must lie in (0, 1)")
    d = ifs.ambient_dim
    group = group_closure([s.rotation for s in ifs])
    exact_tol = 10.0 * tolerances.tau_orth() if group.is_finite else None

    # Reachability precondition: a corrector word from the identity to O.
    identity = np.eye(d)
    reach_tol = exact_tol if exact_tol is not None else delta / 2.0
    if rotation_distance(identity, o) >= reach_tol:
        if (
            _rotation_word_search(ifs, identity, o, reach_tol, corrector_length_cap)
            is None
        ):
            raise NumericFailureError(
                "no corrector word reaches the target rotation; "
                "it may lie outside the semigroup closure at this tolerance"
            )

    center, radius = attractor_bounding_ball(ifs)
    separation = tolerances.TAU_SEP_FACTOR * 2.0 * radius
    corrector_cache: dict[bytes, tuple | None] = {}

    def corrector_for(rot: np.ndarray):
        key = np.round(rot / (delta / 4.0)).astype(int).tobytes()
        if key not in corrector_cache:
            corrector_cache[key] = _rotation_word_search(
                ifs, rot, o, delta / 2.0, corrector_length_cap
            )
        return corrector_cache[key]

    def matches(rot: np.ndarray) -> bool:
        dist = rotation_distance(rot, o)
        if exact_tol is not None:
            return dist <= exact_tol
        return dist < delta

    accepted: list[Word] = []
    mass = 0.0
    queue = deque(
        (ifs.word((n,)), s.rotation) for n, s in enumerate(ifs, start=1)
    )
    while queue and mass < mass_target:
        word, rot = queue.popleft()
        if matches(rot):
            accepted.append(word)
            mass += word.ratio**t
            continue
        if len(word) < depth_cap:
            for n, s in enumerate(ifs, start=1):
                queue.append((word.extend(n), rot @ s.rotation))
            continue
        # Depth cap: append a corrector word as the final refinement.
        tail = corrector_for(rot)
        if tail is not None:
            fixed = ifs.word(word.indices + tail)
            if matches(fixed.composed.rotation):
                accepted.append(fixed)
                mass += fixed.ratio**t

    dropped = verify_pairwise_disjoint(accepted, center, radius, separation)
    if dropped:
        kept = [w for i, w in enumerate(accepted) if i not in dropped]
        mass = math.fsum(w.ratio**t for w in kept)
        accepted = kept
    partial = mass < mass_target
    if mass > 1.0 + tolerances.tau_num() and not t_is_estimate:
        raise NumericFailureError(
            f"selected mass {mass} exceeds 1; the exponent t is likely wrong"
        )
    return CylinderSelection(
        tuple(accepted), o, delta, t, mass, depth_cap, partial, group, t_is_estimate
    )


def annihilating_rotation(
    group_or_generators,
    linear_map: LinearMap,
    v,
    tol: float = 1e-3,
    word_cap: int = 10**5,
) -> np.ndarray:
    """A product O of generator rotations with ||L O v|| < tol ||L|| ||v||."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise GeometryError("v must be nonzero")
    if linear_map.rank() == 0:
        raise GeometryError("linear map must have positive rank")
    if isinstance(group_or_generators, TransformationGroup):
        generators = list(group_or_generators.generators)
    else:
        generators = [np.asarray(g, dtype=float) for g in group_or_generators]
    threshold = tol * linear_map.operator_norm() * float(np.linalg.norm(v))

    def residual(o: np.ndarray) -> float:
        return float(np.linalg.norm(linear_map(o @ v)))

    d = generators[0].shape[0]
    identity = np.eye(d)
    if residual(identity) < threshold:
        return identity
    if len(generators) == 1:
        g = generators[0]
        o = identity.copy()
        for _ in range(word_cap):
            o = o @ g
            if residual(o) < threshold:
                return o
    else:
        visited = _RotationTable(d, 1e-9)
        visited.add(identity)
        queue = deque([identity])
        examined = 0
        while queue and examined < word_cap:
            current = queue.popleft()
            for g in generators:
                nxt = current @ g
                examined += 1
                if residual(nxt) < threshold:
                    return nxt
                if visited.add_if_new(nxt):
                    queue.append(nxt)
    raise NumericFailureError(
        "no annihilating rotation found within the word cap; "
        "the orbit-density assumption may fail at this tolerance"
    )
