import functools
import hashlib
import itertools
import json
import math
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import constructions, tolerances
from ifsproj.constructions import (
    _CORRECTOR_LENGTH_CAP,
    _CORRECTOR_STATE_CAP,
    HypothesisViolationError,
    _identity_equal_ratio_pair,
    _kept_in_order,
    _rotation_word_search,
    build_projection_gdifs,
    find_dimension_drop,
    select_disjoint_cylinders,
    ssc_subsystem,
    verify_pairwise_disjoint,
)
from ifsproj.dimension import is_strongly_connected, sim_dim_gdifs, sim_dim_ssifs
from ifsproj.documents import gdifs_equal, gdifs_from_document, gdifs_to_document
from ifsproj.fixtures import fixture_document, fixture_ifs
from ifsproj.geometry import (
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    Similarity,
    Word,
    WordLevel,
    attractor_bounding_ball,
    cylinder_ball,
)
from ifsproj.groups import group_closure, planar_rotation, rotation_distance

from conftest import (
    compose,
    composed_by_oracle,
    kept_in_order_by_loop,
    projection_graph_by_rows,
    random_ssifs,
    spy_on_orthogonality_defects,
)

LOG3_LOG2 = math.log(3.0) / math.log(2.0)
X_AXIS = LinearMap(np.array([[1.0, 0.0]]))


def balls_disjoint(words, ifs):
    center, radius = attractor_bounding_ball(ifs)
    balls = [cylinder_ball(w, center, radius) for w in words]
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            (ci, ri), (cj, rj) = balls[i], balls[j]
            if np.linalg.norm(ci - cj) < ri + rj:
                return False
    return True


class TestBuildProjectionGdifs:
    def test_trivial_group_gives_single_vertex(self, sierpinski):
        result = build_projection_gdifs(sierpinski, X_AXIS)
        assert result.gdifs.vertex_count == 1
        assert len(result.gdifs.edges) == 3
        for e, s in zip(result.gdifs.edges, sierpinski):
            assert e.map.ratio == s.ratio
            assert np.allclose(e.map.translation, X_AXIS(s.translation))

    def test_c4_structure(self, c4):
        result = build_projection_gdifs(c4, X_AXIS)
        assert result.gdifs.vertex_count == 4
        assert len(result.gdifs.edges) == 12
        assert is_strongly_connected(result.gdifs)

    def test_edge_maps_are_homotheties(self, c4):
        result = build_projection_gdifs(c4, X_AXIS)
        for e in result.gdifs.edges:
            assert np.abs(e.map.rotation - np.eye(1)).max() < 1e-9

    def test_row_sums_equal_one_at_source_dimension(self, c4):
        result = build_projection_gdifs(c4, X_AXIS)
        a = result.gdifs.transition_matrix(result.source_dim)
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-9

    def test_dimension_matches_source(self, c4):
        result = build_projection_gdifs(c4, X_AXIS)
        assert abs(sim_dim_gdifs(result.gdifs).value - result.source_dim) < 1e-8

    def test_order_eight_fixture(self):
        ifs = fixture_ifs("example_7_5_plane")
        result = build_projection_gdifs(ifs, X_AXIS)
        assert result.gdifs.vertex_count == 8
        assert len(result.gdifs.edges) == 32
        out_degree = [0] * 8
        for e in result.gdifs.edges:
            out_degree[e.source] += 1
        assert all(deg == 4 for deg in out_degree)

    def test_rejects_infinite_group(self, irrational):
        with pytest.raises(HypothesisViolationError):
            build_projection_gdifs(irrational, X_AXIS)

    def test_rejects_zero_map(self, sierpinski):
        with pytest.raises(GeometryError):
            build_projection_gdifs(sierpinski, LinearMap(np.zeros((1, 2))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_map(self, sierpinski, bad):
        with pytest.raises(GeometryError, match="linear map must be finite"):
            build_projection_gdifs(sierpinski, LinearMap([[bad, 0.0]]))


def level_of(ifs, depth):
    level = WordLevel.root(ifs)
    for _ in range(depth):
        level = level.extend()
    return level


def assert_graph_matches_rows(source, linear_map):
    """build_projection_gdifs equals projection_graph_by_rows bit for bit."""
    if isinstance(source, WordLevel):
        arrays = source.ratio, source.rotation, source.translation
    else:
        arrays = source.ratios, source.rotations, source.translations
    g = build_projection_gdifs(source, linear_map).gdifs
    want = projection_graph_by_rows(*arrays, linear_map.matrix)
    for got, expected in zip((g.source, g.target, g.ratio, g.translation), want):
        expected = np.asarray(expected, dtype=got.dtype)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


DIHEDRAL_FIVE = SSIFS(
    [
        Similarity(0.3, planar_rotation(2.0 * math.pi / 5.0), [0.0, 0.0]),
        Similarity(0.4, np.diag([1.0, -1.0]), [1.0, 0.0]),
        Similarity(0.25, planar_rotation(4.0 * math.pi / 5.0) @ np.diag([1.0, -1.0]), [0.0, 1.0]),
    ]
)


@st.composite
def finite_cyclic_systems(draw):
    """(system, depth) for 2..4 planar maps whose rotations are powers of
    one rotation of order 2..8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    rotations = [planar_rotation(2.0 * math.pi * k / n) for k in rng.integers(0, n, size=m)]
    ratios, translations = rng.uniform(0.2, 0.6, m), rng.normal(size=(m, 2))
    ifs = SSIFS([Similarity(r, o, v) for r, o, v in zip(ratios, rotations, translations)])
    return ifs, draw(st.integers(0, 3))


class TestProjectionGraphAgainstRows:
    @pytest.mark.parametrize(
        "name, depth",
        [("c4_rotation", k) for k in range(1, 6)]
        + [("example_7_5_plane", k) for k in range(1, 9)],
    )
    def test_fixture_levels_match(self, name, depth):
        assert_graph_matches_rows(level_of(fixture_ifs(name), depth), X_AXIS)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_dihedral_system_matches(self, depth):
        source = DIHEDRAL_FIVE if depth == 0 else level_of(DIHEDRAL_FIVE, depth)
        assert_graph_matches_rows(source, LinearMap(np.array([[0.6, 0.8]])))

    @settings(max_examples=25, deadline=None)
    @given(finite_cyclic_systems())
    def test_cyclic_systems_match(self, drawn):
        ifs, depth = drawn
        assert_graph_matches_rows(ifs if depth == 0 else level_of(ifs, depth), X_AXIS)

    def test_level_past_the_kernel_threshold_matches(self):
        # 3^7 words, at least 1024, and 4 vertices.
        level = level_of(fixture_ifs("c4_rotation"), 7)
        assert len(level) >= 1024
        assert build_projection_gdifs(level, X_AXIS).gdifs.vertex_count == 4
        assert_graph_matches_rows(level, X_AXIS)


class TestBroadcastEdgeRotations:
    def test_edge_rotations_are_checked_as_one_matrix(self, monkeypatch):
        level = level_of(fixture_ifs("example_7_5_plane"), 8)
        rows = spy_on_orthogonality_defects(monkeypatch)
        g = build_projection_gdifs(level, X_AXIS).gdifs
        reduced = g.delete_edge(5)
        assert rows == [1, 1]
        for graph, n in ((g, len(level)), (reduced, len(level) - 1)):
            assert graph.rotation.strides[0] == 0
            assert np.array_equal(graph.rotation, np.ones((n, 1, 1)))


class TestBroadcastLevels:
    def test_dimension_drop_checks_one_rotation_per_level(self, monkeypatch):
        ifs = fixture_ifs("example_7_5_plane")
        rows = spy_on_orthogonality_defects(monkeypatch)
        result = find_dimension_drop(ifs, 1)
        assert len(result.overlap_witness.word_a) == 8
        # Eight levels, then the projection graph and the reduced graph.
        assert rows == [1] * 8 + [1, 1]

    @pytest.mark.parametrize("name", ["c4_rotation", "irrational_rotation_planar"])
    def test_mixed_rotations_keep_full_stacks(self, name, monkeypatch):
        ifs = fixture_ifs(name)
        rows = spy_on_orthogonality_defects(monkeypatch)
        level = WordLevel.root(ifs)
        for _ in range(7):
            level = level.extend()
            assert level.rotation.strides[0] != 0
        assert rows == [len(ifs) ** k for k in range(1, 8)]


class TestFindDimensionDrop:
    def test_sierpinski_drop_to_one(self, sierpinski):
        result = find_dimension_drop(sierpinski, 1)
        assert abs(result.s_original - LOG3_LOG2) < 1e-9
        assert abs(result.s_reduced - 1.0) < 1e-9
        # First lexicographic pair of equal-ratio homotheties.
        assert result.overlap_witness.word_a.indices == (1,)
        assert result.overlap_witness.word_b.indices == (2,)
        # The annihilated direction joins the two fixed points.
        v = sierpinski[1].translation - sierpinski[0].translation
        assert np.abs(result.subspace.basis.T @ v).max() < 1e-9

    def test_witness_maps_coincide_after_projection(self, sierpinski):
        result = find_dimension_drop(sierpinski, 1)
        proj = LinearMap.projection_onto(result.subspace)
        a = result.overlap_witness.word_a.composed
        b = result.overlap_witness.word_b.composed
        for x in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.7]):
            assert np.abs(proj(a(np.asarray(x))) - proj(b(np.asarray(x)))).max() < 1e-9

    def test_cantor_pair_drops_to_zero(self):
        ifs = fixture_ifs("cantor_pair_r2")
        result = find_dimension_drop(ifs, 1)
        assert result.s_reduced < 1e-9

    def test_c4_strict_drop(self, c4):
        result = find_dimension_drop(c4, 1)
        assert result.s_reduced < result.s_original - 1e-12

    def test_rejects_infinite_group(self, irrational):
        with pytest.raises(HypothesisViolationError):
            find_dimension_drop(irrational, 1)

    def test_rejects_bad_l(self, sierpinski):
        with pytest.raises(GeometryError):
            find_dimension_drop(sierpinski, 2)


def nested_loop_pair(level_ifs, tau):
    """The identity/equal-ratio pair search as a plain double loop."""
    eye = np.eye(level_ifs.ambient_dim)
    idx = [
        k
        for k, mp in enumerate(level_ifs.maps)
        if np.abs(mp.rotation - eye).max() <= 10.0 * tolerances.tau_orth()
    ]
    for a_pos, ka in enumerate(idx):
        for kb in idx[a_pos + 1 :]:
            if abs(level_ifs[ka].ratio - level_ifs[kb].ratio) <= tau:
                return ka, kb
    return None


# Ratios with exact ties and near-ties just inside and just outside tau_num.
TIE_OFFSETS = (0.0, 0.4, 0.6, 0.99, 1.0, 1.01, 1.6, 2.5)


class TestIdentityEqualRatioPair:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        maps=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([0.3, 0.5]),
                st.sampled_from(TIE_OFFSETS),
            ),
            min_size=2,
            max_size=4,
        ),
        depth=st.integers(1, 3),
    )
    def test_matches_the_nested_loop(self, n, maps, depth):
        tau = tolerances.tau_num()
        ifs = SSIFS(
            [
                Similarity(
                    base + offset * tau, planar_rotation(2.0 * math.pi * j / n), [i, 0.5 * i * i]
                )
                for i, (j, base, offset) in enumerate(maps)
            ]
        )
        level = WordLevel.root(ifs)
        for _ in range(depth):
            level = level.extend()
        assert _identity_equal_ratio_pair(level, tau) == nested_loop_pair(level.system(), tau)

    def test_chained_near_ties(self):
        # 0 ~ 0.6 tau ~ 1.2 tau: the first word's only partner is the second.
        tau = tolerances.tau_num()
        ifs = SSIFS(
            [Similarity(0.5 + c * tau, np.eye(2), [i, 0.0]) for i, c in enumerate((1.2, 0.0, 0.6))]
        )
        level = WordLevel.root(ifs).extend()
        assert _identity_equal_ratio_pair(level, tau) == (0, 2) == nested_loop_pair(ifs, tau)


class TestDimensionDropRegression:
    def test_order_eight_plane_drops_at_depth_eight(self):
        ifs = fixture_ifs("example_7_5_plane")
        result = find_dimension_drop(ifs, 1)
        assert result.overlap_witness.word_a.indices == (1,) * 8
        assert result.overlap_witness.word_b.indices == (1,) * 7 + (2,)
        assert abs(result.s_reduced - 1.1514317007623367) <= 1e-12
        g = result.dropped_gdifs
        assert g.vertex_count == 1
        assert len(g.source) == 65535
        assert gdifs_equal(g, gdifs_from_document(gdifs_to_document(g)))

    def test_word_budget_stops_before_the_next_depth(self, monkeypatch):
        # 4^5 = 1024 words would exceed the budget, so depth 5 is never built.
        monkeypatch.setattr(constructions, "_WORD_BUDGET", 1000)
        with pytest.raises(NumericFailureError, match="at depth 5"):
            find_dimension_drop(fixture_ifs("example_7_5_plane"), 1)


def array_digest(*arrays) -> str:
    """The first 16 hex digits of the sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestDeepLevelPins:
    """The bits of deep word levels and of the dimension drops of the
    finite-words benchmark, recorded with the row-major kernels."""

    @pytest.mark.parametrize(
        "name, depth, digests",
        [
            ("example_7_5_plane", 8, (
                "2037104a100d0849", "45f4e76b11913fee", "ede3e5b6aa2de341", "7a1be8ea56b7c916",
            )),
            ("c4_rotation", 7, (
                "cfea996e31544497", "1d0f79904ecd32e9", "b7ae67a77574e875", "440f369f7f19e68b",
            )),
            ("irrational_rotation_planar", 7, (
                "cfea996e31544497", "3c47eccdbb836d67", "939d134c593dfe09", "4d931c2303e1980c",
            )),
        ],
    )
    def test_level_arrays(self, name, depth, digests):
        level = level_of(fixture_ifs(name), depth)
        arrays = (level.letters, level.ratio, level.rotation, level.translation)
        assert tuple(map(array_digest, arrays)) == digests

    @pytest.mark.parametrize(
        "name, basis, s_reduced, witness, graph",
        [
            ("sierpinski_half", "c13b57c3db01b61b", "0x1.0000000000000p+0",
             ((1,), (2,)), "b421efba25323ad0"),
            ("c4_rotation", "5eeb49c7134d3b4b", "0x1.90f4293cae797p+0",
             ((1, 1), (3, 3)), "98fcbfa28109f59e"),
            ("example_7_5_plane", "c13b57c3db01b61b", "0x1.26c43a5a5a15cp+0",
             ((1,) * 8, (1,) * 7 + (2,)), "450818dd760fa253"),
        ],
    )
    def test_dimension_drop(self, name, basis, s_reduced, witness, graph):
        result = find_dimension_drop(fixture_ifs(name), 1)
        g = result.dropped_gdifs
        assert array_digest(result.subspace.basis) == basis
        assert result.s_reduced.hex() == s_reduced
        pair = result.overlap_witness
        assert (pair.word_a.indices, pair.word_b.indices) == witness
        assert array_digest(g.source, g.target, g.ratio, g.rotation, g.translation) == graph


def separated(ball_a, ball_b, separation):
    (ca, ra), (cb, rb) = ball_a, ball_b
    return float(np.linalg.norm(ca - cb)) >= ra + rb + separation


def word_by_word_pack(ifs, depth, seeds, center, radius, separation):
    """The greedy packing as a loop over Word objects and their balls."""
    packed = list(seeds)
    balls = [cylinder_ball(w, center, radius) for w in seeds]
    for indices in itertools.product(range(1, len(ifs) + 1), repeat=depth):
        w = ifs.word(indices)
        b = cylinder_ball(w, center, radius)
        if all(separated(b, other, separation) for other in balls):
            packed.append(w)
            balls.append(b)
    return packed


class TestGreedyPack:
    """ssc_subsystem's packing step, one kernel call over the seeds' balls
    followed by a level's, against the loop that keeps every seed."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), depth=st.integers(1, 3))
    def test_matches_word_by_word_loop(self, seed, m, depth):
        rng = np.random.default_rng(seed)
        ifs = random_ssifs(rng, d=2, m=m)
        center, radius = attractor_bounding_ball(ifs)
        separation = 1e-3 * radius * float(rng.uniform(0.0, 1.0))
        # Seeds whose balls the kernel keeps whole, as ssc_subsystem's always are.
        while True:
            seeds = [ifs.word(tuple(rng.integers(1, m + 1, size=4))) for _ in range(2)]
            seed_balls = WordLevel.of_words(ifs, [w.indices for w in seeds]).balls(center, radius)
            if _kept_in_order(*seed_balls, separation).all():
                break
        level = WordLevel.root(ifs)
        for _ in range(depth):
            level = level.extend()
        balls = map(np.concatenate, zip(seed_balls, level.balls(center, radius)))
        kept = _kept_in_order(*balls, separation)
        assert kept[:2].all()
        packed = seeds + [ifs.word(level.indices(k)) for k in np.flatnonzero(kept[2:])]
        expected = word_by_word_pack(ifs, depth, seeds, center, radius, separation)
        assert [w.indices for w in packed] == [w.indices for w in expected]


class TestSscSubsystem:
    def test_already_separated_system_is_unchanged(self):
        maps = [
            Similarity(0.3, np.eye(2), (1.0 - 0.3) * np.array(c))
            for c in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)]
        ]
        ifs = SSIFS(maps)
        sub = ssc_subsystem(ifs, 0.5, osc_certified=True)
        assert [w.indices for w in sub.words] == [(1,), (2,), (3,)]
        assert abs(sub.sim_dim.value - sim_dim_ssifs(ifs).value) < 1e-9

    def test_touching_triangle_keeps_dimension_up_to_epsilon(self, sierpinski):
        sub = ssc_subsystem(sierpinski, 0.3, osc_certified=True)
        assert balls_disjoint(sub.words, sierpinski)
        assert sub.sim_dim.value >= LOG3_LOG2 - 0.3

    def test_overlapping_line_system(self):
        ifs = fixture_ifs("example_7_4_line")
        t = math.log(3.0) / math.log(1.0 / 0.3)
        sub = ssc_subsystem(ifs, 0.4, t=t)
        assert balls_disjoint(sub.words, ifs)
        assert sub.sim_dim.value >= t - 0.4

    def test_rotating_generator_keeps_group_density(self, irrational):
        sub = ssc_subsystem(irrational, 0.5, osc_certified=True)
        assert balls_disjoint(sub.words, irrational)
        # Some subsystem word must carry an infinite-order rotation so the
        # generated group closure stays dense (infinite).
        g = group_closure(
            [w.composed.rotation for w in sub.words], closure_cap=500
        )
        assert not g.is_finite

    def test_rejects_nonpositive_epsilon(self, sierpinski):
        with pytest.raises(GeometryError):
            ssc_subsystem(sierpinski, 0.0)

    def test_oversized_epsilon_gives_flagged_fallback(self, sierpinski):
        sub = ssc_subsystem(sierpinski, 5.0, osc_certified=True)
        assert sub.trivial_fallback
        assert len(sub.words) == 2
        assert balls_disjoint(sub.words, sierpinski)


class TestSelectDisjointCylinders:
    def test_separated_triangle_identity_target(self):
        maps = [
            Similarity(0.3, np.eye(2), (1.0 - 0.3) * np.array(c))
            for c in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)]
        ]
        ifs = SSIFS(maps)
        s = sim_dim_ssifs(ifs).value
        sel = select_disjoint_cylinders(ifs, np.eye(2), 0.1, s, mass_target=0.999)
        assert [w.indices for w in sel.words] == [(1,), (2,), (3,)]
        assert abs(sel.mass - 1.0) < 1e-9
        assert not sel.partial

    def test_finite_group_exact_rotation_match(self, c4):
        s = sim_dim_ssifs(c4).value
        sel = select_disjoint_cylinders(c4, np.eye(2), 0.5, s, mass_target=0.5)
        for w in sel.words:
            assert rotation_distance(w.composed.rotation, np.eye(2)) < 1e-8

    def test_rotation_target_within_delta(self, irrational):
        target = planar_rotation(0.5)
        sel = select_disjoint_cylinders(
            irrational, target, 0.2, 0.8, mass_target=0.5, depth_cap=8
        )
        assert sel.words
        for w in sel.words:
            assert rotation_distance(w.composed.rotation, target) < 0.2
        assert balls_disjoint(sel.words, irrational)
        assert sel.mass <= 1.0 + 1e-9

    def test_unreachable_target_errors(self, sierpinski):
        # All rotations are the identity; a quarter turn is unreachable.
        with pytest.raises(NumericFailureError):
            select_disjoint_cylinders(
                sierpinski, planar_rotation(math.pi / 2.0), 0.05, LOG3_LOG2
            )

    def test_rejects_bad_parameters(self, sierpinski):
        with pytest.raises(GeometryError):
            select_disjoint_cylinders(sierpinski, np.eye(2), -0.1, 1.0)
        with pytest.raises(GeometryError):
            select_disjoint_cylinders(sierpinski, np.eye(2), 0.1, 1.0, mass_target=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, sierpinski, bad):
        target = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(GeometryError, match="rotation target must be finite"):
            select_disjoint_cylinders(sierpinski, target, 0.1, 1.0)


def queue_selection(ifs, o, delta, t, mass_target, depth_cap):
    """The cylinder selection as one breadth-first queue of words, each
    tested on its own, with compose-built maps for the corrected words and
    the balls, and the all-pairs certificate: (words, mass)."""
    exact_tol = 10.0 * tolerances.tau_orth() if group_closure(ifs.rotations).is_finite else None

    def matches(rot):
        dist = rotation_distance(rot, o)
        return dist <= exact_tol if exact_tol is not None else dist < delta

    cache = {}

    def corrector_for(rot):
        key = np.round(rot / (delta / 4.0)).astype(int).tobytes()
        if key not in cache:
            cache[key] = _rotation_word_search(ifs, rot, o, delta / 2.0)
        return cache[key]

    def ratio(word):
        return math.prod(float(ifs.ratios[i - 1]) for i in word)

    @functools.cache
    def composed(word):
        """composed_by_oracle(ifs, word), the fold of each prefix done once."""
        if not word:
            return Similarity.identity(ifs.ambient_dim)
        return compose(composed(word[:-1]), ifs[word[-1] - 1])

    accepted, mass = [], 0.0
    queue = deque(((n,), rotation) for n, rotation in enumerate(ifs.rotations, start=1))
    while queue and mass < mass_target:
        word, rot = queue.popleft()
        if matches(rot):
            accepted.append(word)
            mass += ratio(word) ** t
        elif len(word) < depth_cap:
            queue.extend((word + (n,), rot @ r) for n, r in enumerate(ifs.rotations, start=1))
        elif (tail := corrector_for(rot)) is not None:
            if matches(composed(word + tail).rotation):
                accepted.append(word + tail)
                mass += ratio(word + tail) ** t
    center, radius = attractor_bounding_ball(ifs)
    balls = [(composed(w)(center), ratio(w) * radius) for w in accepted]
    dropped = dropped_by_all_pairs(balls, tolerances.TAU_SEP_FACTOR * 2.0 * radius)
    if dropped:
        accepted = [w for k, w in enumerate(accepted) if k not in dropped]
        mass = math.fsum(ratio(w) ** t for w in accepted)
    return accepted, mass


@st.composite
def planar_generators(draw, min_size=1):
    """(rng, generators): min_size..3 planar orthogonal matrices whose group
    is cyclic, dihedral or holds an irrational angle, and the rng they came
    from."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cyclic", "dihedral", "irrational"]))
    m = draw(st.integers(min_size, 3))
    if kind == "irrational":
        rotations = [planar_rotation(a) for a in rng.uniform(0.3, 2.8, size=m)]
    else:
        n = draw(st.sampled_from([2, 3, 4, 6]))
        rotations = [planar_rotation(2.0 * math.pi * k / n) for k in rng.integers(0, n, size=m)]
        if kind == "dihedral":
            rotations[-1] = rotations[-1] @ np.diag([1.0, -1.0])
    return rng, rotations


@st.composite
def planar_systems(draw):
    """(system, reachable target rotation, delta) for a random planar system
    whose rotation group is cyclic, dihedral or holds an irrational angle."""
    rng, rotations = draw(planar_generators(min_size=2))
    m = len(rotations)
    ratios, translations = rng.uniform(0.2, 0.6, m), rng.normal(size=(m, 2))
    ifs = SSIFS([Similarity(r, o, v) for r, o, v in zip(ratios, rotations, translations)])
    target = np.eye(2)
    for i in rng.integers(0, m, size=draw(st.integers(1, 3))):
        target = target @ ifs.rotations[i]
    return ifs, target, draw(st.sampled_from([0.2, 0.4]))


@st.composite
def spatial_systems(draw):
    """(system, target rotation, delta) for a random 3-D system whose
    rotations are generic (QR of a Gaussian matrix, so they generate a free
    semigroup) or signed permutations (a finite group)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 3))
    if draw(st.booleans()):
        rotations = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(m)]
    else:
        rotations = [np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3) for _ in range(m)]
    ifs = SSIFS([Similarity(0.5, o, rng.normal(size=3)) for o in rotations])
    target = np.eye(3)
    for i in rng.integers(0, m, size=draw(st.integers(1, 3))):
        target = target @ ifs.rotations[i]
    # Coarse enough that a generic search meets the target well before the
    # state cap.
    return ifs, target, draw(st.sampled_from([0.8, 1.0]))


def embedded_rotation(angle, d):
    """The planar rotation by angle on the first two of d coordinates."""
    rotation = np.eye(d)
    rotation[:2, :2] = planar_rotation(angle)
    return rotation


class TestSelectionAgainstQueue:
    @settings(max_examples=40, deadline=None)
    @given(
        system=planar_systems(),
        depth_cap=st.integers(3, 6),
        mass_target=st.sampled_from([0.3, 0.6, 0.9, 0.99]),
    )
    def test_matches_the_queue_search(self, system, depth_cap, mass_target):
        ifs, target, delta = system
        t = sim_dim_ssifs(ifs).value
        sel = select_disjoint_cylinders(
            ifs, target, delta, t, mass_target=mass_target, depth_cap=depth_cap
        )
        words, mass = queue_selection(ifs, target, delta, t, mass_target, depth_cap)
        assert [w.indices for w in sel.words] == words
        assert sel.mass == mass
        assert sel.partial == (mass < mass_target)


def dropped_by_all_pairs(balls, separation):
    """Brute force: each word against every earlier word still kept, with
    the distances of all pairs taken at once."""
    centers = np.array([c for c, _ in balls])
    radii = [r for _, r in balls]
    distance = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=-1)).tolist()
    dropped = set()
    for k in range(len(balls)):
        for j in range(k):
            if j not in dropped and distance[k][j] < radii[k] + radii[j] + separation:
                dropped.add(k)
                break
    return dropped


@st.composite
def word_lists(draw, m):
    """Word lists over m letters with repeated and nested (prefix) words."""
    words = draw(st.lists(st.lists(st.integers(1, m), max_size=4).map(tuple), max_size=10))
    for _ in range(draw(st.integers(0, 4)) if words else 0):
        w = draw(st.sampled_from(words))
        words.insert(draw(st.integers(0, len(words))), w[: draw(st.integers(0, len(w)))])
    return words


class TestVerifyPairwiseDisjoint:
    def test_accepts_disjoint_family(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        words = [sierpinski.word([i, i]) for i in (1, 2, 3)]
        assert verify_pairwise_disjoint(words, center, radius, 1e-12) == set()

    def test_flags_nested_words(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        words = [sierpinski.word([1]), sierpinski.word([1, 2])]
        assert verify_pairwise_disjoint(words, center, radius, 1e-12) == {1}

    def test_empty_list(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        assert verify_pairwise_disjoint([], center, radius, 0.0) == set()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        m=st.integers(2, 3),
        gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.1]),
        data=st.data(),
    )
    def test_matches_all_pairs_oracle(self, seed, d, m, gap, data):
        ifs = random_ssifs(np.random.default_rng(seed), d=d, m=m)
        center, radius = attractor_bounding_ball(ifs)
        separation = gap * radius
        indices = data.draw(word_lists(m))
        words = [ifs.word(w) for w in indices]
        balls = [cylinder_ball(w, center, radius) for w in words]
        dropped = verify_pairwise_disjoint(words, center, radius, separation)
        assert dropped == dropped_by_all_pairs(balls, separation)
        kept = [k for k in range(len(words)) if k not in dropped]
        for j, k in itertools.combinations(kept, 2):
            assert separated(balls[j], balls[k], separation)
            # Of two nested or repeated words, at most one is kept.
            short, long = sorted((indices[j], indices[k]), key=len)
            assert long[: len(short)] != short


class TestVerifyPairwiseDisjointLevels:
    """A WordLevel is certified as the list of its words would be, and
    builds no Word and folds nothing."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        m=st.integers(2, 3),
        gap=st.sampled_from([0.0, 1e-9, 1e-3, 0.1]),
        data=st.data(),
    )
    def test_a_level_gives_the_dropped_set_of_its_words(self, seed, d, m, gap, data):
        rng = np.random.default_rng(seed)
        ifs = random_ssifs(rng, d=d, m=m)
        center, radius = attractor_bounding_ball(ifs)
        separation = gap * radius
        depths = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        parts = [level_of(ifs, k) for k in depths]
        joined = WordLevel.concatenate([v[rng.random(len(v)) < 0.7] for v in parts])
        # Padding (letter m, which fold reads as the identity) in any column
        # after the first letter, and empty words.
        letters = rng.integers(0, m + 1, size=(data.draw(st.integers(0, 12)), 4)).astype(np.uint8)
        letters[:, 0] = np.where(rng.random(len(letters)) < 0.8, letters[:, 0] % m, m)
        letters[letters[:, 0] == m] = m
        padded = WordLevel.fold(ifs, letters)
        for level in (joined, padded):
            with mock.patch.object(constructions, "_kept_in_order", wraps=_kept_in_order) as kernel:
                want = verify_pairwise_disjoint(list(level), center, radius, separation)
                assert verify_pairwise_disjoint(level, center, radius, separation) == want
            # The kernel saw the word list's balls, bit for bit.
            if len(level):
                listed, levelled = (call.args[:2] for call in kernel.call_args_list)
                for a, b in zip(listed, levelled):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_the_depth_nine_identity_selection(self, irrational):
        t = sim_dim_ssifs(irrational).value
        sel = select_disjoint_cylinders(irrational, np.eye(2), 0.2, t, mass_target=0.9, depth_cap=9)
        assert len(sel.words) == 13123
        center, radius = attractor_bounding_ball(irrational)
        built, post_init = [], Word.__post_init__

        def spy(word):
            built.append(word)
            post_init(word)

        for separation in (tolerances.TAU_SEP_FACTOR * 2.0 * radius, 1e-3 * radius):
            with (
                mock.patch.object(Word, "__post_init__", spy),
                mock.patch.object(WordLevel, "fold", side_effect=AssertionError),
            ):
                dropped = verify_pairwise_disjoint(sel.words, center, radius, separation)
            assert not built
            assert dropped == verify_pairwise_disjoint(list(sel.words), center, radius, separation)


@st.composite
def ball_layouts(draw):
    """(centers, radii, separation) for the in-order ball kernel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(0, 60)), draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["spread", "ties", "nested", "one x"]))
    if kind == "ties":
        # Integer centres, half-integer radii and a power-of-two scale: the
        # distances of 3-4-5 (and 2-3-6-7) offsets and the sums
        # r_j + r_k + separation are exact floats, so pairs sit on the threshold.
        scale = 2.0 ** int(rng.integers(-20, 21))
        centers = scale * rng.integers(0, 8, size=(n, d))
        radii = scale * rng.integers(1, 6, size=n) / 2.0
        separation = scale * int(rng.integers(0, 2))
    else:
        centers = rng.normal(size=(n, d))
        # Radii spanning 10^6.
        radii = 10.0 ** rng.uniform(-6.0, 0.0, size=n)
        separation = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    if kind == "nested" and n:
        # Duplicate centres: the same ball again, or a ball inside it.
        copies = rng.integers(0, n, size=n // 2)
        centers[rng.integers(0, n, size=n // 2)] = centers[copies]
        radii[copies] *= rng.choice([1.0, 0.5], size=len(copies))
    if kind == "one x":
        # Every x-interval overlaps every other: the sweep tests all pairs.
        centers[:, 0] = 0.25
        radii *= 1e-3
    return centers, radii, separation


class TestKeptInOrder:
    @settings(max_examples=150, deadline=None)
    @given(layout=ball_layouts(), chunk=st.sampled_from([1, 7, 64, constructions._PAIR_CHUNK]))
    def test_matches_the_loop(self, layout, chunk):
        centers, radii, separation = layout
        with mock.patch.object(constructions, "_PAIR_CHUNK", chunk):
            kept = _kept_in_order(centers, radii, separation)
        assert kept.dtype == bool
        np.testing.assert_array_equal(kept, kept_in_order_by_loop(centers, radii, separation))

    def test_exact_tie_keeps_both_balls(self):
        centers = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0 + 2.0**-40]])
        # ||c_1 - c_0|| = 5 = 2 + 2 + 1 exactly; ball 2 is nearer ball 1.
        kept = _kept_in_order(centers, np.array([2.0, 2.0, 0.0]), 1.0)
        assert kept.tolist() == [True, True, False]

    def test_pair_one_ulp_inside_the_sum_is_a_candidate(self):
        # ||c_1 - c_0|| is one ulp below r_0 + r_1 + separation, but the
        # unwidened x-intervals, rounded, do not overlap.
        x0, x1 = 0.08542588342028234, 1.1894189607460022
        r0, r1 = 0.03333351216070635, 0.9706595651650135
        assert x1 - (r1 + 0.05) > x0 + (r0 + 0.05)
        centers, radii = np.array([[x0, 0.0], [x1, 0.0]]), np.array([r0, r1])
        assert _kept_in_order(centers, radii, 0.1).tolist() == [True, False]

    def test_shared_x_crosses_the_pair_chunk(self):
        # 300 balls on one vertical line: all 44 850 pairs are candidates,
        # several blocks of _PAIR_CHUNK pairs.
        rng = np.random.default_rng(7)
        centers = np.column_stack([np.full(300, 0.25), rng.uniform(0.0, 1.0, 300)])
        radii = 10.0 ** rng.uniform(-6.0, -2.0, 300)
        assert 300 * 299 // 2 > 4 * constructions._PAIR_CHUNK
        np.testing.assert_array_equal(
            _kept_in_order(centers, radii, 1e-3),
            kept_in_order_by_loop(centers, radii, 1e-3),
        )

    def test_chain_of_200000_balls(self):
        # Each ball meets only the next one, so every other ball is kept.
        # The balls run right to left, so the sweep sorts them in reverse.
        n = 200_000
        centers = np.column_stack([-np.arange(n, dtype=float), np.zeros(n)])
        kept = _kept_in_order(centers, np.full(n, 0.6), 0.0)
        np.testing.assert_array_equal(kept, np.arange(n) % 2 == 0)


PINNED_SELECTIONS = json.loads(
    (Path(__file__).parent / "data" / "cylinders_reports.json").read_text()
)


class TestSelectionPin:
    """The selections of perfbench's cylinders workload and the ssc-approx
    commands of its finite-words workload, as the prefix-tree certificate
    and the all-pairs loops chose them, and three selections that reach the
    depth cap: irrational (hits and corrected words interleaved in row
    order), c4 (dropped words, so the mass is summed again) and the
    identity target on irrational at depth cap 9 (13 123 words, as the
    in-order loop chose them; its word list is pinned by its sha256)."""

    @pytest.mark.parametrize(
        "case", PINNED_SELECTIONS, ids=lambda c: f"{c['command']} {c['fixture']}"
    )
    def test_selected_words(self, case):
        ifs = fixture_ifs(case["fixture"])
        if case["command"] == "cylinders":
            t = case["t"] if case["t"] is not None else sim_dim_ssifs(ifs).value
            sel = select_disjoint_cylinders(
                ifs, planar_rotation(case["angle"]), case["delta"], t,
                mass_target=case["mass_target"], depth_cap=case.get("depth_cap", 12),
            )
            assert abs(sel.mass - case["mass"]) <= 1e-12
            assert sel.partial == case["partial"]
            assert sel.dropped_words == case["dropped_words"]
            words = sel.words
        else:
            osc = bool(fixture_document(case["fixture"])["metadata"].get("osc_certified"))
            words = ssc_subsystem(ifs, case["epsilon"], t=case["t"], osc_certified=osc).words
        assert len(words) == case["word_count"]
        words = [list(w.indices) for w in words]
        if "words_sha256" in case:
            assert hashlib.sha256(json.dumps(words).encode()).hexdigest() == case["words_sha256"]
        else:
            assert words == case["words"]


def queue_word_search(ifs, start, target, tol, state_cap=_CORRECTOR_STATE_CAP):
    """The corrector search as a breadth-first queue of (rotation, word)
    pairs, each word copied from its parent's, with a full max-abs scan of
    the visited rotations in place of the rotation table."""
    visited = np.empty((state_cap, *start.shape))
    visited[0], size = start, 1
    queue = deque([(start, ())])
    while queue:
        rot, word = queue.popleft()
        if len(word) >= _CORRECTOR_LENGTH_CAP:
            continue
        for n, rotation in enumerate(ifs.rotations, start=1):
            nxt = rot @ rotation
            if rotation_distance(nxt, target) < tol:
                return word + (n,)
            near = np.abs(visited[:size] - nxt).max(axis=(1, 2)) <= max(tol / 4.0, 1e-12)
            if size < state_cap and not near.any():
                visited[size], size = nxt, size + 1
                queue.append((nxt, word + (n,)))
    return None


class TestRotationWalkAgainstQueues:
    @settings(max_examples=60, deadline=None)
    @given(
        system=st.one_of(planar_systems(), spatial_systems()),
        angle=st.floats(-math.pi, math.pi),
        reachable=st.booleans(),
    )
    def test_word_search_matches_the_queue(self, system, angle, reachable):
        ifs, target, delta = system
        d = ifs.ambient_dim
        start = embedded_rotation(angle, d)
        if not reachable:
            # Off the orbit of a finite group; the search then exhausts it.
            target = embedded_rotation(0.1 + angle, d)
        tol = delta / 2.0
        assert _rotation_word_search(ifs, start, target, tol) == queue_word_search(
            ifs, start, target, tol
        )

    def test_word_search_stops_at_the_length_cap(self):
        # Only powers of R are new, so the walk is one chain of words.
        ifs = SSIFS(
            [
                Similarity(0.5, np.eye(2), [0.0, 0.0]),
                Similarity(0.5, planar_rotation(1.0), [1.0, 0.0]),
            ]
        )
        for power in (_CORRECTOR_LENGTH_CAP - 10, _CORRECTOR_LENGTH_CAP + 10):
            target = np.linalg.matrix_power(planar_rotation(1.0), power)
            word = _rotation_word_search(ifs, np.eye(2), target, 1e-6)
            assert word == queue_word_search(ifs, np.eye(2), target, 1e-6)
            assert (word is None) == (power > _CORRECTOR_LENGTH_CAP)

    def test_word_search_stops_at_the_state_cap(self, monkeypatch):
        # Two generic space rotations generate a free semigroup, so depth k
        # holds 2^k new products.  With a cap of 64 the start and depths 1..5
        # fill 63 places; depth 6 is examined, but only its first product,
        # that of 1^6, is extended, so a depth-7 word starting with 2 is out
        # of reach.
        monkeypatch.setattr(constructions, "_CORRECTOR_STATE_CAP", 64)
        rng = np.random.default_rng(3)
        rotations = [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2)]
        rotations = [q * np.linalg.det(q) for q in rotations]
        ifs = SSIFS([Similarity(0.5, q, rng.normal(size=3)) for q in rotations])
        for depth in (6, 7):
            word = (2,) + tuple(rng.integers(1, 3, size=depth - 1).tolist())
            target = composed_by_oracle(ifs, word).rotation
            found = _rotation_word_search(ifs, np.eye(3), target, 1e-6)
            assert found == queue_word_search(ifs, np.eye(3), target, 1e-6, state_cap=64)
            assert found == (word if depth == 6 else None)
