import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import tolerances
from ifsproj.constructions import (
    HypothesisViolationError,
    _balls_disjoint,
    _greedy_pack,
    _identity_equal_ratio_pair,
    annihilating_rotation,
    build_projection_gdifs,
    find_dimension_drop,
    select_disjoint_cylinders,
    ssc_subsystem,
    verify_pairwise_disjoint,
)
from ifsproj.dimension import is_strongly_connected, sim_dim_gdifs, sim_dim_ssifs
from ifsproj.documents import gdifs_equal, gdifs_from_document, gdifs_to_document
from ifsproj.fixtures import fixture_ifs
from ifsproj.geometry import (
    GeometryError,
    LinearMap,
    NumericFailureError,
    SSIFS,
    Similarity,
    WordLevel,
    attractor_bounding_ball,
    cylinder_ball,
)
from ifsproj.groups import group_closure, planar_rotation, rotation_distance

from conftest import random_ssifs

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

    def test_word_budget_stops_before_the_next_depth(self):
        # 4^5 = 1024 words would exceed the budget, so depth 5 is never built.
        with pytest.raises(NumericFailureError, match="at depth 5"):
            find_dimension_drop(fixture_ifs("example_7_5_plane"), 1, word_budget=1000)


def word_by_word_pack(ifs, depth, seeds, center, radius, separation):
    """The greedy packing as a loop over Word objects and their balls."""
    packed = list(seeds)
    balls = [cylinder_ball(w, center, radius) for w in seeds]
    for indices in itertools.product(range(1, len(ifs) + 1), repeat=depth):
        w = ifs.word(indices)
        b = cylinder_ball(w, center, radius)
        if all(_balls_disjoint(b, other, separation) for other in balls):
            packed.append(w)
            balls.append(b)
    return packed


class TestGreedyPack:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), depth=st.integers(1, 3))
    def test_matches_word_by_word_loop(self, seed, m, depth):
        rng = np.random.default_rng(seed)
        ifs = random_ssifs(rng, d=2, m=m)
        center, radius = attractor_bounding_ball(ifs)
        separation = 1e-3 * radius * float(rng.uniform(0.0, 1.0))
        seeds = [ifs.word(tuple(rng.integers(1, m + 1, size=4))) for _ in range(2)]
        level = WordLevel.root(ifs)
        for _ in range(depth):
            level = level.extend()
        packed = _greedy_pack(level, seeds, center, radius, separation)
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


class TestVerifyPairwiseDisjoint:
    def test_accepts_disjoint_family(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        words = [sierpinski.word([i, i]) for i in (1, 2, 3)]
        assert verify_pairwise_disjoint(words, center, radius, 1e-12) == set()

    def test_flags_nested_words(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        words = [sierpinski.word([1]), sierpinski.word([1, 2])]
        assert verify_pairwise_disjoint(words, center, radius, 1e-12) == {1}


class TestAnnihilatingRotation:
    def test_identity_suffices_when_already_annihilated(self):
        o = annihilating_rotation([planar_rotation(1.0)], X_AXIS, [0.0, 1.0])
        assert np.allclose(o, np.eye(2))

    def test_quarter_turn_kills_x_direction(self):
        o = annihilating_rotation(
            group_closure([planar_rotation(math.pi / 2.0)]), X_AXIS, [1.0, 0.0], tol=1e-9
        )
        assert np.abs(X_AXIS(o @ np.array([1.0, 0.0]))).max() < 1e-9

    def test_irrational_rotation_power_scan(self):
        o = annihilating_rotation([planar_rotation(1.0)], X_AXIS, [1.0, 0.0], tol=1e-3)
        assert np.linalg.norm(X_AXIS(o @ np.array([1.0, 0.0]))) < 1e-3

    def test_rejects_zero_vector(self):
        with pytest.raises(GeometryError):
            annihilating_rotation([np.eye(2)], X_AXIS, [0.0, 0.0])

    def test_exhaustion_raises(self):
        # The identity group can never rotate (1,0) out of the x-axis.
        with pytest.raises(NumericFailureError):
            annihilating_rotation([np.eye(2)], X_AXIS, [1.0, 0.0], tol=1e-6, word_cap=100)
