import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj.geometry import (
    DegenerateSystemError,
    DimensionMismatchError,
    GeometryError,
    LinearMap,
    SSIFS,
    Similarity,
    Subspace,
    Word,
    WordLevel,
    attractor_bounding_ball,
    compose,
    cylinder_ball,
    orthogonality_defect,
    similarity_equal,
)

from conftest import random_similarity, random_ssifs


def halving(v):
    return Similarity(0.5, np.eye(2), v)


class TestSimilarity:
    def test_rejects_ratio_outside_unit_interval(self):
        for ratio in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(GeometryError):
                Similarity(ratio, np.eye(2), [1.0, 0.0])

    def test_identity_sentinel_allows_ratio_one(self):
        ident = Similarity.identity(3)
        assert ident.ratio == 1.0
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(ident(x), x)

    def test_rejects_non_orthogonal_rotation(self):
        with pytest.raises(GeometryError):
            Similarity(0.5, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])

    def test_mild_orthogonality_drift_is_repaired(self):
        drift = np.eye(2) + 5e-10 * np.array([[0.0, 1.0], [0.0, 0.0]])
        s = Similarity(0.5, drift, [0.0, 0.0])
        assert orthogonality_defect(s.rotation) < 1e-14

    def test_rejects_rotation_translation_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Similarity(0.5, np.eye(3), [0.0, 0.0])

    def test_evaluation_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_similarity(rng, d=3)
            x = rng.normal(size=3)
            expected = s.ratio * s.rotation @ x + s.translation
            assert np.allclose(s(x), expected, atol=1e-12)

    def test_batch_evaluation_matches_single(self):
        rng = np.random.default_rng(1)
        s = random_similarity(rng, d=2)
        xs = rng.normal(size=(50, 2))
        batch = s(xs)
        for row, x in zip(batch, xs):
            assert np.allclose(row, s(x), atol=1e-12)

    def test_fixed_point(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_similarity(rng, d=3)
            p = s.fixed_point()
            assert np.allclose(s(p), p, atol=1e-9)


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(3)
        s = random_similarity(rng, d=2)
        assert similarity_equal(compose(Similarity.identity(2), s), s)
        assert similarity_equal(compose(s, Similarity.identity(2)), s)

    def test_homothety_self_composition(self):
        s = halving([1.0, 0.0])
        ss = compose(s, s)
        assert ss.ratio == 0.25
        assert np.allclose(ss.translation, [1.5, 0.0], atol=1e-15)

    def test_triangle_corner_maps(self):
        s1 = halving([0.0, 0.0])
        s2 = halving([0.5, 0.0])
        c = compose(s1, s2)
        assert c.ratio == 0.25
        assert np.allclose(c.translation, [0.25, 0.0], atol=1e-15)
        # Independent oracle: direct affine evaluation at sample points.
        for x in ([0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]):
            assert np.allclose(c(x), s1(s2(np.asarray(x))), atol=1e-12)

    def test_composition_agrees_with_pointwise_application(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = random_similarity(rng, 3), random_similarity(rng, 3)
            c = compose(a, b)
            x = rng.normal(size=3)
            assert np.allclose(c(x), a(b(x)), atol=1e-10)

    def test_associative_up_to_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (random_similarity(rng, 2) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert similarity_equal(left, right, tol=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionMismatchError):
            compose(random_similarity(rng, 2), random_similarity(rng, 3))


class TestSSIFS:
    def test_rejects_single_map(self):
        with pytest.raises(DegenerateSystemError):
            SSIFS([halving([1.0, 0.0])])

    def test_rejects_common_fixed_point(self):
        a = Similarity(0.5, [[1.0]], [0.0])
        b = Similarity(1.0 / 3.0, [[1.0]], [0.0])
        with pytest.raises(DegenerateSystemError):
            SSIFS([a, b])

    def test_rejects_mixed_ambient_dims(self):
        a = Similarity(0.5, [[1.0]], [0.0])
        b = halving([1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            SSIFS([a, b])

    def test_iterate_squares_the_alphabet(self, sierpinski):
        it = sierpinski.iterate(2)
        assert len(it) == 9
        # Lexicographic order: entry (i, j) composes map i with map j.
        expected = compose(sierpinski[0], sierpinski[1])
        assert similarity_equal(it[1], expected)


class TestWordLevel:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        m=st.integers(2, 3),
        depth=st.integers(1, 4),
    )
    def test_level_matches_composed_words(self, seed, d, m, depth):
        ifs = random_ssifs(np.random.default_rng(seed), d=d, m=m)
        level = WordLevel.root(ifs)
        for _ in range(depth):
            level = level.extend()
        words = list(itertools.product(range(1, m + 1), repeat=depth))
        assert level.depth == depth and len(level) == len(words)
        for k, indices in enumerate(words):
            assert level.indices(k) == indices
            composed = ifs.word(indices).composed
            assert level.ratio[k] == composed.ratio
            assert np.abs(level.rotation[k] - composed.rotation).max() <= 1e-12
            assert np.abs(level.translation[k] - composed.translation).max() <= 1e-12

    def test_iterate_wraps_the_level(self, c4):
        level = WordLevel.root(c4).extend().extend()
        it = c4.iterate(2)
        assert np.array_equal(it.ratios, level.ratio)
        assert np.array_equal(it.translations, level.translation)
        assert similarity_equal(it[5], c4.word(level.indices(5)).composed)

    def test_depth_one_is_the_system(self, c4):
        level = WordLevel.root(c4).extend()
        assert np.array_equal(level.ratio, c4.ratios)
        assert np.array_equal(level.rotation, c4.rotations)
        assert np.array_equal(level.translation, c4.translations)

    def test_balls_match_cylinder_ball(self, sierpinski):
        level = WordLevel.root(sierpinski).extend().extend()
        centers, radii = level.balls([0.5, 0.3], 0.7)
        for k in range(len(level)):
            c, r = cylinder_ball(sierpinski.word(level.indices(k)), [0.5, 0.3], 0.7)
            assert np.abs(centers[k] - c).max() <= 1e-15
            assert radii[k] == r


class TestWord:
    def test_ratio_is_exact_product(self, sierpinski):
        w = sierpinski.word([1, 2, 3, 1])
        assert w.ratio == 0.5**4

    def test_empty_word_is_identity(self, sierpinski):
        w = sierpinski.word([])
        assert similarity_equal(w.composed, Similarity.identity(2))

    def test_composed_matches_manual_composition(self, sierpinski):
        w = sierpinski.word([1, 3, 2])
        manual = compose(compose(sierpinski[0], sierpinski[2]), sierpinski[1])
        assert similarity_equal(w.composed, manual)

    def test_rejects_out_of_range_index(self, sierpinski):
        with pytest.raises(GeometryError):
            sierpinski.word([0])
        with pytest.raises(GeometryError):
            sierpinski.word([4])

    def test_deep_composition_stays_orthogonal(self, c4):
        w = c4.word([3] * 30 + [1, 2] * 5)
        assert orthogonality_defect(w.composed.rotation) < 1e-9


class TestCylinderBall:
    def test_empty_word_returns_root(self, sierpinski):
        c, r = cylinder_ball(sierpinski.word([]), [0.5, 0.433], 0.6)
        assert np.allclose(c, [0.5, 0.433])
        assert r == 0.6

    def test_single_letter(self, sierpinski):
        c, r = cylinder_ball(sierpinski.word([1]), [0.5, 0.433], 0.6)
        assert np.allclose(c, sierpinski[0](np.array([0.5, 0.433])))
        assert r == 0.3

    def test_depth_three_radius(self, sierpinski):
        _, r = cylinder_ball(sierpinski.word([1, 2, 3]), [0.5, 0.433], 0.6)
        assert abs(r - 0.6 / 8.0) < 1e-15

    def test_nesting(self, sierpinski):
        root_c, root_r = attractor_bounding_ball(sierpinski)
        w = sierpinski.word([2, 1])
        cw, rw = cylinder_ball(w, root_c, root_r)
        for j in (1, 2, 3):
            cj, rj = cylinder_ball(w.extend(j), root_c, root_r)
            assert np.linalg.norm(cj - cw) + rj <= rw + 1e-9


class TestAttractorBoundingBall:
    def test_contains_fixed_points_and_is_invariant(self, sierpinski):
        c, r = attractor_bounding_ball(sierpinski)
        for s in sierpinski:
            assert np.linalg.norm(s.fixed_point() - c) <= r + 1e-9
            assert np.linalg.norm(s(c) - c) + s.ratio * r <= r + 1e-9

    def test_cantor_ball_covers_unit_interval(self, cantor):
        c, r = attractor_bounding_ball(cantor)
        assert abs(c[0] - 0.5) < 1e-9
        assert r >= 0.5 - 1e-9

    def test_degenerate_list_yields_point_guard(self):
        a = Similarity(0.5, [[1.0]], [0.0])
        b = Similarity(1.0 / 3.0, [[1.0]], [0.0])
        c, r = attractor_bounding_ball([a, b])
        assert np.allclose(c, [0.0])
        assert r <= 1e-10

    def test_random_systems_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            maps = [random_similarity(rng, 2) for _ in range(3)]
            c, r = attractor_bounding_ball(maps)
            for s in maps:
                assert np.linalg.norm(s(c) - c) + s.ratio * r <= r + 1e-8 * (1 + r)


class TestLinearMap:
    def test_rank_and_norm(self):
        L = LinearMap(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert L.rank() == 1
        assert abs(L.operator_norm() - 2.0) < 1e-12

    def test_coordinate_projection(self):
        L = LinearMap.coordinate_projection(3, 2)
        assert np.array_equal(L(np.array([1.0, 2.0, 3.0])), [1.0, 2.0])

    def test_projection_onto_subspace_coordinates(self):
        sub = Subspace.orthogonal_complement_of_vector(np.array([1.0, 0.0]))
        L = LinearMap.projection_onto(sub)
        out = L(np.array([3.0, 5.0]))
        assert out.shape == (1,)
        assert abs(abs(out[0]) - 5.0) < 1e-12


class TestSubspace:
    def test_requires_orthonormal_basis(self):
        with pytest.raises(GeometryError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_complement_is_orthogonal_to_vector(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.normal(size=4)
            sub = Subspace.orthogonal_complement_of_vector(v)
            assert sub.dim == 3
            assert np.abs(sub.basis.T @ v).max() < 1e-9

    def test_complement_rejects_zero_vector(self):
        with pytest.raises(GeometryError):
            Subspace.orthogonal_complement_of_vector(np.zeros(3))

    def test_span_of_first_axes(self):
        sub = Subspace.span_of_first_axes(3, 2)
        assert np.array_equal(sub.basis, np.eye(3)[:, :2])
