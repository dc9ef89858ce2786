import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import geometry, tolerances
from ifsproj.constructions import _identity_equal_ratio_pair, build_projection_gdifs
from ifsproj.fixtures import BUILDERS, fixture_ifs
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
    _fixed_points,
    _matmul,
    _max_abs_distance,
    _orthogonality_defects,
    _row_max_abs,
    attractor_bounding_ball,
    checked_maps,
    cylinder_ball,
    orthogonality_defect,
)
from ifsproj.groups import CLOSURE_TOLERANCE, _distinct

from conftest import (
    EINSUM_MATRIX_PRODUCTS,
    EINSUM_VECTOR_PRODUCTS,
    compose,
    composed_by_oracle,
    extend_by_rows,
    orthogonality_defects_by_gram,
    random_similarity,
    random_ssifs,
    spy_on_orthogonality_defects,
)


NON_DEGENERATE = [name for name in BUILDERS if name != "degenerate_single_fixed_point"]


def halving(v):
    return Similarity(0.5, np.eye(2), v)


def assert_same_map(a, b, tol=1e-9):
    assert a.ambient_dim == b.ambient_dim
    assert abs(a.ratio - b.ratio) <= tol
    assert np.abs(a.rotation - b.rotation).max() <= tol
    assert np.abs(a.translation - b.translation).max() <= tol


class TestSimilarity:
    def test_rejects_ratio_outside_unit_interval(self):
        for ratio in (0.0, 1.0, 1.5, -0.2, math.nan, math.inf, -math.inf):
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

    def test_rejects_nan_rotation_entry(self):
        with pytest.raises(GeometryError):
            Similarity(0.5, [[math.nan, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def test_rejects_infinite_rotation_entry(self):
        with pytest.raises(GeometryError):
            Similarity(0.5, [[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def test_rejects_infinite_translation(self):
        with pytest.raises(GeometryError):
            Similarity(0.5, np.eye(2), [math.inf, 0.0])

    def test_rejects_nan_translation(self):
        with pytest.raises(GeometryError):
            Similarity(0.5, np.eye(2), [math.nan, 0.0])

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["ratio", "rotation", "translation"])
    def test_checked_maps_rejects_non_finite_entries(self, entry, which):
        arrays = {"ratio": np.full(2, 0.5), "rotation": np.stack([np.eye(2)] * 2)}
        arrays["translation"] = np.zeros((2, 2))
        arrays[which].flat[-1] = entry
        with pytest.raises(GeometryError, match="finite"):
            checked_maps(**arrays)

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
        assert_same_map(compose(Similarity.identity(2), s), s)
        assert_same_map(compose(s, Similarity.identity(2)), s)

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
            assert_same_map(left, right)

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

    def test_from_arrays_equals_the_stacked_maps(self, c4):
        again = SSIFS.from_arrays(c4.ratios, c4.rotations, c4.translations)
        assert np.array_equal(again.ratios, c4.ratios)
        assert np.array_equal(again.rotations, c4.rotations)
        assert np.array_equal(again.translations, c4.translations)
        for ratio in (1.0, 0.0, math.nan):
            with pytest.raises(GeometryError):
                SSIFS.from_arrays([0.5, ratio], [[[1.0]]] * 2, [[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError):
            SSIFS.from_arrays([0.5, 0.5], [np.eye(2)] * 2, [[0.0], [1.0]])

    @pytest.mark.parametrize("name", NON_DEGENERATE)
    def test_fixed_points_equal_the_per_map_solve(self, name):
        ifs = fixture_ifs(name)
        fps = _fixed_points(ifs.ratios, ifs.rotations, ifs.translations)
        assert np.array_equal(fps, [s.fixed_point() for s in ifs])

    def test_iterate_squares_the_alphabet(self, sierpinski):
        it = sierpinski.iterate(2)
        assert len(it) == 9
        # Lexicographic order: entry (i, j) composes map i with map j.
        expected = compose(sierpinski[0], sierpinski[1])
        assert_same_map(it[1], expected)


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
            composed = composed_by_oracle(ifs, indices)
            assert level.ratio[k] == composed.ratio
            assert np.abs(level.rotation[k] - composed.rotation).max() <= 1e-12
            assert np.abs(level.translation[k] - composed.translation).max() <= 1e-12

    def test_iterate_wraps_the_level(self, c4):
        level = WordLevel.root(c4).extend().extend()
        it = c4.iterate(2)
        assert np.array_equal(it.ratios, level.ratio)
        assert np.array_equal(it.translations, level.translation)
        assert_same_map(it[5], c4.word(level.indices(5)).composed)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        m=st.integers(2, 3),
        data=st.data(),
    )
    def test_ragged_fold_matches_compose(self, seed, d, m, data):
        ifs = random_ssifs(np.random.default_rng(seed), d=d, m=m)
        letter = st.integers(1, m)
        words = data.draw(
            st.lists(
                st.one_of(
                    st.lists(letter, max_size=6), st.lists(letter, min_size=40, max_size=48)
                ).map(tuple),
                max_size=8,
            )
        )
        # The empty word and a repeated word always take part.
        words = [(), *words, *words[:2]]
        level = WordLevel.of_words(ifs, words)
        assert len(level) == len(words)
        for k, indices in enumerate(words):
            assert level.indices(k) == indices
            composed = composed_by_oracle(ifs, indices)
            assert level.ratio[k] == composed.ratio
            assert np.abs(level.rotation[k] - composed.rotation).max() <= 1e-12
            assert np.abs(level.translation[k] - composed.translation).max() <= 1e-12

    def test_fold_of_a_level_matches_extend(self, c4):
        level = WordLevel.root(c4).extend().extend()
        folded = WordLevel.of_words(c4, [level.indices(k) for k in range(len(level))])
        assert np.array_equal(folded.letters, level.letters)
        assert np.array_equal(folded.ratio, level.ratio)
        assert np.array_equal(folded.rotation, level.rotation)
        assert np.array_equal(folded.translation, level.translation)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        m=st.integers(2, 4),
        depth=st.integers(1, 5),
        padding=st.integers(1, 4),
    )
    def test_identity_padding_keeps_the_bits(self, seed, d, m, depth, padding):
        # The cylinder search's depth-cap step folds a matching word again,
        # followed by identity letters, and must keep it as it was.
        ifs = random_ssifs(np.random.default_rng(seed), d=d, m=m)
        level = WordLevel.root(ifs)
        for _ in range(depth):
            level = level.extend()
        pad = np.full((len(level), padding), m, dtype=level.letters.dtype)
        padded = WordLevel.fold(ifs, np.concatenate([level.letters, pad], axis=1))
        assert [padded.indices(k) for k in range(len(level))] == [
            level.indices(k) for k in range(len(level))
        ]
        for name in ("ratio", "rotation", "translation"):
            assert getattr(padded, name).tobytes() == getattr(level, name).tobytes()

    def test_fold_rejects_out_of_range_letters(self, c4):
        for words in ([(1, 4)], [(0,)]):
            with pytest.raises(GeometryError):
                WordLevel.of_words(c4, words)

    def test_subset_extends_like_the_full_level(self, sierpinski):
        level = WordLevel.root(sierpinski).extend().extend()
        keep = np.array([True, False, False, True, False, True, False, False, True])
        full, part = level.extend(), level[keep].extend()
        rows = np.flatnonzero(np.repeat(keep, 3))
        assert [part.indices(k) for k in range(len(part))] == [full.indices(k) for k in rows]
        assert np.array_equal(part.ratio, full.ratio[rows])
        assert np.array_equal(part.rotation, full.rotation[rows])
        assert np.array_equal(part.translation, full.translation[rows])

    def test_letters_use_the_smallest_unsigned_type(self):
        ifs = fixture_ifs("example_7_5_plane")
        level = WordLevel.root(ifs)
        for _ in range(8):
            level = level.extend()
        assert level.letters.dtype == np.uint8
        assert level.letters.shape == (4**8, 8)
        assert level.indices(4**8 - 2) == (4,) * 7 + (3,)

    def test_depth_one_is_the_system(self, c4):
        level = WordLevel.root(c4).extend()
        assert np.array_equal(level.ratio, c4.ratios)
        assert np.array_equal(level.rotation, c4.rotations)
        assert np.array_equal(level.translation, c4.translations)

    @pytest.mark.parametrize("name", NON_DEGENERATE)
    def test_balls_match_cylinder_ball(self, name):
        # Bit for bit, on every depth-4 word and the attractor's root ball.
        ifs = fixture_ifs(name)
        level = WordLevel.root(ifs)
        for _ in range(4):
            level = level.extend()
        center, radius = attractor_bounding_ball(ifs)
        centers, radii = level.balls(center, radius)
        for k in range(len(level)):
            c, r = cylinder_ball(ifs.word(level.indices(k)), center, radius)
            assert np.array_equal(centers[k], c)
            assert radii[k] == r


def stack(rng, n, d):
    """An (n, d, d) stack whose entries mix signed zeros, small integers
    and random doubles, so sums of -0.0 products occur."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -3.0])
    a = rng.normal(size=(n, d, d))
    special = rng.random(size=a.shape) < 0.5
    a[special] = rng.choice(pool, size=int(special.sum()))
    return a


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# Rows of a stack in a kernel call: 0, 1 or many.  The two stacks of a
# broadcast (n, 1) x (1, m) call draw theirs apart.
KERNEL_ROWS = st.sampled_from([0, 1]) | st.integers(2, 40)


@st.composite
def word_levels(draw, ifs):
    """A level of the system at depth 0..4, cut to a random subset of its rows."""
    level = WordLevel.root(ifs)
    for _ in range(draw(st.integers(0, 4))):
        level = level.extend()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return level[rng.random(len(level)) < draw(st.sampled_from([0.0, 0.5, 1.0]))]


class TestWordLevelSequence:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), m=st.integers(2, 3), data=st.data())
    def test_words_indexing_and_concatenation(self, seed, d, m, data):
        ifs = random_ssifs(np.random.default_rng(seed), d=d, m=m)
        parts = data.draw(st.lists(word_levels(ifs), min_size=1, max_size=3))
        for level in parts:
            words = list(level)
            assert all(isinstance(w, Word) and w.ifs is ifs for w in words)
            assert [w.indices for w in words] == [level.indices(k) for k in range(len(level))]
            for k in range(len(level)):
                assert level[k] == level[np.intp(k)] == words[k]
            tail = level[1:]
            assert isinstance(tail, WordLevel) and list(tail) == words[1:]

        joined = WordLevel.concatenate(parts)
        depth = max(level.depth for level in parts)
        assert joined.depth == depth and len(joined) == sum(map(len, parts))
        # Oracle: each part's letters in its own rows, the rest letter m.
        letters, starts = np.full(joined.letters.shape, m), np.cumsum([0, *map(len, parts)])
        for v, start in zip(parts, starts):
            letters[start : start + len(v), : v.depth] = v.letters
        assert np.array_equal(joined.letters, letters)
        assert [w.indices for w in joined] == [w.indices for v in parts for w in v]
        for name in ("ratio", "rotation", "translation"):
            want = np.concatenate([getattr(v, name) for v in parts])
            assert same_bits(getattr(joined, name), want)
        center, radius = attractor_bounding_ball(ifs)
        balls = [v.balls(center, radius) for v in parts]
        centers, radii = joined.balls(center, radius)
        assert same_bits(centers, np.concatenate([c for c, _ in balls]))
        assert same_bits(radii, np.concatenate([r for _, r in balls]))


class TestMatmulKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS, m=KERNEL_ROWS)
    def test_matrix_products_equal_einsum_bitwise(self, seed, d, n, m):
        rng = np.random.default_rng(seed)
        a, b, c = stack(rng, n, d), stack(rng, n, d), stack(rng, m, d)
        oracle = EINSUM_MATRIX_PRODUCTS
        assert same_bits(_matmul(a, b), oracle["fold rotation"](a, b))
        assert same_bits(_matmul(a[:, None], c[None]), oracle["extend rotation"](a, c))
        assert same_bits(_matmul(a.transpose(0, 2, 1), a), oracle["gram"](a, a))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS, m=KERNEL_ROWS)
    def test_vector_products_equal_einsum_bitwise_up_to_d_two(self, seed, d, n, m):
        rng = np.random.default_rng(seed)
        a = stack(rng, n, d)
        v, w, x = stack(rng, n, d)[:, 0], stack(rng, m, d)[:, 0], stack(rng, 1, d)[:, 0]
        oracle = EINSUM_VECTOR_PRODUCTS
        calls = [
            ("fold translation", a, v, _matmul(a, v[..., None])[..., 0]),
            ("extend translation", a, w, _matmul(a[:, None], w[..., None])[..., 0]),
            ("balls", a, x, _matmul(a, x[0][:, None])[..., 0]),
        ]
        for name, mats, vecs, got in calls:
            want = oracle[name](mats, vecs)
            if d <= 2:
                assert same_bits(got, want)
            else:
                # einsum sums d >= 3 terms in a SIMD order: equal up to rounding.
                bound = d * np.finfo(float).eps * oracle[name](np.abs(mats), np.abs(vecs))
                assert got.shape == want.shape
                assert (np.abs(got - want) <= bound).all()

    def test_signed_zero_sums_are_positive(self):
        # -1 * 0 + 1 * (-0) is -0 in a sum that starts from its first term,
        # but +0 in einsum's, which starts from +0.
        a = np.array([[[-1.0, 1.0]]])
        b = np.array([[[0.0], [-0.0]]])
        assert same_bits(_matmul(a, b), np.einsum("nij,njk->nik", a, b))
        assert not np.signbit(_matmul(a, b)).any()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS)
    def test_row_max_abs_equals_the_axis_reduction(self, seed, d, n):
        a = stack(np.random.default_rng(seed), n, d)
        if n:
            a[n // 2, d - 1, 0] = np.nan
        assert same_bits(_row_max_abs(a), np.abs(a).max(axis=(1, 2)))


@contextlib.contextmanager
def kernel_layout(rows):
    """``_ENTRY_MAJOR_ROWS`` patched to rows: 0 sends every ``_matmul``
    stack entry-major, a huge value keeps every one row-major."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_ENTRY_MAJOR_ROWS", rows)
        yield


KERNEL_LAYOUTS = {"entry-major": 0, "row-major": 2**62}


def with_non_finite_entries(rng, a):
    """The stack with about a tenth of its entries NaN, inf or -inf."""
    a = a.copy()
    special = rng.random(a.shape) < 0.1
    a[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    return a


def same_bits_up_to_nan(x, y):
    """same_bits with every NaN read as np.nan: which NaN a sum of two NaNs
    gives (its sign, say) depends on numpy's inner loop, not on the sum's order."""
    return same_bits(np.where(np.isnan(x), np.nan, x), np.where(np.isnan(y), np.nan, y))


class TestMatmulLayouts(TestMatmulKernel):
    """Every TestMatmulKernel example again with every stack in one layout,
    and non-finite entries against the einsum oracles."""

    @pytest.fixture(autouse=True, scope="class", params=list(KERNEL_LAYOUTS))
    def layout(self, request):
        with kernel_layout(KERNEL_LAYOUTS[request.param]):
            yield

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS, m=KERNEL_ROWS)
    @np.errstate(invalid="ignore")  # inf - inf and 0 * inf are NaN
    def test_non_finite_entries_equal_einsum_bitwise(self, seed, d, n, m):
        rng = np.random.default_rng(seed)
        a, b, c = (with_non_finite_entries(rng, stack(rng, k, d)) for k in (n, n, m))
        oracle = EINSUM_MATRIX_PRODUCTS
        assert same_bits_up_to_nan(_matmul(a, b), oracle["fold rotation"](a, b))
        assert same_bits_up_to_nan(_matmul(a[:, None], c[None]), oracle["extend rotation"](a, c))
        if d <= 2:
            x = with_non_finite_entries(rng, stack(rng, 1, d))[:, 0]
            want = EINSUM_VECTOR_PRODUCTS["balls"](a, x)
            assert same_bits_up_to_nan(_matmul(a, x[0][:, None])[..., 0], want)


class TestEntryMajorKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS, m=KERNEL_ROWS)
    @np.errstate(invalid="ignore")  # inf - inf and 0 * inf are NaN
    def test_layouts_agree_bitwise(self, seed, d, n, m):
        # Also the matrix-vector products with d >= 3, where einsum rounds apart.
        rng = np.random.default_rng(seed)
        a, c = (with_non_finite_entries(rng, stack(rng, k, d)) for k in (n, m))
        calls = [
            (a, a),
            (a[:, None], c[None]),
            (a.transpose(0, 2, 1), a),
            (a, a[..., :1]),
            (a[:, None], c[:, :, :1]),
            (a, stack(rng, 1, d)[0, :, :1]),
            (stack(rng, 1, d)[0], stack(rng, 1, d)[0]),
        ]
        products = {}
        for name, rows in KERNEL_LAYOUTS.items():
            with kernel_layout(rows):
                products[name] = [_matmul(x, y) for x, y in calls]
        for got, want in zip(*products.values()):
            assert same_bits_up_to_nan(got, want) and got.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=KERNEL_ROWS)
    @np.errstate(invalid="ignore")  # inf - inf and 0 * inf are NaN
    def test_max_abs_distance_equals_the_row_fold_of_the_difference(self, seed, d, n):
        rng = np.random.default_rng(seed)
        a = with_non_finite_entries(rng, stack(rng, n, d))
        for matrix in (stack(rng, 1, d)[0], np.eye(d), with_non_finite_entries(rng, stack(rng, 1, d))[0]):
            assert same_bits(_max_abs_distance(a, matrix), _row_max_abs(a - matrix))


class TestBroadcastRotationStack:
    # No change, a repair (a defect between tau_orth / 10 and tau_orth), a
    # rejection, and non-finite entries.
    @pytest.mark.parametrize("stretch", [0.0, 1.5e-10, 1e-6, math.nan])
    def test_one_matrix_gives_the_verdict_of_the_stack(self, stretch, monkeypatch):
        c, s = math.cos(0.3), math.sin(0.3)
        matrix, n = np.array([[c, -s], [s, c]]) * (1.0 + stretch), 6
        ratio, translation = np.full(n, 0.5), np.zeros((n, 2))
        rows = spy_on_orthogonality_defects(monkeypatch)
        outcomes = []
        for rotation in (np.broadcast_to(matrix, (n, 2, 2)), np.repeat(matrix[None], n, axis=0)):
            try:
                outcomes.append(checked_maps(ratio, rotation, translation))
            except GeometryError as error:
                outcomes.append(str(error))
        broadcast, full = outcomes
        if isinstance(full, str):
            assert broadcast == full
        else:
            assert rows == [1, n]
            assert broadcast.strides[0] == 0 and same_bits(np.asarray(broadcast), full)


def shared_rotation(rng, kind, d):
    """One orthogonal d x d matrix: the identity, a turn by 2 pi / 3 or by
    sqrt(2) radians in one plane, or a reflection; all but the identity in
    a random orthonormal basis."""
    if kind == "identity":
        return np.eye(d)
    block = np.eye(d)
    if kind == "improper":
        block[0, 0] = -1.0
    else:
        angle = 2.0 * math.pi / 3.0 if kind == "rational" else math.sqrt(2.0)
        block[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return q @ block @ q.T


@st.composite
def one_rotation_systems(draw):
    """A system of 2..5 maps in dimension 1..4 that share one rotation, with
    ratios from a few values so that equal-ratio words occur."""
    d = draw(st.integers(1, 4))
    kinds = ["identity", "improper"] + (["rational", "irrational"] if d > 1 else [])
    kind, m = draw(st.sampled_from(kinds)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.repeat(shared_rotation(rng, kind, d)[None], m, axis=0)
    ratios = rng.choice([0.25, 0.4, 0.5], size=m)
    return SSIFS.from_arrays(ratios, rotation, rng.normal(size=(m, d)))


def materialised(level):
    """The level with its rotation stack copied out, one matrix per row."""
    rotation = np.array(level.rotation)
    return WordLevel(level.ifs, level.letters, level.ratio, rotation, level.translation)


def assert_same_level(got, want):
    for name in ("letters", "ratio", "rotation", "translation"):
        assert same_bits(np.asarray(getattr(got, name)), np.asarray(getattr(want, name))), name


class TestOneRotationLevels:
    """Levels of systems whose maps share one rotation hold it as a
    broadcast stack, with the bits of the per-row oracle."""

    @settings(max_examples=40, deadline=None)
    @given(ifs=one_rotation_systems(), depth=st.integers(0, 6))
    def test_levels_match_the_row_oracle(self, ifs, depth):
        # Up to the depth, and on to the first level past _ENTRY_MAJOR_ROWS.
        level = oracle = WordLevel.root(ifs)
        while level.depth < depth or len(level) < geometry._ENTRY_MAJOR_ROWS:
            level, oracle = level.extend(), extend_by_rows(oracle)
            assert level.rotation.strides[0] == 0
            assert_same_level(level, oracle)

    @settings(max_examples=40, deadline=None)
    @given(ifs=one_rotation_systems(), depth=st.integers(1, 6), data=st.data())
    def test_readers_match_a_materialised_level(self, ifs, depth, data):
        level = WordLevel.root(ifs)
        past = data.draw(st.booleans())
        while level.depth < depth or (past and len(level) < geometry._ENTRY_MAJOR_ROWS):
            level = level.extend()
        full = materialised(level)
        n, rng = len(level), np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        selections = [
            rng.random(n) < 0.5, np.zeros(n, dtype=bool), data.draw(st.slices(n)),
            slice(0, 0), np.empty(0, dtype=np.intp), rng.integers(0, n, size=5),
        ]
        for rows in selections:
            part, want = level[rows], full[rows]
            assert part.rotation.strides[0] == 0
            assert_same_level(part, want)
            assert_same_level(part.extend(), want.extend())

        center, radius = attractor_bounding_ball(ifs)
        for got, want in zip(level.balls(center, radius), full.balls(center, radius)):
            assert same_bits(got, want)
        distinct = (_distinct(v.rotation, CLOSURE_TOLERANCE) for v in (level, full))
        for got, want in zip(*distinct):
            assert same_bits(np.asarray(got), np.asarray(want))
        tau = tolerances.tau_num()
        assert _identity_equal_ratio_pair(level, tau) == _identity_equal_ratio_pair(full, tau)

        d = ifs.ambient_dim
        linear_map = LinearMap(rng.normal(size=(data.draw(st.integers(1, d)), d)))
        results = []
        for source in (level, full):
            try:
                results.append(build_projection_gdifs(source, linear_map))
            except GeometryError as error:
                results.append(repr(error))
        got, want = results
        if isinstance(want, str):
            assert got == want
        else:
            assert same_bits(got.group.elements, want.group.elements)
            for name in ("source", "target", "ratio", "rotation", "translation"):
                arrays = (np.asarray(getattr(r.gdifs, name)) for r in (got, want))
                assert same_bits(*arrays), name

    def test_a_signed_zero_keeps_the_full_stack(self):
        # -0.0 == 0.0, but the generators are not bitwise equal.
        rotations = np.repeat(np.eye(2)[None], 2, axis=0)
        rotations[1, 0, 1] = -0.0
        ifs = SSIFS.from_arrays([0.5, 0.5], rotations, [[0.0, 0.0], [1.0, 0.0]])
        level = oracle = WordLevel.root(ifs)
        for _ in range(3):
            level, oracle = level.extend(), extend_by_rows(oracle)
            assert level.rotation.strides[0] != 0
            assert_same_level(level, oracle)


@st.composite
def fold_systems(draw):
    """A system of 2..4 maps in dimension 1..3 whose rotations are one
    matrix, bitwise (its levels are broadcast stacks), or drawn apart."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if not draw(st.booleans()):
        return random_ssifs(rng, d=d, m=m)
    kinds = ["identity", "improper"] + (["rational", "irrational"] if d > 1 else [])
    rotation = np.repeat(shared_rotation(rng, draw(st.sampled_from(kinds)), d)[None], m, axis=0)
    return SSIFS.from_arrays(rng.uniform(0.2, 0.8, size=m), rotation, rng.normal(size=(m, d)))


class TestLevelsAreTheirFold:
    """A level built by extend, a row subset or concatenate holds, bit for
    bit, the maps that fold gives its letters; verify_pairwise_disjoint
    reads a level's own balls on this ground."""

    @settings(max_examples=60, deadline=None)
    @given(ifs=fold_systems(), depth=st.integers(0, 5), data=st.data())
    def test_levels_subsets_and_joins_match_their_fold(self, ifs, depth, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        levels = [WordLevel.root(ifs)]
        for _ in range(depth):
            levels.append(levels[-1].extend())
        chosen = data.draw(st.lists(st.sampled_from(levels), min_size=1, max_size=3))
        parts = [v[rng.random(len(v)) < 0.5] for v in chosen]
        for level in (*levels, *parts, WordLevel.concatenate(parts)):
            folded = WordLevel.fold(ifs, level.letters)
            for name in ("ratio", "rotation", "translation"):
                assert same_bits(np.asarray(getattr(level, name)), getattr(folded, name)), name


def rotation_stack(rng, kind, n, d):
    """An (n, d, d) stack of signed permutations and QR factors, moved by
    up to 1e-12..1e-6 when perturbed, or of arbitrary matrices; about half
    its zero entries are -0.0."""
    if kind == "general":
        a = stack(rng, n, d)
    else:
        perms = np.array([np.eye(d)[rng.permutation(d)] for _ in range(n)]).reshape(n, d, d)
        perms *= rng.choice([-1.0, 1.0], size=(n, 1, d))
        qr = np.linalg.qr(rng.normal(size=(n, d, d)))[0]
        a = np.where(rng.random(n)[:, None, None] < 0.5, perms, qr)
        if kind == "perturbed":
            a += rng.uniform(-1.0, 1.0, a.shape) * 10.0 ** rng.uniform(-12, -6, (n, 1, 1))
    return np.where((a == 0.0) & (rng.random(a.shape) < 0.5), -0.0, a)


class TestOrthogonalityDefects:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["orthogonal", "perturbed", "general"]),
        d=st.integers(1, 4),
        n=st.sampled_from([0, 1]) | st.integers(2, 300),
    )
    def test_equal_the_gram_stack_bitwise(self, seed, kind, d, n):
        a = rotation_stack(np.random.default_rng(seed), kind, n, d)
        assert same_bits(_orthogonality_defects(a), orthogonality_defects_by_gram(a))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 300))
    def test_nan_entries_give_the_gram_stack_verdict(self, seed, d, n):
        rng = np.random.default_rng(seed)
        a = rotation_stack(rng, "perturbed", n, d)
        a[rng.random(a.shape) < 0.05] = np.nan
        got, want = _orthogonality_defects(a), orthogonality_defects_by_gram(a)
        tau = tolerances.tau_orth()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got <= tau, want <= tau)
        assert np.array_equal(got[~np.isnan(got)], want[~np.isnan(want)])


class TestWord:
    def test_ratio_is_exact_product(self, sierpinski):
        w = sierpinski.word([1, 2, 3, 1])
        assert w.ratio == 0.5**4

    def test_empty_word_is_identity(self, sierpinski):
        w = sierpinski.word([])
        assert_same_map(w.composed, Similarity.identity(2))

    def test_composed_matches_manual_composition(self, sierpinski):
        w = sierpinski.word([1, 3, 2])
        manual = compose(compose(sierpinski[0], sierpinski[2]), sierpinski[1])
        assert_same_map(w.composed, manual)

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
            cj, rj = cylinder_ball(sierpinski.word(w.indices + (j,)), root_c, root_r)
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

    def test_random_systems_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            maps = [random_similarity(rng, 2) for _ in range(3)]
            c, r = attractor_bounding_ball(SSIFS(maps))
            for s in maps:
                assert np.linalg.norm(s(c) - c) + s.ratio * r <= r + 1e-8 * (1 + r)


class TestLinearMap:
    def test_operator_norm(self):
        L = LinearMap(np.array([[2.0, 0.0], [0.0, 0.0]]))
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
