import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj import estimation
from ifsproj.estimation import (
    PointCloud,
    SamplingMethod,
    box_count,
    box_counts,
    box_dim,
    column_bounds,
    covering_sum_upper_bound,
    covering_sums,
    default_scales,
    project_cloud,
    sample_attractor,
)
from ifsproj.geometry import (
    DimensionMismatchError,
    GeometryError,
    LinearMap,
    NumericFailureError,
    attractor_bounding_ball,
    cylinder_ball,
)

from conftest import random_ssifs


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float), 0, SamplingMethod.DETERMINISTIC_DEPTH, "test")


def per_scale_count(points, scale):
    """Independent oracle: floor every coordinate and count distinct rows."""
    quantized = np.floor(np.atleast_2d(points) / scale).astype(np.int64)
    if quantized.shape[1] == 1:
        return int(np.unique(quantized[:, 0]).size)
    return int(np.unique(quantized, axis=0).shape[0])


def chaos_game_by_appending(ifs, n, seed):
    """The chaos game as one masked update per map and step, collecting a
    copy of every step and concatenating them at the end."""
    rng = np.random.default_rng(seed)
    m = len(ifs)
    burn_in, chains = 100, min(n, 1024)
    steps = burn_in + -(-n // chains)
    choices = rng.choice(m, size=(steps, chains), p=np.full(m, 1.0 / m))
    x = np.tile(ifs[0].fixed_point(), (chains, 1))
    collected = []
    for row in choices:
        for i, s in enumerate(ifs):
            mask = row == i
            if mask.any():
                x[mask] = s(x[mask])
        collected.append(x.copy())
    return np.concatenate(collected[burn_in:])[:n]


def deterministic_by_concatenation(ifs, n):
    """The depth-k word tree as one concatenation of every map's image of
    the previous level; returns the points and the depth."""
    m = len(ifs)
    depth = 0
    while m**depth < n:
        depth += 1
    points = ifs[0].fixed_point()[None]
    for _ in range(depth):
        points = np.concatenate([s(points) for s in ifs])
    return points, depth


@st.composite
def random_systems(draw, dims):
    d = draw(st.sampled_from(dims))
    m = draw(st.integers(2, 5))
    return random_ssifs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, m)


@st.composite
def tree_sizes(draw, m, cap=3 * 10**4):
    """n up to cap, with the level sizes m^k and the sizes m^k + 1 just past
    them drawn on purpose."""
    levels = [m**k for k in range(20) if m**k + 1 <= cap]
    return draw(
        st.one_of(
            st.integers(1, cap),
            st.sampled_from(levels),
            st.sampled_from(levels).map(lambda size: size + 1),
        )
    )


TINY = np.finfo(float).tiny
# Kept on purpose besides uniform and subnormal values: signed zeros, the
# smallest normal magnitude, and values on cell edges of dyadic scales.
SPECIAL = np.array([0.0, -0.0, -TINY, TINY, 1.0, -1.0, 1e3, -1e3, 0.5, -0.5])


@st.composite
def clouds(draw):
    """1..6 rows of d = 1..3 coordinates plus up to three repeated rows.
    Each coordinate is uniform in [-1e3, 1e3] or in [-4 tiny, 4 tiny], a
    multiple of 5e-324, a multiple of 1/8, or one of SPECIAL; numpy draws
    them from a drawn seed, which keeps the draws per example few."""
    d = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, d)
    kinds = [
        rng.uniform(-1e3, 1e3, shape),
        rng.uniform(-4 * TINY, 4 * TINY, shape),
        rng.integers(-8, 9, shape) * 5e-324,
        rng.integers(-64, 65, shape) / 8.0,
        rng.choice(SPECIAL, shape),
    ]
    values = np.choose(rng.integers(0, len(kinds), shape), kinds)
    return np.concatenate([values, values[rng.integers(0, rows, size=rng.integers(0, 4))]])


@st.composite
def ladders(draw):
    """A shuffled dyadic ladder base 2^top .. base 2^(top - levels + 1), or
    1..4 scales in [1e-3, 1e3], drawn by numpy from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.uniform(1e-3, 1e3, rng.integers(1, 5)).tolist()
    top = int(rng.integers(-2, 5) if rng.random() < 0.5 else rng.integers(-20, 11))
    base = float(rng.choice([0.1, 1.0, 10.0, rng.uniform(0.1, 10.0)]))
    ladder = [math.ldexp(base, top - i) for i in range(rng.integers(2, 8))]
    return [ladder[i] for i in rng.permutation(len(ladder))]


@pytest.fixture
def sixteen_maps():
    # The chaos game's map choices count the cdf edges in m - 1 passes.
    return random_ssifs(np.random.default_rng(16), d=2, m=16)


def assert_recorded_bounds(cloud):
    """The sampler's recorded bounds are, bit for bit, column_bounds'."""
    lo, hi = cloud._bounds
    expected_lo, expected_hi = column_bounds(cloud.points)
    assert lo.tobytes() == expected_lo.tobytes() and hi.tobytes() == expected_hi.tobytes()
    assert np.array_equal(lo, cloud.points.min(axis=0))
    assert np.array_equal(hi, cloud.points.max(axis=0))


class TestSampleAttractor:
    def test_single_point_is_first_fixed_point(self, sierpinski):
        cloud = sample_attractor(sierpinski, 1)
        assert np.allclose(cloud.points[0], sierpinski[0].fixed_point())

    def test_cantor_depth_two_points(self, cantor):
        cloud = sample_attractor(cantor, 3)
        values = sorted(float(x) for x in cloud.points[:, 0])
        assert np.allclose(values, [0.0, 2.0 / 9.0, 2.0 / 3.0, 8.0 / 9.0], atol=1e-12)

    def test_deterministic_is_reproducible(self, sierpinski):
        a = sample_attractor(sierpinski, 1000)
        b = sample_attractor(sierpinski, 1000)
        assert np.array_equal(a.points, b.points)

    def test_chaos_game_is_seed_reproducible(self, sierpinski):
        a = sample_attractor(sierpinski, 5000, seed=42, method=SamplingMethod.CHAOS_GAME)
        b = sample_attractor(sierpinski, 5000, seed=42, method=SamplingMethod.CHAOS_GAME)
        c = sample_attractor(sierpinski, 5000, seed=43, method=SamplingMethod.CHAOS_GAME)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert len(a) == 5000

    def test_chaos_game_covers_shallow_cylinders(self, sierpinski):
        cloud = sample_attractor(sierpinski, 10**5, seed=42, method=SamplingMethod.CHAOS_GAME)
        center, radius = attractor_bounding_ball(sierpinski)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    c, r = cylinder_ball(sierpinski.word([i, j, k]), center, radius)
                    dist = np.linalg.norm(cloud.points - c, axis=1)
                    assert (dist <= r + 1e-9).any()

    def test_all_points_in_bounding_ball(self, sierpinski):
        center, radius = attractor_bounding_ball(sierpinski)
        for method in SamplingMethod:
            cloud = sample_attractor(sierpinski, 2000, seed=1, method=method)
            dist = np.linalg.norm(cloud.points - center, axis=1)
            assert (dist <= radius * (1.0 + 1e-9) + 1e-9).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "name, n", [("sierpinski", 5000), ("irrational", 3000), ("sixteen_maps", 3000)]
    )
    def test_chaos_game_matches_appending_loop(self, request, name, n, seed):
        ifs = request.getfixturevalue(name)
        cloud = sample_attractor(ifs, n, seed=seed, method=SamplingMethod.CHAOS_GAME)
        assert np.array_equal(cloud.points, chaos_game_by_appending(ifs, n, seed))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_deterministic_matches_concatenation(self, data):
        ifs = data.draw(random_systems((1, 2, 3, 4)))
        n = data.draw(tree_sizes(len(ifs)))
        cloud = sample_attractor(ifs, n)
        points, depth = deterministic_by_concatenation(ifs, n)
        assert np.array_equal(cloud.points, points)
        assert cloud.depth == depth
        assert_recorded_bounds(cloud)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_narrow_blocks_match_concatenation(self, data):
        # Blocks of m or m^2 columns: every level past the root splits into
        # several full blocks.
        ifs = data.draw(random_systems((1, 2, 3, 4)))
        m, d = len(ifs), ifs.ambient_dim
        width = m ** data.draw(st.integers(1, 2))
        k = data.draw(st.integers(0, 12).filter(lambda k: m**k < 3 * 10**4))
        n = m**k + data.draw(st.integers(0, 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_TREE_BLOCK_BYTES", 8 * m * d * width)
            cloud = sample_attractor(ifs, n)
        points, depth = deterministic_by_concatenation(ifs, n)
        assert np.array_equal(cloud.points, points)
        assert cloud.points.flags.c_contiguous
        assert cloud.depth == depth
        assert_recorded_bounds(cloud)

    def test_diameter_reads_the_recorded_bounds(self, monkeypatch, irrational):
        cloud = sample_attractor(irrational, 10**4)
        expected = float(np.linalg.norm(cloud.points.max(axis=0) - cloud.points.min(axis=0)))

        def unread(points):
            raise AssertionError("the tree's bounds are recorded")

        monkeypatch.setattr(estimation, "column_bounds", unread)
        assert cloud.diameter() == expected

    def test_projections_and_chaos_clouds_record_no_bounds(self, irrational):
        cloud = sample_attractor(irrational, 10**4)
        projected = project_cloud(cloud, LinearMap(np.array([[0.6, 0.8]])))
        chaos = sample_attractor(irrational, 10**4, seed=1, method=SamplingMethod.CHAOS_GAME)
        for other in (projected, chaos):
            assert other._bounds is None
            lo, hi = other.points.min(axis=0), other.points.max(axis=0)
            assert other.diameter() == float(np.linalg.norm(hi - lo))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_projected_sample_is_project_cloud(self, data):
        # Sizes m^k and m^k + 1 down to n = 1 and 2 (a depth-1 tree's blocks
        # have one column), blocks of m or m^2 columns or the default, and
        # l x d maps that may have a zero row.
        ifs = data.draw(random_systems((1, 2, 3, 4)))
        m, d = len(ifs), ifs.ambient_dim
        n = data.draw(tree_sizes(m, cap=10**4))
        method = data.draw(st.sampled_from(SamplingMethod))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        matrix = rng.normal(size=(data.draw(st.integers(1, d)), d))
        if data.draw(st.booleans()):
            matrix[rng.integers(len(matrix))] = 0.0
        linear_map = LinearMap(matrix)
        block_bytes = data.draw(
            st.sampled_from([estimation._TREE_BLOCK_BYTES, 8 * m * d * m, 8 * m * d * m * m])
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_TREE_BLOCK_BYTES", block_bytes)
            cloud = sample_attractor(ifs, n, seed=7, method=method)
            projected = sample_attractor(ifs, n, seed=7, method=method, linear_map=linear_map)
        expected = project_cloud(cloud, linear_map).points
        assert projected.points.shape == expected.shape
        assert projected.points.tobytes() == expected.tobytes()
        assert_recorded_bounds(projected)
        assert projected.sample_diameter() == cloud.diameter()
        assert (projected.method, projected.depth) == (cloud.method, cloud.depth)

    def test_unprojected_and_derived_clouds_report_their_own_diameter(self, irrational):
        cloud = sample_attractor(irrational, 10**4)
        projected = project_cloud(cloud, LinearMap(np.array([[0.6, 0.8]])))
        for other in (cloud, projected):
            assert other.sample_diameter() == other.diameter()

    @pytest.mark.parametrize("method", list(SamplingMethod))
    def test_mismatched_map_fails_before_sampling(self, irrational, method):
        # 10^7 points would take 80 MB before a projection could fail.
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatchError, match=r"map on R\^3 to a cloud in R\^2"):
                sample_attractor(irrational, 10**7, method=method, linear_map=LinearMap(np.eye(3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 16])
    @pytest.mark.parametrize("steps, chains", [(7, 3), (40, 64), (17, 256), (33, 1024)])
    def test_chaos_choices_are_those_of_rng_choice(self, m, steps, chains):
        for seed in range(3):
            expected, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
            choices = expected.choice(m, size=(steps, chains), p=np.full(m, 1.0 / m))
            rows = [row for row, _ in estimation._chaos_choices(drawn, m, steps, chains)]
            assert np.array_equal(np.array(rows), choices)
            assert drawn.bit_generator.state == expected.bit_generator.state

    @settings(max_examples=35, deadline=None)
    @given(
        random_systems((1, 2, 3)),
        st.integers(0, 2**32 - 1),
        st.one_of(
            st.integers(1, 1023),
            st.integers(1025, 4097),
            st.integers(1, 4).map(lambda k: 1024 * k),
        ),
    )
    def test_chaos_game_matches_appending_loop_on_random_systems(self, ifs, seed, n):
        cloud = sample_attractor(ifs, n, seed=seed, method=SamplingMethod.CHAOS_GAME)
        assert np.array_equal(cloud.points, chaos_game_by_appending(ifs, n, seed))

    def test_deterministic_peak_memory_is_output_plus_one_level(self, irrational):
        # The (m^k, d) output, levels 0 .. k - 1 as columns of one
        # (d, m^(k-1)) buffer (1/m of the output) and one block of images of
        # at most _TREE_BLOCK_BYTES: (1 + 1/m) times the output plus a block.
        tracemalloc.start()
        try:
            cloud = sample_attractor(irrational, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 + 1 / len(irrational)) * cloud.points.nbytes + 2**20

    def test_projected_peak_memory_is_output_plus_one_level(self, irrational):
        # The (m^k, l) output, the level buffer (1/m of the (m^k, d) sample,
        # which is never built), one block of images and its two scratch
        # buffers: the (m w, d) rows and their (m w, l) projection.
        m, d = len(irrational), irrational.ambient_dim
        tracemalloc.start()
        try:
            cloud = sample_attractor(irrational, 10**6, linear_map=LinearMap(np.array([[0.6, 0.8]])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        level = len(cloud) * d * 8 // m
        block = estimation._TREE_BLOCK_BYTES
        assert peak <= cloud.points.nbytes + level + block * (2 + 1 / d) + 2**20
        assert peak < len(cloud) * d * 8

    def test_chaos_game_peak_memory_is_output_plus_one_block(self, irrational):
        # The map choices are drawn a block of steps at a time, which adds
        # about 1.2 MiB to the output; drawing all steps at once added 8.6 MiB.
        tracemalloc.start()
        try:
            cloud = sample_attractor(irrational, 10**6, seed=1, method=SamplingMethod.CHAOS_GAME)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cloud.points.nbytes + 2**21

    def test_rejects_nonpositive_n(self, sierpinski):
        with pytest.raises(GeometryError):
            sample_attractor(sierpinski, 0)


class TestBoxCount:
    def test_single_point(self):
        assert box_count(np.array([[0.3, 0.4]]), 1.0) == 1

    def test_unit_grid(self):
        pts = np.array([[i + 0.5, j + 0.5] for i in range(4) for j in range(4)])
        assert box_count(pts, 1.0) == 16
        assert box_count(pts, 4.0) == 1

    def test_one_dimensional_cloud(self):
        pts = np.linspace(0.0, 1.0, 1000)[:, None]
        assert box_count(pts, 0.1) == 11

    def test_rejects_bad_scale(self):
        with pytest.raises(GeometryError):
            box_count(np.zeros((5, 2)), 0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(GeometryError):
            box_counts(np.zeros((5, 2)), [1.0, scale])


class TestBoxCounts:
    @settings(max_examples=200, deadline=None)
    @given(clouds(), ladders())
    def test_matches_per_scale_oracle(self, points, scales):
        expected = [per_scale_count(points, s) for s in scales]
        assert box_counts(points, scales) == expected

    def test_underflowing_halving_uses_per_scale_counts(self):
        # -5e-324 / 1 floors to -1, but -5e-324 / 2 rounds to -0.0, which
        # floors to 0: shifting the scale-1 cell would give -1.
        points = np.array([[-5e-324], [1.0]])
        assert box_counts(points, [2.0, 1.0]) == [1, 2]
        assert [per_scale_count(points, s) for s in (2.0, 1.0)] == [1, 2]
        # A ladder of 1086 halvings: -2^-60 / 2^1023 underflows although
        # the finest quotient, -8, is far from subnormal.
        points = np.array([[-(2.0**-60)], [0.5]])
        scales = [2.0**k for k in range(1023, -64, -1)]
        assert box_counts(points, scales) == [per_scale_count(points, s) for s in scales]

    @pytest.mark.parametrize(
        "points",
        [
            [[-5e-324], [1.0]],
            [[-0.0], [-0.0], [0.0]],
            [[-0.0, -5e-324], [-0.0, 0.75], [-0.0, -0.0]],
            [[-5e-324, -0.0], [-1.5, -0.0], [2.0, 0.25]],
            [[-5e-324], [-1.5]],
        ],
        ids=[
            "subnormal",
            "zeros",
            "zero column and subnormal",
            "subnormal and zero column",
            "subnormal max",
        ],
    )
    def test_signed_zeros_and_subnormals(self, points):
        # A column of -0.0 has lowest quotient -0.0 >= 0: it is not floored,
        # and the cast takes -0.0 to cell 0.  -5e-324 lies in cell -1, whose
        # halvings can underflow, so such a ladder is counted per scale.
        points = np.array(points)
        for scales in ([2.0, 1.0], [4.0, 2.0, 1.0, 0.5], [1.0], [0.3, 0.2]):
            assert box_counts(points, scales) == [per_scale_count(points, s) for s in scales]

    def test_guard_is_checked_only_where_a_quotient_can_lie_below_zero(self, monkeypatch):
        calls = []
        real = estimation._floor_cells

        def spy(column, scale, negative, guard):
            calls.append((negative, guard > 0))
            return real(column, scale, negative, guard)

        monkeypatch.setattr(estimation, "_floor_cells", spy)
        # Quotients >= 0; all at most -guard; some in (-guard, 0] possible.
        points = np.array([[0.0, -3.0, -0.5], [1.0, -2.0, 0.5]])
        assert box_counts(points, [2.0, 1.0]) == [2, 2]
        assert calls == [(False, False), (True, False), (True, True)]

    def test_counts_follow_the_given_scale_order(self):
        points = np.array([[i + 0.5, j + 0.5] for i in range(4) for j in range(4)])
        assert box_counts(points, [1.0, 4.0, 2.0, 0.5]) == [16, 1, 4, 16]

    def test_dyadic_ladder_quantises_once(self, monkeypatch, sierpinski):
        calls = []
        floor_cells = estimation._floor_cells

        def counting(*args):
            calls.append(args[1])
            return floor_cells(*args)

        monkeypatch.setattr(estimation, "_floor_cells", counting)
        cloud = sample_attractor(sierpinski, 10**4)
        scales = default_scales(cloud)
        box_counts(cloud.points, scales)
        assert calls == [scales[-1]] * 2
        calls.clear()
        box_counts(cloud.points, [0.3, 0.2, 0.1])
        assert calls == [0.3, 0.3, 0.2, 0.2, 0.1, 0.1]

    @pytest.mark.parametrize(
        "points, scale",
        [
            ([[math.nan], [1.0], [math.inf]], 0.5),
            ([[1.0, -math.inf]], 1.0),
            ([[1e19]], 1.0),
            ([[-1.0]], 1e-300),
            ([[1e300, 0.0]], 1e-300),
        ],
    )
    def test_non_finite_or_out_of_range_quotients_raise(self, points, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError):
                box_count(np.array(points), scale)
            with pytest.raises(GeometryError):
                box_counts(np.array(points), [2.0 * scale, scale])

    def test_wide_clouds_do_not_wrap_the_cell_key(self):
        # Column spans whose product exceeds int64 go through np.lexsort.
        rng = np.random.default_rng(3)
        for d in (2, 3):
            points = rng.uniform(-2.0**40, 2.0**40, size=(500, d))
            points = np.concatenate([points, points[:50], np.zeros((1, d))])
            scales = [2.0, 1.0, 0.5]
            assert box_counts(points, scales) == [per_scale_count(points, s) for s in scales]
        far = np.array([[0.0, 0.0], [2.0**62, 0.0], [0.0, 2.0**62], [2.0**62, 2.0**62]])
        assert box_counts(far, [1.0]) == [4]
        # A first column of exactly 2^63 cells leaves no int64 radix for
        # the next one, even a constant one.
        edge = np.array([[-(2.0**63), 5.0, 0.0], [-1.0, 5.0, 0.0]])
        assert box_counts(edge, [1.0]) == [2]
        assert box_counts(edge[:, :1], [1.0]) == [2]


def points_with_spans(spans, shift, seed=8):
    """Points whose cells at scale 1 take exactly spans[j] values in column j,
    from shift on: both corners, random cells between, and repeats."""
    spans = np.array(spans, dtype=np.int64)
    inner = np.random.default_rng(seed).integers(0, spans, size=(200, spans.size))
    cells = np.concatenate([np.zeros((1, spans.size), np.int64), spans[None] - 1, inner, inner[:20]])
    return (cells + shift).astype(float) + 0.5


SPANS = [
    (2**31 - 1,),
    (2**31,),
    (2**31 + 1,),
    (2**32,),
    (1, 2**31 - 1),
    (2**16, 2**15),
    (3, 715827883),  # 2^31 + 1
    (2**16, 2**16),
    (2**31, 1),  # a radix of 2^31 for the constant column
]


@pytest.fixture
def sorted_keys(monkeypatch):
    """The dtypes of the keys that _distinct_cells sorts, which it does on
    its sort path only."""
    dtypes = []
    real = estimation._sorted_distinct

    def spy(key):
        dtypes.append(key.dtype)
        return real(key)

    monkeypatch.setattr(estimation, "_sorted_distinct", spy)
    return dtypes


class TestCellKeyWidth:
    """On the sort path (a product of spans above the number of rows), the
    mixed-radix cell key is int32 for a product below 2^31 and int64 from
    there on."""

    @pytest.mark.parametrize("shift", [0, -(2**31) - 5], ids=["nonnegative", "negative"])
    @pytest.mark.parametrize("spans", SPANS, ids=str)
    def test_counts_match_the_oracle_at_the_width_boundary(self, spans, shift):
        # 36 halvings: at the coarse scales, cells on both sides of 2^31 (or
        # of 0, shifted) merge, which a wrapped int32 key would keep apart.
        points = points_with_spans(spans, shift)
        scales = [2.0**k for k in range(35, -1, -1)]
        assert box_counts(points, scales) == [per_scale_count(points, s) for s in scales]

    @pytest.mark.parametrize("spans", SPANS, ids=str)
    def test_narrows_the_key_only_below_2_to_the_31(self, sorted_keys, spans):
        points = points_with_spans(spans, 0)
        assert box_counts(points, [1.0]) == [per_scale_count(points, 1.0)]
        assert sorted_keys == [np.int32 if math.prod(spans) < 2**31 else np.int64]

    def test_peak_memory_is_one_quotient_and_a_mask(self):
        # One chunk of _CHUNK_ROWS quotients is floored at a time, in place,
        # and marks one 2^14-byte mask: 0.183 x the column's bytes.  One
        # float quotient for the whole column, floored, cast and narrowed in
        # place, with a one-byte guard mask per point, took 1.1335 x; a
        # separate int32 key over 1.5 x.
        column = np.random.default_rng(9).uniform(-1.0, 1.0, size=(10**6, 1))
        tracemalloc.start()
        try:
            box_counts(column, [2.0**-k for k in range(5, 14)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.135 * column.nbytes


class TestOccupancyMask:
    """Distinct cells come from a one-byte occupancy mask when the key's
    radix (the product of the column spans) is at most the number of rows,
    and from sorting the key otherwise."""

    @pytest.mark.parametrize("shift", [0, -(2**31) - 5], ids=["nonnegative", "negative"])
    @pytest.mark.parametrize(
        "spans, masked",
        [((222,), True), ((223,), False), ((2, 111), True), ((223, 1), False), ((3, 2, 37), True)],
        ids=str,
    )
    def test_both_paths_match_the_oracle(self, sorted_keys, spans, masked, shift):
        # points_with_spans gives 222 rows: radix == rows, or one more.
        points = points_with_spans(spans, shift)
        assert len(points) == 222
        assert box_counts(points, [1.0]) == [per_scale_count(points, 1.0)]
        assert bool(sorted_keys) != masked
        scales = [2.0**k for k in range(8, -1, -1)]
        assert box_counts(points, scales) == [per_scale_count(points, s) for s in scales]

    def test_dense_column_takes_the_mask(self, sorted_keys):
        column = np.random.default_rng(4).uniform(-1.0, 1.0, size=(10**4, 1))
        scales = [2.0**-k for k in range(1, 9)]
        assert box_counts(column, scales) == [per_scale_count(column, s) for s in scales]
        assert not sorted_keys


class TestBoxDim:
    def test_repeated_point_slope_zero(self):
        cloud = cloud_of(np.tile([0.25, 0.75], (1000, 1)))
        est = box_dim(cloud, [0.5, 0.25, 0.125])
        assert est.slope == 0.0

    def test_uniform_square_slope_two(self):
        rng = np.random.default_rng(0)
        cloud = cloud_of(rng.uniform(size=(10**6, 2)))
        est = box_dim(cloud, [2.0**-k for k in range(2, 9)])
        assert abs(est.slope - 2.0) < 0.05

    def test_uniform_interval_slope_one(self):
        rng = np.random.default_rng(1)
        cloud = cloud_of(rng.uniform(size=(10**5, 1)))
        est = box_dim(cloud, [2.0**-k for k in range(2, 9)])
        assert abs(est.slope - 1.0) < 0.05

    def test_scale_invariance(self, sierpinski):
        cloud = sample_attractor(sierpinski, 10**5)
        scaled = cloud_of(cloud.points * 10.0)
        a = box_dim(cloud, default_scales(cloud)).slope
        b = box_dim(scaled, default_scales(scaled)).slope
        assert abs(a - b) < 0.02

    def test_needs_at_least_two_scales_and_points(self):
        cloud = cloud_of(np.random.default_rng(2).uniform(size=(1000, 2)))
        with pytest.raises(GeometryError):
            box_dim(cloud, [0.5])
        with pytest.raises(GeometryError):
            box_dim(cloud_of(np.zeros((5, 2))), [0.5, 0.25])

    def test_counts_nondecreasing_as_scale_shrinks(self, sierpinski):
        cloud = sample_attractor(sierpinski, 10**5)
        est = box_dim(cloud, default_scales(cloud))
        assert list(est.counts) == sorted(est.counts)
        assert 0.0 <= est.r_squared <= 1.0

    @pytest.mark.parametrize("method", list(SamplingMethod))
    @pytest.mark.parametrize("matrix", [None, [[0.6, 0.8]], [[0.6, 0.8], [0.0, 0.0]]])
    def test_recorded_bounds_are_not_read_again(self, monkeypatch, irrational, method, matrix):
        # box_dim and covering_sums hand the sampler's bounds to box_counts;
        # the counts are those of the bare array, which finds its own.
        linear_map = None if matrix is None else LinearMap(np.array(matrix))
        cloud = sample_attractor(irrational, 5 * 10**4, seed=3, method=method, linear_map=linear_map)
        # A halving ladder, counted by shifts, and one quantised per scale.
        ladders = [default_scales(cloud), sorted(default_scales(cloud) + [0.3, 0.07], reverse=True)]
        expected = [box_counts(cloud.points, scales) for scales in ladders]
        recorded = cloud._bounds is not None  # the unprojected chaos game records none
        if recorded:

            def unread(points):
                raise AssertionError("the sampler's bounds are recorded")

            monkeypatch.setattr(estimation, "column_bounds", unread)
        for scales, counts in zip(ladders, expected):
            assert box_dim(cloud, scales).counts == tuple(counts)
            assert covering_sums(cloud, 0.8, scales)[0] == counts
            if recorded:
                assert box_counts(cloud.points, scales, cloud._bounds) == counts

BLOCK = estimation._BOUNDS_BLOCK


def assert_axis_bounds(points):
    lo, hi = column_bounds(points)
    assert np.array_equal(lo, points.min(axis=0))
    assert np.array_equal(hi, points.max(axis=0))


class TestColumnBounds:
    @pytest.mark.parametrize(
        "shape",
        [(1, 2), (7, 1), (1000, 2), (50, 3)]
        + [(n, d) for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5) for d in (1, 2, 3, 4)],
    )
    def test_matches_axis_reductions(self, shape):
        points = np.random.default_rng(4).normal(size=shape)
        assert_axis_bounds(points)
        # Extremes in the partial last block and in the first block.
        points[-1, 0], points[0, -1] = 1e9, -1e9
        assert_axis_bounds(points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_bounds_are_positive_zero(self, d):
        # min and max keep whichever zero they meet first, which depends on
        # the layout and on the blocks they are reduced in.
        zeros = np.zeros((3 * BLOCK + 5, d))
        zeros[: BLOCK + 3] = -0.0
        for points in (zeros, zeros[::-1], np.asfortranarray(zeros)):
            lo, hi = column_bounds(points)
            assert not np.signbit(lo).any() and not np.signbit(hi).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_any_layout(self, d):
        points = np.random.default_rng(5).normal(size=(3 * BLOCK + 5, d))
        assert_axis_bounds(np.asfortranarray(points))
        assert_axis_bounds(points[::3])
        assert_axis_bounds(points[::-1])
        wide = np.random.default_rng(6).normal(size=(2 * BLOCK + 3, 2 * d))
        assert_axis_bounds(wide[:, ::2])
        assert_axis_bounds(wide[:, :d])


@contextlib.contextmanager
def small_chunks(rows=16):
    """``_CHUNK_ROWS`` patched to rows (16 by default), so that small clouds
    are quantised in several chunks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_CHUNK_ROWS", rows)
        yield


@st.composite
def split_clouds(draw):
    """An odd number of rows in d = 1..4 columns, uniform in [-1, 1) with
    some exact signed zeros, possibly F-ordered.  The first column's
    negative values may be -0.0 instead, which makes its min a zero of
    either sign."""
    d = draw(st.integers(1, 4))
    n = 2 * draw(st.integers(0, 150)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (n, d))
    points[rng.random((n, d)) < 0.05] = 0.0
    points[rng.random((n, d)) < 0.05] = -0.0
    if draw(st.booleans()):
        points[points[:, 0] < 0, 0] = -0.0
    return np.asfortranarray(points) if draw(st.booleans()) else points


class TestChunks:
    """box_counts quantised in chunks of 16 rows matches the per-scale
    oracle; column_bounds and project_cloud match their numpy forms."""

    @pytest.mark.parametrize("ladder", ["halving", "per scale"])
    @settings(max_examples=40, deadline=None)
    @given(points=split_clouds(), finest=st.integers(0, 8), data=st.data())
    def test_results_match_the_oracles(self, ladder, points, finest, data):
        d = points.shape[1]
        matrix = np.random.default_rng(finest).normal(size=(data.draw(st.integers(1, 3)), d))
        if ladder == "halving":
            scales = [2.0 ** (k - finest) for k in range(data.draw(st.integers(2, 5)))]
        else:
            scales = [0.7 * 2.0**-finest, 0.3, 1.1]
        with small_chunks():
            counts = box_counts(points, scales)
            projected = project_cloud(cloud_of(points), LinearMap(matrix)).points
            assert_axis_bounds(points)
        assert counts == [per_scale_count(points, s) for s in scales]
        assert projected.tobytes() == (points @ matrix.T).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 31, 32, 47, 48, 301])
    def test_chunks_cover_the_rows_in_order(self, n):
        with small_chunks():
            chunks = list(estimation._chunks(n))
        assert len(chunks) == -(-n // 16)
        assert [a for a, _ in chunks] + [n] == [0] + [b for _, b in chunks]
        assert all(0 < b - a <= 16 for a, b in chunks)

    # With 300 rows per chunk the NaN is alone in a one-row last chunk.
    @pytest.mark.parametrize("rows", [16, 100, 300])
    def test_nan_in_the_last_chunk_raises(self, rows):
        points = np.random.default_rng(7).uniform(size=(301, 2))
        points[-1, 1] = math.nan
        with pytest.raises(GeometryError) as whole:
            box_counts(points, [0.5, 0.25])
        with small_chunks(rows):
            lo, hi = column_bounds(points)
            assert not math.isnan(lo[0]) and math.isnan(lo[1]) and math.isnan(hi[1])
            with pytest.raises(GeometryError) as chunked:
                box_counts(points, [0.5, 0.25])
        assert str(chunked.value) == str(whole.value)

    @pytest.mark.parametrize("rows", [16, 1900])
    def test_subnormal_in_a_late_chunk_takes_per_scale_counts(self, rows):
        # A subnormal in a late chunk (the 119th of 126 with 16 rows, the
        # first row of the second with 1900) sends the ladder to per-scale
        # counts, which only that chunk's quantisation sees.
        rng = np.random.default_rng(11)
        points = rng.uniform(-1.0, 1.0, (2001, 2))
        points[1900, 0] = -5e-324
        scales = [2.0**-k for k in range(2, 8)]
        expected = [per_scale_count(points, s) for s in scales]
        assert box_counts(points, scales) == expected
        with small_chunks(rows):
            assert box_counts(points, scales) == expected


class TestProjectCloud:
    def test_identity_map_preserves_points(self, sierpinski):
        cloud = sample_attractor(sierpinski, 1000)
        out = project_cloud(cloud, LinearMap(np.eye(2)))
        assert np.allclose(out.points, cloud.points)

    def test_x_axis_projection_spans_base(self, sierpinski):
        cloud = sample_attractor(sierpinski, 10**4)
        out = project_cloud(cloud, LinearMap(np.array([[1.0, 0.0]])))
        assert out.ambient_dim == 1
        # The base point walk reaches each corner only in the depth limit.
        assert abs(out.points.min() - 0.0) < 0.01
        assert abs(out.points.max() - 1.0) < 0.01

    def test_zero_map_collapses_to_origin(self, sierpinski):
        cloud = sample_attractor(sierpinski, 1000)
        out = project_cloud(cloud, LinearMap(np.zeros((1, 2))))
        assert np.abs(out.points).max() == 0.0

    def test_dimension_mismatch(self, sierpinski):
        cloud = sample_attractor(sierpinski, 1000)
        with pytest.raises(DimensionMismatchError):
            project_cloud(cloud, LinearMap(np.eye(3)))


class TestCoveringSum:
    def test_single_point_value(self):
        cloud = cloud_of(np.zeros((1, 2)))
        t, scale = 0.7, 0.25
        expected = (scale * math.sqrt(2.0)) ** t
        assert abs(covering_sum_upper_bound(cloud, t, scale) - expected) < 1e-12

    def test_dense_interval_near_one(self):
        cloud = cloud_of(np.linspace(0.0, 1.0, 10**5)[:, None])
        for k in (4, 6, 8):
            value = covering_sum_upper_bound(cloud, 1.0, 2.0**-k)
            assert abs(value - 1.0) < 2.0 * 2.0**-k + 1e-9

    def test_sums_share_one_count_per_scale(self, sierpinski):
        cloud = sample_attractor(sierpinski, 10**4)
        scales = [2.0**-k for k in range(4, 9)]
        counts, sums = covering_sums(cloud, 0.9, scales)
        assert counts == box_counts(cloud.points, scales)
        for s, total in zip(scales, sums):
            assert total == covering_sum_upper_bound(cloud, 0.9, s)

    def test_rejects_bad_parameters(self):
        cloud = cloud_of(np.zeros((1, 1)))
        with pytest.raises(GeometryError):
            covering_sum_upper_bound(cloud, 0.0, 0.5)
        with pytest.raises(GeometryError):
            covering_sum_upper_bound(cloud, 1.0, 0.0)

    @pytest.mark.parametrize("t", [1023.0, 1024.0])
    def test_overflow_is_a_numeric_failure(self, t):
        # Two cells of side 2: 2 * 2^1023 overflows in the product, 2^1024
        # already in the power (a Python OverflowError).
        cloud = cloud_of([[0.0], [2.5]])
        assert covering_sums(cloud, 1022.0, [2.0])[1] == [2.0**1023]
        with pytest.raises(NumericFailureError, match="overflows"):
            covering_sums(cloud, t, [2.0])
