import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsproj import groups
from ifsproj.fixtures import fixture_ifs
from ifsproj.geometry import GeometryError, NumericFailureError, WordLevel
from ifsproj.groups import (
    CLOSURE_TOLERANCE,
    BlockKind,
    GroupClosureError,
    OrbitDensity,
    TransformationGroup,
    _cyclic_certificate,
    _RotationTable,
    angle_order,
    block_diagonalize,
    group_closure,
    kronecker_power,
    orbit_dense_classification,
    planar_rotation,
    power_witness,
    rotation_distance,
)

from conftest import store_new_by_scan

TWO_PI = 2.0 * math.pi


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def block_diag(*parts):
    """The block-diagonal matrix with the given square blocks in order."""
    d = sum(len(p) for p in parts)
    out = np.zeros((d, d))
    i = 0
    for p in parts:
        out[i : i + len(p), i : i + len(p)] = p
        i += len(p)
    return out


class TestGroupClosure:
    def test_identity_generator(self):
        g = group_closure([np.eye(2)])
        assert g.is_finite
        assert g.order == 1

    def test_quarter_turn_gives_cyclic_four(self):
        g = group_closure([planar_rotation(math.pi / 2.0)])
        assert g.order == 4
        # Oracle: the four exact quarter-turn powers, each matched once.
        for j in range(4):
            g.index_of(planar_rotation(j * math.pi / 2.0))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 12])
    def test_cyclic_group_order(self, n):
        g = group_closure([planar_rotation(TWO_PI / n)])
        assert g.order == n

    def test_dihedral_group(self):
        reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
        g = group_closure([planar_rotation(TWO_PI / 5.0), reflection])
        assert g.order == 10

    def test_irrational_rotation_exceeds_cap(self):
        # Oracle: no power k <= cap of angle 1.0 returns to the identity,
        # since k*1.0 mod 2*pi stays bounded away from 0 at this tolerance.
        cap = 300
        angles = (np.arange(1, cap + 2) * 1.0) % TWO_PI
        assert (2.0 * np.abs(np.sin(angles / 2.0)) > 1e-6).all()
        g = group_closure([planar_rotation(1.0)], closure_cap=cap)
        assert not g.is_finite
        assert g.witness_count > cap
        with pytest.raises(GroupClosureError):
            g.order

    def test_finite_closure_is_a_group(self):
        g = group_closure([planar_rotation(TWO_PI / 6.0)])
        # Contains the identity and is closed under generator multiplication.
        g.index_of(np.eye(2))
        for e in g.elements:
            for gen in g.generators:
                g.index_of(gen @ e)

    def test_canonical_order_is_deterministic(self):
        a = group_closure([planar_rotation(math.pi / 2.0)])
        b = group_closure([planar_rotation(math.pi / 2.0).T])
        assert all(np.allclose(x, y, atol=1e-9) for x, y in zip(a.elements, b.elements))

    def test_rejects_non_orthogonal_generator(self):
        with pytest.raises(GroupClosureError):
            group_closure([np.array([[1.0, 1.0], [0.0, 1.0]])])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_generator(self, value):
        # NaN > tau is False, so a defect test alone would let NaN through.
        generators = [planar_rotation(1.0), np.array([[value, 0.0], [0.0, 1.0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GroupClosureError, match="finite orthogonal"):
                group_closure(generators)


REFLECTION = np.array([[1.0, 0.0], [0.0, -1.0]])
# (generators, closure_cap): a dihedral group, a cyclic one given more than
# once, an irrational angle certified from its powers, and a closure that
# passes its cap.
CLOSURE_INPUTS = {
    "dihedral": ([planar_rotation(TWO_PI / 5.0), REFLECTION], 5000),
    "repeated": ([planar_rotation(math.pi / 2.0)] * 3 + [np.eye(2)], 5000),
    "irrational": ([planar_rotation(1.0)], 5000),
    "cap": ([planar_rotation(TWO_PI / 5.0), REFLECTION], 5),
}


class TestGroupClosureInput:
    @pytest.mark.parametrize("name", sorted(CLOSURE_INPUTS))
    def test_array_list_tuple_and_iterator_agree(self, name):
        mats, cap = CLOSURE_INPUTS[name]
        forms = [np.array(mats), list(mats), tuple(mats), (m for m in mats)]
        groups = [group_closure(form, closure_cap=cap) for form in forms]
        first = groups[0]
        for g in groups:
            assert (g.reason, g.witness_count, g.is_finite) == (
                first.reason, first.witness_count, first.is_finite
            )
            assert np.array_equal(g.generators, np.array(mats))
            assert not g.generators.flags.writeable
            if first.is_finite:
                assert np.array_equal(np.array(g.elements), np.array(first.elements))
            else:
                assert g.elements is None

    def test_the_caller_array_is_copied(self):
        mats = np.array([planar_rotation(math.pi / 2.0)])
        g = group_closure(mats)
        mats[0] = np.eye(2)
        assert np.array_equal(g.generators[0], planar_rotation(math.pi / 2.0))

    @pytest.mark.parametrize("form", [list, tuple, iter])
    def test_ragged_input_raises(self, form):
        with pytest.raises(GroupClosureError, match="share their dimension"):
            group_closure(form([np.eye(2), np.eye(3)]))

    @pytest.mark.parametrize("form", [np.array, list, iter])
    def test_orbit_classification_reads_the_generators(self, form):
        assert orbit_dense_classification(
            group_closure(form([planar_rotation(1.0)])), 1
        ) is OrbitDensity.DENSE
        spatial = group_closure(form([block_diag(planar_rotation(1.0), np.eye(1))]))
        assert orbit_dense_classification(spatial, 2) is OrbitDensity.UNKNOWN
        with pytest.raises(GeometryError, match="d=3"):
            orbit_dense_classification(spatial, 3)

    def test_a_stack_is_closed_without_an_object_per_row(self):
        # The depth-8 rotations of example_7_5_plane: 65 536 rows.  A tuple
        # of row views (about 112 bytes each, against 32 of data) kept
        # 5.25 x nbytes alive and peaked at 9.5 x; one stack peaks at 4.78 x
        # (the copy, and the keys, the index arrays and the max-abs compare
        # of the first row against the other 65 535 in the one insert of
        # groups._distinct) and keeps its copy.
        level = WordLevel.root(fixture_ifs("example_7_5_plane"))
        for _ in range(8):
            level = level.extend()
        stack = np.ascontiguousarray(level.rotation)
        tracemalloc.start()
        try:
            group = group_closure(stack)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert group.is_finite and len(stack) == 4**8
        assert retained <= 1.1 * stack.nbytes
        assert peak <= 6.0 * stack.nbytes


class TestBlockDiagonalize:
    def test_identity(self):
        form = block_diagonalize(np.eye(3))
        assert all(b.kind is BlockKind.PLUS_ONE for b in form.blocks)

    def test_planar_rotation_recovers_angle(self):
        form = block_diagonalize(planar_rotation(math.pi / 3.0))
        (block,) = form.blocks
        assert block.kind is BlockKind.ROTATION
        angle = min(block.angle, TWO_PI - block.angle)
        assert abs(angle - math.pi / 3.0) < 1e-10

    def test_reflection_gives_mixed_signs(self):
        form = block_diagonalize(np.diag([1.0, -1.0]))
        kinds = sorted(b.kind.value for b in form.blocks)
        assert kinds == ["+1", "-1"]

    def test_so4_two_known_angles(self):
        # Build from known blocks in a random orthonormal basis, round-trip.
        rng = np.random.default_rng(9)
        core = block_diag(planar_rotation(math.pi / 3.0), planar_rotation(1.0))
        q = random_orthogonal(rng, 4)
        form = block_diagonalize(q @ core @ q.T)
        angles = sorted(
            min(b.angle, TWO_PI - b.angle) for b in form.blocks if b.kind is BlockKind.ROTATION
        )
        assert len(angles) == 2
        assert abs(angles[0] - 1.0) < 1e-8
        assert abs(angles[1] - math.pi / 3.0) < 1e-8

    def test_reassembly_on_random_orthogonal(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            t = random_orthogonal(rng, d)
            form = block_diagonalize(t)
            assert np.abs(form.reassemble() - t).max() < 1e-8

    def test_power_matches_repeated_multiplication(self):
        t = planar_rotation(0.7)
        form = block_diagonalize(t)
        assert np.abs(form.power(11) - np.linalg.matrix_power(t, 11)).max() < 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(Exception):
            block_diagonalize(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestAngleOrder:
    def test_quarter_turn(self):
        assert angle_order(math.pi / 2.0) == 4

    def test_two_pi_times_three_sevenths(self):
        alpha = TWO_PI * 3.0 / 7.0
        assert angle_order(alpha) == 7
        # Oracle: exhaustive scan k <= 7 for k*alpha mod 2*pi near 0.
        ks = [k for k in range(1, 8) if abs(math.remainder(k * alpha, TWO_PI)) < 1e-9]
        assert ks == [7]

    def test_one_radian_is_irrational(self):
        # Oracle: brute scan over denominators confirms no close rational.
        x = 1.0 / TWO_PI
        for q in range(1, 2000):
            assert abs(x * q - round(x * q)) > 1e-9 * 2000
        assert angle_order(1.0) is None

    @pytest.mark.parametrize("q", range(2, 101))
    def test_reduced_fractions_recover_denominator(self, q):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                assert angle_order(TWO_PI * p / q) == q
                break


class TestKroneckerPower:
    def test_order_three_rotation(self):
        t = planar_rotation(TWO_PI / 3.0)
        k = kronecker_power(t, 1)
        assert k == 7
        assert np.abs(np.linalg.matrix_power(t, 7) - t).max() < 1e-12

    def test_identity_any_n(self):
        assert kronecker_power(np.eye(2), 5) == 33

    def test_irrational_rotation_witness(self):
        t = planar_rotation(1.0)
        k = kronecker_power(t, 2)
        assert k == 5
        z, residual = power_witness(t, k)
        assert z <= 10**5
        assert residual < 0.05
        assert np.abs(np.linalg.matrix_power(t, k * z) - t).max() < 0.05

    def test_power_witness_rejects_k_not_invertible(self):
        # k = 2 shares a factor with the finite orders 4 (quarter turn) and 2 (-1).
        for t in (planar_rotation(math.pi / 2.0), np.array([[-1.0]])):
            with pytest.raises(NumericFailureError, match="k is not invertible"):
                power_witness(t, 2)

    def test_result_at_least_n(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            t = random_orthogonal(rng, 3)
            assert kronecker_power(t, n) >= n

    def test_finite_order_power_regenerates_cyclic_group(self):
        for p in (3, 5, 8):
            t = planar_rotation(TWO_PI / p)
            k = kronecker_power(t, 1)
            # T^k generates the same cyclic group as T: k is coprime to p.
            assert math.gcd(k, p) == 1
            powers = {round(((k * j) % p)) for j in range(p)}
            assert powers == set(range(p))


class TestOrbitDensity:
    def test_finite_planar_group_not_dense(self):
        g = group_closure([planar_rotation(math.pi / 2.0)])
        assert orbit_dense_classification(g, 1) is OrbitDensity.NOT_DENSE

    def test_infinite_planar_group_dense(self):
        g = group_closure([planar_rotation(1.0)], closure_cap=200)
        assert orbit_dense_classification(g, 1) is OrbitDensity.DENSE

    def test_infinite_higher_dimensional_group_unknown(self):
        # Product-type generator: infinite order but acting only on one plane.
        t = block_diag(planar_rotation(1.0), np.eye(2))
        g = group_closure([t], closure_cap=200)
        assert not g.is_finite
        assert orbit_dense_classification(g, 1) is OrbitDensity.UNKNOWN

    def test_rejects_bad_l(self):
        g = group_closure([np.eye(2)])
        with pytest.raises(Exception):
            orbit_dense_classification(g, 2)


class TestRotationDistance:
    def test_zero_for_equal(self):
        t = planar_rotation(0.3)
        assert rotation_distance(t, t) == 0.0

    def test_matches_singular_value(self):
        a, b = planar_rotation(0.0), planar_rotation(0.5)
        expected = np.linalg.svd(a - b, compute_uv=False)[0]
        assert abs(rotation_distance(a, b) - expected) < 1e-12


# --- Hashed closure against the brute-force closure -----------------------


def brute_force_closure(generators, tolerance=1e-6, closure_cap=5000):
    """Reference: the greedy closure scanning every stored element, O(N^2).

    Returns (canonically ordered elements, count), or (None, cap + 1).
    """
    gens = [np.array(g, dtype=float) for g in generators]
    d = gens[0].shape[0]
    multipliers = gens + [g.T.copy() for g in gens]
    elements = [np.eye(d)]
    stack = np.empty((closure_cap, d, d))
    stack[0] = np.eye(d)
    frontier = [np.eye(d)]
    while frontier:
        candidates = [m @ f for f in frontier for m in multipliers]
        frontier = []
        for c in candidates:
            dist = np.abs(stack[: len(elements)] - c[None]).max(axis=(1, 2))
            if dist.min() > tolerance:
                if len(elements) >= closure_cap:
                    return None, len(elements) + 1
                stack[len(elements)] = c
                elements.append(c)
                frontier.append(c)
    flat = np.stack([e.ravel() for e in elements])
    order = np.lexsort(flat.T[::-1])
    return [elements[i] for i in order], len(elements)


def conjugated(generators, seed):
    rng = np.random.default_rng(seed)
    d = generators[0].shape[0]
    q = random_orthogonal(rng, d)
    return [q @ g @ q.T for g in generators]


def signed_permutation(perm, signs):
    m = np.zeros((3, 3))
    m[np.arange(3), list(perm)] = signs
    return m


def assert_same_closure(generators, cap=5000):
    expected, count = brute_force_closure(generators, closure_cap=cap)
    g = group_closure(generators, closure_cap=cap)
    assert g.witness_count == count
    if expected is None:
        assert not g.is_finite
        return g
    assert g.order == len(expected)
    for a, b in zip(g.elements, expected):
        assert np.abs(a - b).max() <= 1e-12
    return g


seeds = st.integers(0, 2**32 - 1)


class TestHashedClosure:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), seed=seeds)
    def test_cyclic_matches_brute_force(self, n, seed):
        g = assert_same_closure(conjugated([planar_rotation(TWO_PI / n)], seed))
        assert g.order == n and g.reason == "closed"

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), seed=seeds)
    def test_dihedral_matches_brute_force(self, n, seed):
        reflection = np.diag([1.0, -1.0])
        g = assert_same_closure(conjugated([planar_rotation(TWO_PI / n), reflection], seed))
        assert g.order == (2 if n == 1 else 2 * n)

    @settings(max_examples=40, deadline=None)
    @given(
        gens=st.lists(
            st.tuples(st.permutations(range(3)), st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3)),
            min_size=1,
            max_size=3,
        ),
        seed=seeds,
    )
    def test_signed_permutations_match_brute_force(self, gens, seed):
        mats = [signed_permutation(p, s) for p, s in gens]
        g = assert_same_closure(conjugated(mats, seed))
        assert 48 % g.order == 0

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, TWO_PI), d=st.sampled_from([2, 3]), seed=seeds)
    def test_certified_verdict_matches_capped_closure_on_random_angles(self, alpha, d, seed):
        t = block_diag(planar_rotation(alpha), np.eye(d - 2))
        assert_same_closure(conjugated([t], seed), cap=300)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.integers(1, 60),
        p=st.integers(0, 59),
        exponent=st.floats(-8.0, -2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=seeds,
    )
    def test_certified_verdict_matches_capped_closure_near_rationals(
        self, q, p, exponent, sign, seed
    ):
        alpha = TWO_PI * (p % q) / q + sign * 10.0**exponent
        assert_same_closure(conjugated([planar_rotation(alpha)], seed), cap=300)

    def test_duplicate_generators_give_the_same_closure(self):
        r = planar_rotation(TWO_PI / 6.0)
        reflection = np.diag([1.0, -1.0])
        assert_same_closure([r, reflection, r, r, reflection])

    def test_near_rational_angle_keeps_the_finite_verdict(self):
        g = group_closure([planar_rotation(math.pi / 2.0 + 1e-8)])
        assert g.order == 4
        assert g.reason == "closed"
        assert g.margin is None

    def test_irrational_angle_is_certified_with_its_margin(self):
        g = group_closure([planar_rotation(1.0)])
        assert g.reason == "cyclic_orbit_exceeds_cap"
        assert g.witness_count == 5001
        distance, threshold = g.margin
        assert threshold == 2.0 * 2 * 1e-6
        # Oracle: the smallest chord of the powers k = 1..cap, directly.
        chords = [2.0 * abs(math.sin(k * 0.5)) for k in range(1, 5001)]
        assert abs(distance - min(chords)) < 1e-12
        assert distance > threshold

    def test_cap_exceeded_reason_when_no_generator_certifies(self):
        # Order-7 angle drifting by 3e-7: T^7 sits 2.1e-6 from the identity,
        # below the certificate threshold 4e-6 but above the tolerance.
        g = assert_same_closure([planar_rotation(TWO_PI / 7.0 + 3e-7)], cap=300)
        assert g.reason == "cap_exceeded"
        assert g.margin is None

    def test_index_of_counts_every_match(self, monkeypatch):
        g = group_closure([planar_rotation(math.pi / 2.0)])
        with pytest.raises(GroupClosureError, match="no group element"):
            g.index_of(planar_rotation(0.1))
        # Quarter turns lie 1 apart in max-abs norm; the eighth turn lies
        # sqrt(2)/2 from both its neighbours, inside a tolerance of 0.9.
        monkeypatch.setattr(groups, "CLOSURE_TOLERANCE", 0.9)
        loose = group_closure([planar_rotation(math.pi / 2.0)])
        assert loose.order == 4
        with pytest.raises(GroupClosureError, match="matches 2 group elements"):
            loose.index_of(planar_rotation(math.pi / 4.0))


@st.composite
def finite_groups(draw):
    """Generators of a random finite group: cyclic or dihedral in the plane,
    or signed permutations of R^3, conjugated by a random rotation."""
    if draw(st.booleans()):
        gens = [planar_rotation(TWO_PI / draw(st.integers(1, 40)))]
        if draw(st.booleans()):
            gens.append(np.diag([1.0, -1.0]))
    else:
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3)
        parts = st.tuples(st.permutations(range(3)), signs)
        gens = [signed_permutation(p, s) for p, s in draw(st.lists(parts, min_size=1, max_size=3))]
    return conjugated(gens, draw(seeds))


class TestIndicesOf:
    @settings(max_examples=60, deadline=None)
    @given(gens=finite_groups(), data=st.data())
    def test_matches_a_max_abs_scan(self, gens, data):
        g = group_closure(gens)
        assert g.indices_of(g.elements).tolist() == list(range(g.order))
        products = g.elements @ g.elements[data.draw(st.integers(0, g.order - 1))]
        # Oracle: the max-abs distance of every product to every element.
        hits = np.abs(products[:, None] - g.elements[None]).max(axis=(2, 3)) <= g.tolerance
        assert (hits.sum(axis=1) == 1).all()
        assert g.indices_of(products).tolist() == hits.argmax(axis=1).tolist()


class TestDistinct:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(0, 60), d=st.integers(1, 4), tol_exp=st.integers(-12, -3))
    def test_inverse_points_at_the_first_row_of_each_class(self, seed, n, d, tol_exp):
        # Rows repeat a few base matrices, exactly or moved by up to 2 tol.
        tol = 10.0**tol_exp
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1.0, 1.0, size=(max(n // 4, 1), d, d))
        gens = base[rng.integers(0, len(base), size=n)]
        moved = rng.random(n) < 0.5
        gens[moved] += rng.uniform(-2.0, 2.0, size=gens[moved].shape) * tol
        distinct, inverse = groups._distinct(gens, tol)
        kept = store_new_by_scan(np.empty((0, d, d)), gens, tol, math.inf)
        assert np.array_equal(distinct, gens[kept])
        assert inverse.shape == (n,)
        near = np.abs(gens[:, None] - distinct[None]).max(axis=(2, 3)) <= tol
        assert near.any(axis=1).all()
        assert inverse.tolist() == [int(np.flatnonzero(row)[0]) for row in near]


def bucket_edge_rows(table, base):
    """The matrices of a stack shifted along the all-ones matrix J, which
    moves <W, M> one for one, onto the lower edge of their key bucket."""
    dots = np.einsum("nij,ij->n", base, table._weights)
    edges = np.floor(dots / table._width) * table._width
    return base + (edges - dots)[:, None, None]


class TestRotationTable:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 40), d=st.integers(1, 4), tol_exp=st.integers(-12, -3))
    def test_lookup_equals_full_scan(self, seed, n, d, tol_exp):
        # Queries sit within [0, 2 tol] of stored matrices, so many straddle
        # both the tolerance and the bucket edges; the midpoints of pairs of
        # stored matrices up to 2 tol apart match both.
        tol = 10.0**tol_exp
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1.0, 1.0, size=(n, d, d))
        rows[n // 2 :] = rows[: n - n // 2] + rng.uniform(-2, 2, size=(n - n // 2, d, d)) * tol
        table = _RotationTable(d, tol)
        table.insert(rows)
        stored = table.elements
        base = stored[rng.integers(0, len(stored), size=3 * n)]
        pairs = rng.integers(0, len(stored), size=(n, 2))
        queries = np.concatenate(
            [
                base + rng.uniform(-2.0, 2.0, size=base.shape) * tol,
                (stored[pairs[:, 0]] + stored[pairs[:, 1]]) / 2.0,
            ]
        )
        counts, match = table.lookup(queries)
        dist = np.abs(queries[:, None] - stored[None]).max(axis=(2, 3))
        assert (counts == (dist <= tol).sum(axis=1)).all()
        hit = counts > 0
        assert (dist[np.flatnonzero(hit), match[hit]] <= tol).all()
        assert (match[~hit] == -1).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=seeds,
        prefix=st.integers(0, 20),
        n=st.integers(0, 40),
        d=st.integers(1, 4),
        tol_exp=st.integers(-12, -3),
        room=st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_insert_keeps_the_rows_of_a_scan(self, seed, prefix, n, d, tol_exp, room):
        # Rows repeat a few base matrices, half of them on a bucket edge,
        # exactly or moved by up to 2 tol; the first ``prefix`` rows go in
        # first, then the rest with room for ``room`` more matrices.
        tol = 10.0**tol_exp
        rng = np.random.default_rng(seed)
        table = _RotationTable(d, tol)
        base = rng.uniform(-1.0, 1.0, size=(max((prefix + n) // 4, 1), d, d))
        edge = rng.random(len(base)) < 0.5
        base[edge] = bucket_edge_rows(table, base[edge])
        rows = base[rng.integers(0, len(base), size=prefix + n)]
        moved = rng.random(len(rows)) < 0.5
        rows[moved] += rng.uniform(-2.0, 2.0, size=rows[moved].shape) * tol
        first, _ = table.insert(rows[:prefix])
        assert first.tolist() == store_new_by_scan(np.empty((0, d, d)), rows[:prefix], tol, math.inf)
        stored, mats = table.elements, rows[prefix:]
        cap = math.inf if room is None else len(stored) + room
        kept, match = table.insert(mats, cap)
        assert kept.tolist() == store_new_by_scan(stored, mats, tol, cap)
        assert np.array_equal(table.elements, np.concatenate([stored, mats[kept]]))
        assert np.array_equal(match[kept], np.arange(len(stored), table.size))
        near = np.abs(mats[:, None] - table.elements[None]).max(axis=(2, 3)) <= tol
        hit = match >= 0
        assert np.array_equal(hit, near.any(axis=1))
        assert near[np.flatnonzero(hit), match[hit]].all()
        # A row that matches only rows of its own batch points at the first.
        own = hit & ~near[:, : len(stored)].any(axis=1)
        assert match[own].tolist() == [int(np.flatnonzero(row)[0]) for row in near[own]]
        # A row that matches nothing comes after the table filled up.
        for i in np.flatnonzero(~hit):
            assert len(stored) + int((kept < i).sum()) == cap

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("entry, tol", [(0.0, 1e-6), (0.5, 2.0**-20)])
    def test_a_row_exactly_tol_away_is_matched(self, d, entry, tol):
        # (entry + tol) - entry is exactly tol here.
        rows = np.full((3, d, d), entry)
        rows[1, -1, -1] += tol
        rows[2, -1, -1] += 2.0 * tol
        table = _RotationTable(d, tol)
        kept, match = table.insert(rows)
        assert kept.tolist() == [0, 2] and match.tolist() == [0, 0, 1]
        counts, match = table.lookup(rows[1:2])
        assert counts.tolist() == [2] and match[0] in (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, d=st.integers(1, 4), tol_exp=st.integers(-12, -3))
    def test_finds_matrices_stored_on_bucket_boundaries(self, seed, d, tol_exp):
        tol = 10.0**tol_exp
        rng = np.random.default_rng(seed)
        table = _RotationTable(d, tol)
        base = 4.0 * tol * np.arange(8)[:, None, None] + rng.uniform(-1, 1, size=(d, d))
        stored = bucket_edge_rows(table, base)
        assert table.insert(stored)[0].tolist() == list(range(len(stored)))
        signs = rng.choice([-1.0, 1.0], size=stored.shape)
        for direction in (signs, -signs, np.ones_like(signs), -np.ones_like(signs)):
            counts, match = table.lookup(stored + 0.999 * tol * direction)
            assert (counts == 1).all()
            assert (match == np.arange(len(stored))).all()

    def test_group_index_of_on_bucket_boundaries(self):
        g = group_closure(conjugated([planar_rotation(TWO_PI / 12.0)], 5))
        table = g._table
        for i, e in enumerate(g.elements):
            dot = float(np.einsum("ij,ij->", e, table._weights))
            for edge in (math.floor(dot / table._width), math.ceil(dot / table._width)):
                shift = edge * table._width - dot
                if abs(shift) < 0.999 * g.tolerance:
                    assert g.index_of(e + shift) == i


# One block of a normal form: a sign (a [1] or [-1] block) or a rotation angle.
# The pool repeats angles often and holds the tiny ones the cyclic-orbit
# certificate depends on; angles near pi sit next to -1 blocks.
# At most three blocks (d <= 6), each drawn as one tuple, keep the draws cheap.
normal_form_parts = st.lists(
    st.one_of(
        st.sampled_from([("sign", 1.0), ("sign", -1.0)]),
        st.one_of(
            st.sampled_from([1e-6, 1e-5, 0.5, 1.0, math.pi / 2.0, math.pi - 1e-6]),
            st.floats(1e-4, TWO_PI - 1e-4).filter(lambda a: abs(math.sin(a)) > 1e-4),
        ).map(lambda angle: ("angle", angle)),
    ),
    min_size=1,
    max_size=3,
)


class TestBlockDiagonalizeOracle:
    @settings(max_examples=300, deadline=None)
    @given(parts=normal_form_parts, conjugate=st.booleans(), seed=seeds)
    def test_matches_eigvals_on_random_normal_forms(self, parts, conjugate, seed):
        t = block_diag(
            *(np.array([[v]]) if kind == "sign" else planar_rotation(v) for kind, v in parts)
        )
        d = len(t)
        if conjugate:
            q = random_orthogonal(np.random.default_rng(seed), d)
            t = q @ t @ q.T
        form = block_diagonalize(t)

        basis = form.basis_change
        assert np.abs(basis.T @ basis - np.eye(d)).max() < 1e-12
        assert np.abs(form.reassemble() - t).max() < 1e-12

        eig = np.linalg.eigvals(t)
        got = sorted(
            min(b.angle, TWO_PI - b.angle) for b in form.blocks if b.kind is BlockKind.ROTATION
        )
        want = sorted(abs(math.atan2(z.imag, z.real)) for z in eig if z.imag > 1e-7)
        built = sorted(min(v, TWO_PI - v) for kind, v in parts if kind == "angle")
        assert len(got) == len(want) == len(built)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert np.allclose(got, built, rtol=0.0, atol=1e-12)
        signs = sorted(b.kind.value for b in form.blocks if b.kind is not BlockKind.ROTATION)
        assert signs == sorted("+1" if v > 0 else "-1" for kind, v in parts if kind == "sign")


def certificate_by_normal_form(gens, tol, cap):
    """The cyclic certificate read from each generator's block_diagonalize
    rotation blocks: the oracle that groups._cyclic_certificate is checked
    against, for generators whose normal form passes its reassembly check."""
    threshold = 2.0 * gens.shape[1] * tol
    half_k = 0.5 * np.arange(1, cap + 1)
    for g in gens:
        for b in block_diagonalize(g).blocks:
            if b.kind is BlockKind.ROTATION:
                chord = 2.0 * float(np.abs(np.sin(half_k * b.angle)).min())
                if chord > threshold:
                    return chord, threshold
    return None


@st.composite
def block_matrices(draw, d):
    """An orthogonal d x d matrix of [1] and [-1] blocks and rotation blocks
    of finite order 2 pi p / k (0 and pi among them) or of any angle, in a
    random orthonormal basis or not."""
    blocks = []
    while sum(map(len, blocks)) < d:
        kind = draw(st.sampled_from(["sign", "finite", "angle"]))
        if kind == "sign" or sum(map(len, blocks)) == d - 1:
            blocks.append(np.array([[draw(st.sampled_from([1.0, -1.0]))]]))
        elif kind == "finite":
            k = draw(st.integers(1, 12))
            blocks.append(planar_rotation(TWO_PI * draw(st.integers(0, k - 1)) / k))
        else:
            blocks.append(planar_rotation(draw(st.floats(0.0, TWO_PI))))
    t = block_diag(*blocks)
    if draw(st.booleans()):
        q = random_orthogonal(np.random.default_rng(draw(seeds)), d)
        t = q @ t @ q.T
    return t


class TestCyclicCertificate:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 5), data=st.data())
    def test_matches_the_normal_form_angles(self, d, data):
        gens = np.array(data.draw(st.lists(block_matrices(d), min_size=1, max_size=3)))
        try:
            want = certificate_by_normal_form(gens, CLOSURE_TOLERANCE, 5000)
        except NumericFailureError:
            # A form that fails its reassembly check; see the test below.
            assume(False)
        with mock.patch.object(groups, "block_diagonalize", side_effect=AssertionError):
            assert _cyclic_certificate(gens, CLOSURE_TOLERANCE, 5000) == want

    def test_a_generator_without_a_normal_form_is_certified_by_its_angles(self):
        # A 1e-7 turn's eigenvalues have imaginary parts just below 1e-7, so
        # block_diagonalize reads two [1] blocks and its reassembly misses t
        # by 1e-7.  The one-radian block still certifies the infinite orbit.
        t = block_diag(np.eye(1), planar_rotation(1.0), planar_rotation(1e-7))
        with pytest.raises(NumericFailureError):
            block_diagonalize(t)
        g = group_closure([t])
        assert g.reason == "cyclic_orbit_exceeds_cap" and g.witness_count == 5001
        chord = 2.0 * float(np.abs(np.sin(0.5 * np.arange(1, 5001))).min())
        assert g.margin == (pytest.approx(chord, abs=1e-12), 2.0 * 5 * CLOSURE_TOLERANCE)
