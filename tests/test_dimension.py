import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsproj.dimension import (
    Edge,
    GDIFS,
    GdifsStructureError,
    is_strongly_connected,
    sim_dim_gdifs,
    sim_dim_ssifs,
    sim_dim_words,
    single_vertex_gdifs,
    spectral_radius,
    strongly_connected_components,
)
from ifsproj.geometry import GeometryError, SSIFS, Similarity

from conftest import random_ssifs

LOG3_LOG2 = math.log(3.0) / math.log(2.0)


def loop(r, v=0.0, source=0, target=0):
    return source, target, r, v


def graph(q, loops):
    """A GDIFS on the line with the homothety x -> r x + v on each loop edge."""
    source, target, ratio, v = zip(*loops)
    return GDIFS(q, source, target, ratio, np.ones((len(v), 1, 1)), np.array(v)[:, None])


class TestSimDimSsifs:
    def test_two_halves_give_dimension_one(self):
        ifs = SSIFS([Similarity(0.5, [[1.0]], [0.0]), Similarity(0.5, [[1.0]], [0.5])])
        assert abs(sim_dim_ssifs(ifs).value - 1.0) < 1e-9

    def test_triangle_of_halves(self, sierpinski):
        report = sim_dim_ssifs(sierpinski)
        assert abs(report.value - LOG3_LOG2) < 1e-9
        assert abs(report.residual) < 1e-10

    def test_two_thirds_cantor(self, cantor):
        # Oracle value from a frozen high-precision bisection of 2*3^(-s)=1.
        assert abs(sim_dim_ssifs(cantor).value - 0.6309297535714574) < 1e-9

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ifs = random_ssifs(rng, d=2, m=3)
            report = sim_dim_ssifs(ifs)
            assert abs(report.residual) <= 1e-10
            total = sum(s.ratio**report.value for s in ifs)
            assert abs(total - 1.0) < 1e-9


class TestSpectralRadius:
    def test_identity(self):
        assert abs(spectral_radius(np.eye(2)) - 1.0) < 1e-9

    def test_rank_one_all_ones(self):
        assert abs(spectral_radius(np.ones((2, 2))) - 2.0) < 1e-9

    def test_periodic_two_cycle(self):
        # Characteristic polynomial x^2 - 2 worked by hand.
        assert abs(spectral_radius([[0.0, 2.0], [1.0, 0.0]]) - math.sqrt(2.0)) < 1e-9

    def test_reducible_block_triangular(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert abs(spectral_radius(a) - 3.0) < 1e-9

    def test_reducible_repeated_blocks(self):
        # Two copies of B coupled by a block of ones, with the vertices
        # shuffled: the root of B is a double eigenvalue of the whole matrix,
        # which one eig of it resolves to only about 1e-8.
        b = np.array([[0.3, 0.7], [0.9, 0.2]])
        a = np.block([[b, np.ones((2, 2))], [np.zeros((2, 2)), b]])
        perm = [2, 0, 3, 1]
        exact = (0.5 + math.sqrt(0.5**2 + 4.0 * (0.7 * 0.9 - 0.3 * 0.2))) / 2.0
        assert abs(spectral_radius(a[np.ix_(perm, perm)]) - exact) < 1e-12

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_row_sum_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(size=(4, 4))
            rho = spectral_radius(a)
            sums = a.sum(axis=1)
            assert sums.min() - 1e-9 <= rho <= sums.max() + 1e-9

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            q = int(rng.integers(2, 8))
            a = rng.uniform(size=(q, q)) * (rng.uniform(size=(q, q)) < 0.7)
            expected = float(np.abs(np.linalg.eigvals(a)).max())
            assert abs(spectral_radius(a) - expected) < 1e-9

    def test_rejects_negative_entries(self):
        with pytest.raises(GeometryError):
            spectral_radius([[1.0, -0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(GeometryError, match="finite and entrywise nonnegative"):
            spectral_radius([[1.0, bad], [0.0, 1.0]])


class TestStronglyConnected:
    def test_single_vertex_self_loop(self):
        g = graph(1, [loop(0.5)])
        assert is_strongly_connected(g)

    def test_one_way_edge_not_strong(self):
        g = graph(2, [loop(0.5, source=0, target=1), loop(0.5, source=1, target=1)])
        assert not is_strongly_connected(g)

    def test_component_decomposition(self):
        comps = strongly_connected_components(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        sizes = sorted(len(c) for c in comps)
        assert sizes == [2, 2]


class TestStronglyConnectedArrays:
    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_tarjan_on_every_edge(self, q, seed):
        # One outgoing edge per vertex, then random (often parallel) extras.
        rng = np.random.default_rng(seed)
        ends = [(v, int(rng.integers(q))) for v in range(q)]
        ends += [tuple(map(int, e)) for e in rng.integers(0, q, size=(int(rng.integers(0, 3 * q)), 2))]
        g = graph(q, [loop(0.5, v=0.1 * i, source=a, target=b) for i, (a, b) in enumerate(ends)])
        expected = len(strongly_connected_components(q, ends)) == 1
        assert is_strongly_connected(g) == expected
        for index in range(len(ends)):
            try:
                reduced = g.delete_edge(index)
            except GdifsStructureError:
                continue
            rest = ends[:index] + ends[index + 1 :]
            assert [(e.source, e.target) for e in reduced.edges] == rest
            assert is_strongly_connected(reduced) == (
                len(strongly_connected_components(q, rest)) == 1
            )


def reach_components(q, arcs):
    """Oracle: a DFS reach set per vertex; two vertices share a component
    when each reaches the other."""
    out = [[] for _ in range(q)]
    for u, v in arcs:
        out[u].append(v)
    reach = []
    for root in range(q):
        seen, stack = {root}, [root]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    return {frozenset(w for w in range(q) if w in reach[v] and v in reach[w]) for v in range(q)}


class TestComponentsAgainstReachOracle:
    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 8), data=st.data())
    def test_components_match_the_reach_oracle(self, q, data):
        # Random arcs: self-loops, parallel arcs and vertices with no arcs.
        vertex = st.integers(0, q - 1)
        arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=4 * q))
        comps = strongly_connected_components(q, arcs)
        expected = reach_components(q, arcs)
        assert sorted(v for comp in comps for v in comp) == list(range(q))
        assert {frozenset(comp) for comp in comps} == expected
        if {u for u, _ in arcs} == set(range(q)):
            # Every vertex has an outgoing arc, so GDIFS accepts the graph.
            g = graph(q, [loop(0.5, 0.1 * i, a, b) for i, (a, b) in enumerate(arcs)])
            assert is_strongly_connected(g) == (len(expected) == 1)

    def test_long_cycle_and_the_path_left_without_one_arc(self):
        # The cycle's diameter, 299, takes 9 squarings of the pattern.
        q = 300
        arcs = [(v, (v + 1) % q) for v in range(q)]
        assert is_strongly_connected(graph(q, [loop(0.5, 0.0, a, b) for a, b in arcs]))
        assert [sorted(c) for c in strongly_connected_components(q, arcs)] == [list(range(q))]
        assert len(strongly_connected_components(q, arcs[1:])) == q


class TestGdifs:
    def test_edges_view_matches_the_arrays(self):
        g = graph(2, [loop(0.5, 0.1, 0, 1), loop(0.25, 0.2, 1, 0), loop(0.5, 0.3, 1, 1)])
        rows = [(e.source, e.target, e.map.ratio, e.map.translation[0]) for e in g.edges]
        assert rows == [(0, 1, 0.5, 0.1), (1, 0, 0.25, 0.2), (1, 1, 0.5, 0.3)]
        assert all(isinstance(e, Edge) for e in g.edges)

    def test_constructor_checks_the_maps(self):
        with pytest.raises(GeometryError):
            GDIFS(1, [0], [0], [1.5], np.ones((1, 1, 1)), [[0.0]])
        with pytest.raises(GeometryError):
            GDIFS(1, [0], [0], [0.5], 2.0 * np.ones((1, 1, 1)), [[0.0]])
        with pytest.raises(GeometryError, match="finite"):
            GDIFS(1, [0], [0], [0.5], np.ones((1, 1, 1)), [[math.nan]])
        with pytest.raises(GeometryError, match="differ in length"):
            GDIFS(1, [0], [0], [0.5, 0.5], np.ones((1, 1, 1)), [[0.0]])

    def test_requires_outgoing_edges_everywhere(self):
        with pytest.raises(GdifsStructureError):
            graph(2, [loop(0.5)])

    def test_rejects_more_vertices_than_edges_before_counting(self):
        tracemalloc.start()
        try:
            with pytest.raises(GdifsStructureError, match="outgoing edge"):
                graph(10**7, [loop(0.5)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_transition_matrix_sums_parallel_edges(self):
        g = graph(1, [loop(0.5), loop(0.5, v=0.5)])
        assert abs(g.transition_matrix(1.0)[0, 0] - 1.0) < 1e-15

    def test_delete_edge(self):
        g = graph(1, [loop(0.5), loop(0.5, v=0.5)])
        assert len(g.delete_edge(0).edges) == 1

    def test_single_vertex_three_loops(self, sierpinski):
        g = single_vertex_gdifs(sierpinski)
        assert abs(sim_dim_gdifs(g).value - LOG3_LOG2) < 1e-9

    def test_two_vertex_parallel_cycle(self):
        edges = [
            loop(0.5, source=0, target=1),
            loop(0.5, v=0.5, source=0, target=1),
            loop(0.5, source=1, target=0),
            loop(0.5, v=0.5, source=1, target=0),
        ]
        # Hand eigenvalue of [[0, a], [a, 0]] is a with a = 2*2^(-s).
        assert abs(sim_dim_gdifs(graph(2, edges)).value - 1.0) < 1e-9

    def test_refuses_reducible_graph(self):
        g = graph(2, [loop(0.5, source=0, target=1), loop(0.5, source=1, target=1)])
        with pytest.raises(GdifsStructureError):
            sim_dim_gdifs(g)

    def test_monotone_in_s_around_root(self):
        rng = np.random.default_rng(16)
        ifs = random_ssifs(rng, d=2, m=4)
        g = single_vertex_gdifs(ifs)
        s = sim_dim_gdifs(g).value
        below = spectral_radius(g.transition_matrix(max(s - 0.1, 0.0)))
        above = spectral_radius(g.transition_matrix(s + 0.1))
        assert below > 1.0 > above

    def test_agrees_with_moran_equation_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ifs = random_ssifs(rng, d=2, m=int(rng.integers(2, 5)))
            a = sim_dim_ssifs(ifs).value
            b = sim_dim_gdifs(single_vertex_gdifs(ifs)).value
            assert abs(a - b) < 1e-9

    def test_edge_deletion_strictly_drops_dimension(self):
        g = graph(1, [loop(0.5), loop(0.5, v=0.25), loop(0.5, v=0.5)])
        full = sim_dim_gdifs(g).value
        reduced = sim_dim_gdifs(g.delete_edge(0)).value
        assert reduced < full - 1e-12


class TestSimDimWords:
    def test_matches_ssifs_on_single_letters(self, sierpinski):
        words = [sierpinski.word([i]) for i in (1, 2, 3)]
        assert abs(sim_dim_words(sierpinski, words).value - LOG3_LOG2) < 1e-9

    def test_depth_two_subsystem(self, sierpinski):
        words = [sierpinski.word([i, j]) for i in (1, 2, 3) for j in (1, 2, 3)]
        assert abs(sim_dim_words(sierpinski, words).value - LOG3_LOG2) < 1e-9

    def test_needs_two_words(self, sierpinski):
        with pytest.raises(GeometryError):
            sim_dim_words(sierpinski, [sierpinski.word([1])])


# --- The Newton solver against independent oracles -------------------------


def bisect_decreasing(f, lo=0.0):
    """Reference root of a decreasing f with f(lo) > 0, bisected to rounding."""
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def moran_reference(ratios):
    return bisect_decreasing(lambda s: math.fsum(r**s for r in ratios) - 1.0)


class TestNewtonSolver:
    @settings(max_examples=100, deadline=None)
    @given(ratios=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=8))
    def test_moran_root_matches_reference_bisection(self, ratios):
        m = len(ratios)
        ifs = SSIFS([Similarity(r, [[1.0]], [i / m]) for i, r in enumerate(ratios)])
        expected = moran_reference(ratios)
        for report in (sim_dim_ssifs(ifs), sim_dim_gdifs(single_vertex_gdifs(ifs))):
            assert abs(report.value - expected) <= 1e-12
            assert abs(report.residual) <= 1e-10
            assert report.iterations <= 50

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
    def test_graph_root_matches_dense_eigenvalues(self, q, seed):
        # A Hamiltonian cycle keeps the graph strongly connected; random
        # extra edges make it aperiodic and unbalanced.
        rng = np.random.default_rng(seed)
        ratios = rng.uniform(0.05, 0.95, size=4 * q)
        edges = [loop(ratios[i], source=i, target=(i + 1) % q) for i in range(q)]
        extra = int(rng.integers(0, 3 * q + 1))
        ends = rng.integers(0, q, size=(extra, 2))
        edges += [loop(r, source=int(a), target=int(b)) for (a, b), r in zip(ends, ratios[q:])]
        g = graph(q, edges)
        report = sim_dim_gdifs(g)

        def rho(s):
            return float(np.abs(np.linalg.eigvals(g.transition_matrix(s))).max())

        assert abs(rho(report.value) - 1.0) <= 1e-10
        assert report.iterations <= 50
        if extra:
            assert abs(report.value - bisect_decreasing(lambda s: rho(s) - 1.0)) <= 1e-9
        else:
            assert report.value == 0.0
