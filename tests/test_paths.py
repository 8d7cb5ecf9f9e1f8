"""Edge construction, step paths, and the exact pathwise identities."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drchm import paths
from drchm.model import ModelParams
from drchm.paths import (
    StepPath,
    build_edges,
    build_edges_brute_force,
    edge_count_at,
    edge_count_path,
    mark_split_paths,
    pm_edge_count_paths,
)
from drchm.sampler import (
    InteractionSample,
    SamplerConfig,
    VertexSample,
    sample_interactions,
    sample_vertices,
)
from drchm.paths import EdgeSet

# Property tests run a fixed, reproducible set of examples.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def _single_instance(r: float):
    vs = VertexSample(
        x=np.array([0.0]), u=np.array([1.0]), b=np.array([0.0]), l=np.array([1.0])
    )
    inter = InteractionSample(
        z=np.array([0.2]),
        w=np.array([1.0]),
        r=np.array([r]),
        band_counts=np.array([1]),
        band_w_lo=np.array([1.0]),
    )
    return vs, inter


def _random_instance(rng, n=5.0, gamma=0.2):
    p = ModelParams(0.25, gamma, 0.2, n)
    nv = rng.integers(1, 60)
    ni = rng.integers(1, 100)
    vs = VertexSample(
        x=rng.uniform(0, n, nv),
        u=1.0 - rng.random(nv),
        b=rng.uniform(-2, 1, nv),
        l=rng.exponential(size=nv) + 1e-9,
    )
    inter = InteractionSample(
        z=rng.uniform(-2, n + 2, ni),
        w=1.0 - rng.random(ni) * 0.999,
        r=rng.uniform(-2, 1, ni),
        band_counts=np.bincount(rng.integers(0, 3, ni), minlength=3),
        band_w_lo=np.full(3, 1e-3),
    )
    return p, vs, inter


class TestBuildEdges:
    def test_single_edge(self):
        p = ModelParams(0.25, 0.2, 0.2, 1.0)
        vs, inter = _single_instance(r=0.5)
        edges = build_edges(p, vs, inter)
        assert len(edges) == 1
        assert edges.activation[0] == pytest.approx(0.5)
        assert edges.deactivation[0] == pytest.approx(1.0)

    def test_interaction_after_death(self):
        p = ModelParams(0.25, 0.2, 0.2, 1.0)
        vs, inter = _single_instance(r=1.5)
        assert len(build_edges(p, vs, inter)) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            p, vs, inter = _random_instance(rng)
            fast = build_edges(p, vs, inter)
            slow = build_edges_brute_force(p, vs, inter)
            key = lambda e: sorted(zip(e.vertex_index, e.interaction_index))
            assert key(fast) == key(slow), f"trial {trial}"

    def test_band_partition_irrelevant(self):
        rng = np.random.default_rng(11)
        p, vs, inter = _random_instance(rng)
        merged = InteractionSample(
            z=inter.z,
            w=inter.w,
            r=inter.r,
            band_counts=np.array([len(inter)]),
            band_w_lo=np.array([1e-3]),
        )
        a = build_edges(p, vs, inter)
        b = build_edges(p, vs, merged)
        key = lambda e: sorted(zip(e.vertex_index, e.interaction_index))
        assert key(a) == key(b)

    def test_empty_inputs(self):
        p = ModelParams(0.25, 0.2, 0.2, 1.0)
        empty_v = VertexSample(
            x=np.array([]), u=np.array([]), b=np.array([]), l=np.array([])
        )
        empty_i = InteractionSample(
            z=np.array([]), w=np.array([]), r=np.array([]),
            band_counts=np.array([], dtype=int), band_w_lo=np.array([]),
        )
        assert len(build_edges(p, empty_v, empty_i)) == 0


def _assert_same_edges(a, b):
    """The same edges in the same order, bit for bit."""
    for name in ("vertex_index", "interaction_index", "activation", "deactivation"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _pair_key(edges):
    return sorted(
        zip(edges.vertex_index, edges.interaction_index, edges.activation, edges.deactivation)
    )


@st.composite
def _pairing_instances(draw):
    """A random model and sample, possibly without vertices or
    interactions, laid out band by band over a random geometric weight
    partition from 1 down to w_min: each band holds the interactions drawn
    into it (often none), with weights between its edges.  gamma_prime runs
    from 0.01, where every band joins one group, to 0.95, and w_min down to
    5e-324, where radii overflow to inf.  Births reach back to -2 or to -8
    (criterion 7's depth), and some births and interaction times sit exactly
    on the birth-class floors 0 and -1, or interaction times on a birth or a
    death."""
    p = ModelParams(
        beta=draw(st.floats(0.01, 1.0)),
        gamma=draw(st.floats(0.01, 0.95).filter(lambda g: g != 0.5)),
        gamma_prime=draw(st.one_of(st.sampled_from((0.01, 0.95)), st.floats(0.01, 0.95))),
        n=draw(st.floats(0.5, 20.0)),
    )
    w_min = draw(
        st.one_of(
            st.sampled_from((5e-324, 1e-300)),
            st.floats(-10.0, -0.5).map(lambda e: 10.0**e),
        )
    )
    ratio = draw(st.floats(0.05, 0.95))
    depth = draw(st.sampled_from((2.0, 8.0)))
    nv = draw(st.integers(0, 40))
    ni = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    # Powers of ratio from 1 down to w_min, in logs: near the smallest
    # subnormal, multiplying by ratio can round back up and never get there.
    steps = np.ceil(np.log(w_min) / np.log(ratio))
    edges = np.unique(np.maximum(ratio ** np.arange(steps + 1.0), w_min))[::-1]
    hi, lo = edges[:-1], edges[1:]
    band_counts = np.bincount(rng.integers(0, len(lo), ni), minlength=len(lo))
    floors = np.array([0.0, -1.0])
    b = rng.uniform(-depth, 1.0, nv)
    b = np.where(rng.random(nv) < 0.2, rng.choice(floors, nv), b)
    l = rng.exponential(size=nv) + 1e-9
    r = rng.uniform(-depth, 1.0, ni)
    ties = np.concatenate([floors, b, b + l])
    r = np.where(rng.random(ni) < 0.3, rng.choice(ties, ni), r)
    # Some vertices take the sampler's smallest weight, 2**-53.
    u = np.where(rng.random(nv) < 0.1, 2.0**-53, 1.0 - rng.random(nv))
    vs = VertexSample(x=rng.uniform(0.0, p.n, nv), u=u, b=b, l=l)
    inter = InteractionSample(
        z=rng.uniform(-p.n, 2.0 * p.n, ni),
        w=rng.uniform(np.repeat(lo, band_counts), np.repeat(hi, band_counts)),
        r=r,
        band_counts=band_counts,
        band_w_lo=lo,
    )
    return p, vs, inter


class TestPairingProperties:
    @PROPERTY
    @given(_pairing_instances())
    def test_matches_brute_force(self, instance):
        p, vs, inter = instance
        # A radius past the float range is inf in both routines, and reaches
        # every position.
        with np.errstate(over="ignore"):
            fast = build_edges(p, vs, inter)
            slow = build_edges_brute_force(p, vs, inter)
            # Blocks of a few candidates, most of them one vertex's.
            with mock.patch.object(paths, "_CANDIDATE_BLOCK", 3):
                blocked = build_edges(p, vs, inter)
        assert _pair_key(fast) == _pair_key(slow)
        _assert_same_edges(blocked, fast)

    def test_deep_band_uses_its_own_reach(self):
        # Band 1 holds the small weights and so needs the long reach of its
        # own band_w_lo; its reach factor is far more than twice band 0's,
        # so each band is its own group, and edges come group by group,
        # each group by position.
        p = ModelParams(0.25, 0.7, 0.5, 10.0)
        vs = VertexSample(
            x=np.array([5.0]), u=np.array([1.0]), b=np.array([0.0]), l=np.array([1.0])
        )
        inter = InteractionSample(
            z=np.array([5.2, 5.1, 5.25, 9.0, 1.0]),
            w=np.array([0.8, 0.9, 0.7, 1e-4, 1e-4]),
            r=np.full(5, 0.5),
            band_counts=np.array([3, 2]),
            band_w_lo=np.array([0.5, 1e-4]),
        )
        edges = build_edges(p, vs, inter)
        np.testing.assert_array_equal(edges.interaction_index, [1, 0, 2, 4, 3])
        assert _pair_key(edges) == _pair_key(build_edges_brute_force(p, vs, inter))

    def test_group_queries_with_its_largest_reach(self):
        # Reach factors band_w_lo**(-1/2) of 1, 1.9 and 1.2: all under twice
        # the first, so the three bands form one group, which must query
        # with 1.9, not with its first or last band's factor.  Interaction
        # 1 sits 1.5 radii from the vertex, at its own band's lower edge.
        p = ModelParams(0.25, 0.7, 0.5, 10.0)
        vs = VertexSample(
            x=np.array([5.0]), u=np.array([1.0]), b=np.array([0.0]), l=np.array([1.0])
        )
        w_lo = np.array([1.0, 1.9**-2, 1.2**-2])
        inter = InteractionSample(
            z=np.array([5.1, 5.0 + 0.25 * 1.5, 4.8]),
            w=w_lo,
            r=np.full(3, 0.5),
            band_counts=np.array([1, 1, 1]),
            band_w_lo=w_lo,
        )
        edges = build_edges(p, vs, inter)
        # One group, so one position order across the three bands.
        np.testing.assert_array_equal(edges.interaction_index, [2, 0, 1])
        assert _pair_key(edges) == _pair_key(build_edges_brute_force(p, vs, inter))

    def test_memory_is_bounded(self):
        # Criterion 7's shape.  Only one group's candidates are live at a
        # time: the tracemalloc peak of one call read 1.7 MB (median) and
        # 1.9 MB (max) over these streams, against 7.9 and 11.9 MB when all
        # bands are paired as one group.
        p = ModelParams(0.25, 0.7, 0.2, 2000.0)
        scfg = SamplerConfig(master_seed=7, w_min=1e-8)
        for stream in range(10):
            vs = sample_vertices(p, scfg, stream)
            inter = sample_interactions(p, scfg, vs, stream)
            tracemalloc.start()
            try:
                build_edges(p, vs, inter)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, f"stream {stream}"

    def test_heavy_replicate(self):
        # Criterion 7's shape at seed 4, stream 100: the smallest vertex
        # mark is 5.7e-8, so every band is sampled over a margin about 1e4
        # wide, and the first group of bands holds 557 493 interactions.
        # Its sorted copies and pool are the peak: 19.6 MB measured, against
        # 39.8 MB with every class subset copied and all candidates of a
        # group expanded at once.  Its 103 946 candidates span two blocks.
        p = ModelParams(0.25, 0.7, 0.2, 2000.0)
        scfg = SamplerConfig(master_seed=4, w_min=1e-8)
        vs = sample_vertices(p, scfg, 100)
        inter = sample_interactions(p, scfg, vs, 100)
        assert len(inter) == 594_771
        tracemalloc.start()
        try:
            edges = build_edges(p, vs, inter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24_000_000
        for block in (1000, 10**9):  # many blocks, or one per group
            with mock.patch.object(paths, "_CANDIDATE_BLOCK", block):
                _assert_same_edges(build_edges(p, vs, inter), edges)

    def test_vertex_order_irrelevant(self):
        rng = np.random.default_rng(5)
        p, vs, inter = _random_instance(rng)
        perm = rng.permutation(len(vs))
        shuffled = VertexSample(x=vs.x[perm], u=vs.u[perm], b=vs.b[perm], l=vs.l[perm])
        a = build_edges(p, vs, inter)
        b = build_edges(p, shuffled, inter)
        assert _pair_key(a) == _pair_key(
            EdgeSet(perm[b.vertex_index], b.interaction_index, b.activation, b.deactivation)
        )


class TestStepPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepPath(np.array([0.5]), np.array([1.0]))  # must start at 0
        with pytest.raises(ValueError):
            StepPath(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            StepPath(np.array([0.0, 0.5]), np.array([1.0]))

    def test_right_continuity(self):
        path = StepPath(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
        assert path(0.5) == 2.0
        assert path(0.4999) == 1.0
        assert path(1.0) == 2.0
        np.testing.assert_array_equal(path([0.0, 0.5, 0.7]), [1.0, 2.0, 2.0])

    def test_csv_round_trip(self, tmp_path):
        path = StepPath(
            np.array([0.0, 1 / 3, 0.75]), np.array([1.0, 2.5, -0.125])
        )
        fname = tmp_path / "path.csv"
        path.to_csv(fname)
        data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
        back = StepPath(data[:, 0], data[:, 1])
        np.testing.assert_array_equal(back.times, path.times)
        np.testing.assert_array_equal(back.values, path.values)


class TestEdgeCountPath:
    def test_hand_example(self):
        edges = EdgeSet(
            vertex_index=np.array([0, 1]),
            interaction_index=np.array([0, 1]),
            activation=np.array([-0.5, 0.2]),
            deactivation=np.array([0.5, 2.0]),
        )
        path = edge_count_path(edges)
        np.testing.assert_array_equal(path.times, [0.0, 0.2, 0.5])
        np.testing.assert_array_equal(path.values, [1.0, 2.0, 1.0])
        # deactivation at 0.5 removes the edge just after 0.5: active AT 0.5
        assert path(0.5) == 1.0
        assert edge_count_at(edges, 0.5) == 1.0

    def test_empty(self):
        empty = EdgeSet(
            vertex_index=np.array([], dtype=int),
            interaction_index=np.array([], dtype=int),
            activation=np.array([]),
            deactivation=np.array([]),
        )
        path = edge_count_path(empty)
        assert path(0.0) == 0.0 and path(1.0) == 0.0

    def test_recount_oracle(self, scfg):
        p = ModelParams(0.25, 0.2, 0.2, 30.0)
        rng = np.random.default_rng(3)
        vs = sample_vertices(p, scfg, 0)
        inter = sample_interactions(p, scfg, vs, 0)
        edges = build_edges(p, vs, inter)
        path = edge_count_path(edges)
        # the direct count equals the path everywhere, event times included
        event = np.concatenate([edges.activation, edges.deactivation])
        t = np.concatenate([rng.uniform(0, 1, 100), event[(event >= 0) & (event <= 1)]])
        np.testing.assert_array_equal(edge_count_at(edges, t), path(t))


class TestDecompositions:
    def _edges(self, stream, n=50.0, gamma=0.2):
        p = ModelParams(0.25, gamma, 0.2, n)
        scfg = SamplerConfig(master_seed=77)
        vs = sample_vertices(p, scfg, stream)
        inter = sample_interactions(p, scfg, vs, stream)
        return p, vs, build_edges(p, vs, inter)

    def test_pm_identity_and_monotone(self):
        for stream in range(5):
            _, _, edges = self._edges(stream)
            plus, minus = pm_edge_count_paths(edges)
            path = edge_count_path(edges)
            grid = np.unique(
                np.concatenate([path.times, plus.times, minus.times, [1.0]])
            )
            np.testing.assert_allclose(plus(grid) - minus(grid), path(grid))
            assert np.all(np.diff(plus.values) >= 0)
            assert np.all(np.diff(minus.values) >= 0)

    def test_pm_single_edge(self):
        edges = EdgeSet(
            vertex_index=np.array([0]),
            interaction_index=np.array([0]),
            activation=np.array([0.2]),
            deactivation=np.array([0.5]),
        )
        plus, minus = pm_edge_count_paths(edges)
        assert plus(0.1) == 0 and plus(0.2) == 1 and plus(1.0) == 1
        assert minus(0.4) == 0 and minus(0.5) == 1 and minus(1.0) == 1

    def test_mark_split_identity(self):
        for stream in range(5):
            p, vs, edges = self._edges(stream)
            thr = float(p.n) ** (-2.0 / 3.0)
            low, high = mark_split_paths(edges, vs, thr)
            path = edge_count_path(edges)
            grid = np.unique(
                np.concatenate([path.times, low.times, high.times, [1.0]])
            )
            np.testing.assert_allclose(low(grid) + high(grid), path(grid))

    def test_mark_split_extremes(self):
        p, vs, edges = self._edges(0)
        path = edge_count_path(edges)
        low, high = mark_split_paths(edges, vs, 1.0 - 1e-15)
        grid = path.times
        np.testing.assert_allclose(low(grid), path(grid))
        assert np.all(high.values == 0)
        low, high = mark_split_paths(edges, vs, 1e-15)
        assert np.all(low.values == 0)
        np.testing.assert_allclose(high(grid), path(grid))

    @pytest.mark.parametrize("thr", [0.0, 2.0])
    def test_mark_split_one_side_empty(self, thr):
        # Below every mark the low side is empty, above every mark the high
        # side; the empty side is the zero path and keeps the float64 layout.
        p, vs, edges = self._edges(0)
        path = edge_count_path(edges)
        low, high = mark_split_paths(edges, vs, thr)
        full, empty = (high, low) if thr == 0.0 else (low, high)
        np.testing.assert_array_equal(full.times, path.times)
        np.testing.assert_array_equal(full.values, path.values)
        np.testing.assert_array_equal(empty.times, [0.0])
        np.testing.assert_array_equal(empty.values, [0.0])
        for side in (low, high):
            assert side.times.dtype == side.values.dtype == np.float64
        every = paths._subset(edges, np.ones(len(edges), dtype=bool))
        none = paths._subset(edges, np.zeros(len(edges), dtype=bool))
        assert len(every) == len(edges) and len(none) == 0
        for a in (every, none):
            assert a.vertex_index.dtype.kind == a.interaction_index.dtype.kind == "i"
            assert a.activation.dtype == a.deactivation.dtype == np.float64


# Event and evaluation times: horizon ends, dyadic interior points (so ties
# are exact) and times outside the horizon.
_TIMES = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)


@st.composite
def _split_instances(draw):
    """Edges on a few vertices: shared deaths, deaths <= 0 or >= 1,
    activation after deactivation, and eval times on event times."""
    nv = draw(st.integers(1, 6))
    death = np.array(draw(st.lists(st.sampled_from(_TIMES), min_size=nv, max_size=nv)))
    u = np.array(
        draw(st.lists(st.sampled_from((0.05, 0.3, 0.5, 1.0)), min_size=nv, max_size=nv))
    )
    ne = draw(st.integers(0, 25))
    vi = np.array(draw(st.lists(st.integers(0, nv - 1), min_size=ne, max_size=ne)), dtype=int)
    act = np.array(draw(st.lists(st.sampled_from(_TIMES), min_size=ne, max_size=ne)))
    vs = VertexSample(x=np.zeros(nv), u=u, b=death - 1.0, l=np.ones(nv))
    edges = EdgeSet(vi, np.arange(ne), act, vs.death[vi])
    thr = draw(st.sampled_from((0.05, 0.3, 0.5, 0.9)))
    t = np.array(sorted(draw(st.lists(st.sampled_from(_TIMES[1:-1] + (0.1,)), min_size=1))))
    return edges, vs, thr, t


class TestDecompositionProperties:
    @PROPERTY
    @given(_split_instances())
    def test_identities_on_the_union_grid(self, instance):
        # plus - minus and low + high rebuild the path exactly, with ties,
        # act > deact, deaths <= 0 or >= 1 and grid times on every event.
        edges, vs, thr, t = instance
        path = edge_count_path(edges)
        plus, minus = pm_edge_count_paths(edges)
        low, high = mark_split_paths(edges, vs, thr)
        grid = np.unique(
            np.concatenate([t, path.times, plus.times, minus.times, low.times, high.times, [1.0]])
        )
        assert np.all(plus(grid) - minus(grid) == path(grid))
        assert np.all(low(grid) + high(grid) == path(grid))


class TestEdgeCountAt:
    @PROPERTY
    @given(_split_instances())
    def test_equals_the_path(self, instance):
        # At 0, at 1, at every event time clipped to [0, 1] and at the drawn
        # times, with ties, act > deact and deaths <= 0 or >= 1.
        edges, _, _, t = instance
        path = edge_count_path(edges)
        events = np.clip(np.concatenate([edges.activation, edges.deactivation]), 0.0, 1.0)
        grid = np.concatenate([[0.0, 1.0], events, t])
        counts = edge_count_at(edges, grid)
        assert counts.dtype == np.float64 and counts.shape == grid.shape
        assert np.all(counts == path(grid))
        for ti in grid:
            count = edge_count_at(edges, float(ti))
            assert np.ndim(count) == 0 and count == path(ti)

    def test_return_types(self):
        edges = EdgeSet(np.array([0]), np.array([0]), np.array([0.2]), np.array([0.5]))
        assert isinstance(edge_count_at(edges, 0.3), float)
        for t in ([0.3], [0.1, 0.3, 0.5], []):
            counts = edge_count_at(edges, np.array(t))
            assert isinstance(counts, np.ndarray) and counts.dtype == np.float64
            assert counts.shape == (len(t),)

    def test_empty_edge_set(self):
        # No edges: zero counts at every time, float64 and shaped like t,
        # and the path is the constant 0.
        empty = paths._no_edges()
        assert empty.vertex_index.dtype.kind == empty.interaction_index.dtype.kind == "i"
        count = edge_count_at(empty, 0.5)
        assert isinstance(count, float) and count == 0.0
        for t in ([], [0.0, 0.5, 1.0], [[0.25], [0.75]]):
            counts = edge_count_at(empty, np.array(t))
            assert counts.dtype == np.float64 and counts.shape == np.shape(t)
            assert np.all(counts == 0.0)
        path = edge_count_path(empty)
        for a in (path.times, path.values):
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, [0.0])

    def test_hand_example(self):
        # Vertex 0 (low) carries three edges sharing death 0.5; vertex 1
        # (high) dies at 1.0 and carries an edge with act > deact.
        vs = VertexSample(
            x=np.zeros(2), u=np.array([0.1, 0.9]),
            b=np.array([-0.5, 0.0]), l=np.array([1.0, 1.0]),
        )
        edges = EdgeSet(
            vertex_index=np.array([0, 0, 0, 1, 1]),
            interaction_index=np.arange(5),
            activation=np.array([-0.25, 0.25, 0.5, 0.5, 1.5]),
            deactivation=np.array([0.5, 0.5, 0.5, 1.0, 1.0]),
        )
        t = np.array([0.0, 0.25, 0.5, 1.0])
        low, high = mark_split_paths(edges, vs, 0.5)
        # the cadlag path has dropped vertex 0's edges at its death 0.5
        np.testing.assert_array_equal(low(t), [1.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(high(t), [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(edge_count_at(edges, t), [1.0, 2.0, 1.0, 1.0])
