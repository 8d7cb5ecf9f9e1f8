"""Edge construction and edge-count step paths.

An edge is a (vertex, interaction) pair satisfying the connection rule; it
activates at the interaction time and deactivates at the vertex death.  The
edge-count process S(t) is the number of edges active at t, represented as a
right-continuous step function on [0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .sampler import InteractionSample, VertexSample, _whole_blocks


@dataclass
class EdgeSet:
    """Edges as parallel arrays; activation = interaction time, deactivation
    = vertex death (may lie outside [0, 1])."""

    vertex_index: np.ndarray
    interaction_index: np.ndarray
    activation: np.ndarray
    deactivation: np.ndarray

    def __len__(self) -> int:
        return len(self.activation)


@dataclass
class StepPath:
    """A piecewise-constant, right-continuous function on [0, 1].

    times[0] == 0 and values[i] holds on [times[i], times[i+1]); the last
    value holds through t = 1.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("a step path must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __call__(self, t):
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[np.maximum(idx, 0)]

    @classmethod
    def constant(cls, value: float) -> "StepPath":
        return cls(np.array([0.0]), np.array([float(value)]))

    def to_csv(self, path) -> None:
        _write_csv(path, self.times, self.values)


def _write_csv(path, times, values) -> None:
    """(t, value) rows under a header, floats in shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(times, values):
            writer.writerow([repr(float(t)), repr(float(v))])


# Consecutive bands are paired as one group while their reach factors
# band_w_lo**(-gamma_prime) stay under this multiple of the group's first.
_GROUP_SPREAD = 2.0

# Birth classes, by descending floor: a vertex born at b can meet only
# interactions at r >= b, so one born at or after a floor searches only the
# interactions at or after that floor.
_BIRTH_FLOORS = (0.0, -1.0, -np.inf)

# Most candidate pairs build_edges expands at once, unless one vertex has
# more: a typical criterion-7 replicate has fewer in all.
_CANDIDATE_BLOCK = 65_536


def build_edges(
    params: ModelParams,
    vs: VertexSample,
    interactions: InteractionSample,
) -> EdgeSet:
    """All connected (vertex, interaction) pairs.

    Each vertex's radius factor beta * u**(-gamma) is computed once, and an
    interaction's w**(-gamma_prime) only for the candidates that pass the
    time test.  The interactions arrive band after band (band_counts), and
    consecutive nonempty bands are paired as one group while their reach
    factors band_w_lo**(-gamma_prime) stay within a factor 2 of the group's
    first: every radius in the group is at most the vertex's radius times
    the group's largest factor.  An edge needs birth <= r, so the vertices
    fall into birth classes by the highest floor (0, -1, -inf) at or below
    their birth, and each class is matched only against the group's
    interactions with r at or above its floor.
    With the vertices sorted by (class, position) once and those nested
    subsets sorted by position, one pair of sorted range queries per vertex
    and group yields every candidate pair.  The exact predicate alone
    decides which candidates are edges, so the edge set does not depend on
    the vertex order, the grouping or the classes; only the order of the
    returned edges (group, class, vertex position, interaction position)
    does, and no caller reads it.

    Memory stays bounded when a tiny vertex mark widens every band's margin
    and the interactions number in the hundreds of thousands: a group's
    sorted copies are freed once its pool is built, and its candidates are
    expanded in blocks of consecutive vertices of at most _CANDIDATE_BLOCK
    candidates (or one vertex), which keeps the edge order.
    """
    if len(vs) == 0 or len(interactions) == 0:
        return _no_edges()

    # Sorted by birth class, then position; class k is born at or after
    # _BIRTH_FLOORS[k] and before the floor above it.  The class is int8, so
    # the stable sort is a radix sort.  Selections here and below are
    # take/compress rather than fancy or boolean indexing: the same elements
    # in the same order, at a fraction of the cost for these array sizes.
    v_class = sum((vs.b < floor).view(np.int8) for floor in _BIRTH_FLOORS[:-1])
    v_order = np.argsort(vs.x)
    v_order = v_order.take(np.argsort(v_class.take(v_order), kind="stable"))
    class_end = np.cumsum(np.bincount(v_class, minlength=len(_BIRTH_FLOORS))).tolist()
    classes = [slice(a, b) for a, b in zip([0] + class_end, class_end)]
    x = vs.x.take(v_order)
    v_radius = params.beta * vs.u.take(v_order) ** (-params.gamma)
    birth = vs.b.take(v_order)
    death = vs.death.take(v_order)
    parts = []
    for start, end, factor in _band_groups(interactions, params.gamma_prime):
        pool, lo, hi = _group_pool(interactions, start, end, x, v_radius * factor, classes)
        # Candidate k of vertex q is the pool's (lo[q] + k)-th; they are
        # expanded a block of consecutive vertices at a time.
        counts = hi - lo
        shift = lo - (np.cumsum(counts) - counts)
        for q0, q1, first, stop in _whole_blocks(counts, _CANDIDATE_BLOCK):
            vrep = np.repeat(np.arange(q0, q1), counts[q0:q1])
            idx = pool.take(np.arange(first, stop) + shift.take(vrep))
            # The exact predicate; the cheaper time test runs first and thins
            # the candidates before the spatial test, which alone needs the
            # interactions' w**(-gamma_prime).  Survivors are taken by index,
            # found once for the three arrays they select from.
            r = interactions.r.take(idx)
            alive = np.flatnonzero((birth.take(vrep) <= r) & (r <= death.take(vrep)))
            vrep, idx, r = vrep.take(alive), idx.take(alive), r.take(alive)
            w_factor = interactions.w.take(idx) ** (-params.gamma_prime)
            near = np.flatnonzero(
                np.abs(x.take(vrep) - interactions.z.take(idx)) <= v_radius.take(vrep) * w_factor
            )
            parts.append((vrep.take(near), idx.take(near), r.take(near)))
    vrep, idx, r = (np.concatenate(arrays) for arrays in zip(*parts))
    return EdgeSet(
        vertex_index=v_order.take(vrep),
        interaction_index=idx,
        activation=r,
        deactivation=death.take(vrep),
    )


def _group_pool(interactions, start, end, x, reach, classes):
    """The indices of the group's interactions [start, end) as nested subsets
    end to end, one per birth class: class k's holds those with r at or
    above its floor, sorted by position; and lo, hi, where pool[lo[q]:hi[q]]
    are the interactions within reach[q] of x[q] in vertex q's class subset.
    The sorted copies live only in this call, and a subset that keeps the
    whole group is searched without a copy."""
    order = np.argsort(interactions.z[start:end])
    order += start
    z = interactions.z.take(order)
    r_by_z = interactions.r.take(order)
    keeps = [r_by_z >= floor for floor in _BIRTH_FLOORS]
    del r_by_z
    sizes = [np.count_nonzero(keep) for keep in keeps]
    pool = np.empty(sum(sizes), dtype=np.intp)
    lo = np.empty(len(x), dtype=np.intp)
    hi = np.empty(len(x), dtype=np.intp)
    offset = 0
    for keep, size, cls in zip(keeps, sizes, classes):
        if size == len(order):
            pool[offset : offset + size], zk = order, z
        else:
            kept = np.flatnonzero(keep)
            pool[offset : offset + size] = order.take(kept)
            zk = z.take(kept)
            del kept
        lo[cls] = offset + np.searchsorted(zk, x[cls] - reach[cls], side="left")
        hi[cls] = offset + np.searchsorted(zk, x[cls] + reach[cls], side="right")
        del zk
        offset += size
    return pool, lo, hi


def _band_groups(interactions: InteractionSample, gamma_prime: float) -> list:
    """(start, end, reach factor) of each group of consecutive nonempty
    bands: a band joins the group before it while its factor
    band_w_lo**(-gamma_prime) is under _GROUP_SPREAD times the group's
    first, and the group's factor is its largest."""
    groups = []
    end = 0
    bands = zip(interactions.band_counts.tolist(), interactions.band_w_lo.tolist())
    for count, w_lo in bands:
        end += count
        if count == 0:
            continue
        factor = w_lo ** (-gamma_prime)
        if groups and factor < _GROUP_SPREAD * first:
            start, _, top = groups[-1]
            groups[-1] = (start, end, max(top, factor))
        else:
            groups.append((end - count, end, factor))
            first = factor
    return groups


def _no_edges() -> EdgeSet:
    empty = np.array([], dtype=int)
    return EdgeSet(empty, empty, np.array([]), np.array([]))


def build_edges_brute_force(
    params: ModelParams,
    vs: VertexSample,
    interactions: InteractionSample,
) -> EdgeSet:
    """All-pairs double loop; oracle for build_edges on small instances."""
    vi, ii = [], []
    death = vs.death
    for v in range(len(vs)):
        for i in range(len(interactions)):
            radius = (
                params.beta
                * vs.u[v] ** (-params.gamma)
                * interactions.w[i] ** (-params.gamma_prime)
            )
            if abs(vs.x[v] - interactions.z[i]) <= radius and (
                vs.b[v] <= interactions.r[i] <= death[v]
            ):
                vi.append(v)
                ii.append(i)
    vi = np.array(vi, dtype=int)
    ii = np.array(ii, dtype=int)
    return EdgeSet(
        vertex_index=vi,
        interaction_index=ii,
        activation=interactions.r[ii] if len(ii) else np.array([]),
        deactivation=death[vi] if len(vi) else np.array([]),
    )


def _step_path_from_events(plus_times, minus_times, initial: float) -> StepPath:
    """Accumulate +1/-1 events in (0, 1] into a step path.

    The level after a time counts every event at that time, so the order of
    tied events does not matter.
    """
    times = np.concatenate([plus_times, minus_times])
    if len(times) == 0:
        return StepPath.constant(initial)
    deltas = np.concatenate(
        [np.ones(len(plus_times)), -np.ones(len(minus_times))]
    )
    order = np.argsort(times)
    times = times.take(order)
    levels = initial + np.cumsum(deltas.take(order))
    last = np.append(times[1:] != times[:-1], True)
    return StepPath(
        np.concatenate([[0.0], times.compress(last)]),
        np.concatenate([[initial], levels.compress(last)]),
    )


def _pm_events(edges: EdgeSet):
    """The events of S = plus - minus, over the edges with activation <=
    deactivation: the activations in (0, 1] with the count at or before 0,
    and the deactivations in (0, 1) with the count at or before 0."""
    ok = edges.activation <= edges.deactivation
    act = edges.activation.compress(ok)
    deact = edges.deactivation.compress(ok)
    return (
        act.compress((act > 0.0) & (act <= 1.0)),
        float(np.sum(act <= 0.0)),
        deact.compress((deact > 0.0) & (deact < 1.0)),
        float(np.sum(deact <= 0.0)),
    )


def edge_count_path(edges: EdgeSet) -> StepPath:
    """S(t) = number of edges with activation <= t < deactivation, t in
    [0, 1]; an edge deactivating at or after 1 stays through 1."""
    ups, up0, downs, down0 = _pm_events(edges)
    return _step_path_from_events(ups, downs, up0 - down0)


def edge_count_at(edges: EdgeSet, t):
    """edge_count_path(edges) at one or more times t in [0, 1], counted
    directly: the edges with activation <= t < deactivation, where an edge
    deactivating at or after 1 stays through 1 and one with activation >
    deactivation never counts.  A scalar t gives a scalar, an array a float64
    array."""
    ok = edges.activation <= edges.deactivation
    act = edges.activation.compress(ok)
    deact = edges.deactivation.compress(ok)
    stays = deact >= 1.0
    times = np.asarray(t, dtype=float)
    counts = np.array(
        [np.count_nonzero((act <= ti) & ((ti < deact) | stays)) for ti in times.flat],
        dtype=float,
    )
    return counts[0] if times.ndim == 0 else counts.reshape(times.shape)


def pm_edge_count_paths(edges: EdgeSet) -> tuple[StepPath, StepPath]:
    """Monotone decomposition S = plus - minus.

    plus(t) counts edges whose interaction time has occurred by t; minus(t)
    counts edges whose vertex has died by t, where, as in edge_count_path, a
    death at 1 counts only after the horizon.  Both are nondecreasing and the
    difference recovers the edge count.
    """
    ups, up0, downs, down0 = _pm_events(edges)
    none = np.array([])
    return _step_path_from_events(ups, none, up0), _step_path_from_events(downs, none, down0)


def mark_split_paths(
    edges: EdgeSet,
    vs: VertexSample,
    u_threshold: float,
) -> tuple[StepPath, StepPath]:
    """Split the edge count by vertex weight: low (< threshold) and high (>=).

    low(t) + high(t) == S(t) for every t, since the edge set is partitioned.
    """
    low = vs.u.take(edges.vertex_index) < u_threshold
    return edge_count_path(_subset(edges, low)), edge_count_path(_subset(edges, ~low))


def _subset(edges: EdgeSet, mask: np.ndarray) -> EdgeSet:
    return EdgeSet(
        vertex_index=edges.vertex_index.compress(mask),
        interaction_index=edges.interaction_index.compress(mask),
        activation=edges.activation.compress(mask),
        deactivation=edges.deactivation.compress(mask),
    )

