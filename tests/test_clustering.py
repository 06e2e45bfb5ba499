import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_oracle
from cluster_oracle import region_gate
from uwbvo import clustering, config, pipeline, simulate
from uwbvo.clustering import ClusterParams, StopClusterer, StopEstimate
from uwbvo.core import Position2D, euclidean


def as_rows(points) -> np.ndarray:
    """The ``(m, 2)`` array of a sequence of positions."""
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


def detect_stop(points, params: ClusterParams) -> StopEstimate:
    """Run one detector instance over a sequence of positions, as one block.

    Returns a complete estimate as soon as the termination count is reached;
    if the positions run out first, returns the best-so-far estimate flagged
    incomplete (the caller decides whether its support suffices).
    """
    clusterer = StopClusterer(params)
    return clusterer.push(as_rows(points)) or clusterer.finish()


def oracle_detect(points, params: ClusterParams) -> StopEstimate:
    """:func:`detect_stop` with the per-sample clusterer of ``cluster_oracle``."""
    clusterer = cluster_oracle.StopClusterer(params)
    for pos in points:
        result = clusterer.push(pos)
        if result is not None:
            return result
    return clusterer.finish()


def counts_by_value(clusterer: StopClusterer) -> dict[tuple[float, float], int]:
    """The block clusterer's count of every distinct value seen so far."""
    return dict(zip(map(tuple, clusterer._points.tolist()), clusterer._counts.tolist()))


def brute_force_counts(points, alpha):
    """Independent recount of the pair-event counters over a prefix.

    Distinct values within alpha of an arriving sample gain one count each
    (arriving side included); a re-arrival of an already-seen value adds a
    single count to its own slot.
    """
    order: list[tuple[float, float]] = []
    counts: dict[tuple[float, float], int] = {}
    for p in points:
        key = (p.x, p.y)
        revisit = key in counts
        if not revisit:
            order.append(key)
            counts[key] = 0
        for other in order:
            if other == key:
                continue
            if math.hypot(other[0] - p.x, other[1] - p.y) <= alpha:
                counts[other] += 1
                counts[key] += 1
        if revisit:
            counts[key] += 1
    return order, counts


def vectorized_counts(points, alpha):
    """Numpy recount of the same counters as :func:`brute_force_counts`.

    The sample ``i`` and distinct value ``d`` form a pair event when ``d`` was
    first seen before ``i``, is not the value of sample ``i``, and lies within
    alpha of it; the event gives one count to ``d`` and one to the arriving
    value. Every re-arrival adds one count to its own value.
    """
    slots: dict[tuple[float, float], int] = {}
    inverse = np.array(
        [slots.setdefault((p.x, p.y), len(slots)) for p in points], dtype=np.int64
    )
    order = list(slots)
    x, y = np.array(order, dtype=np.float64).reshape(-1, 2).T
    first_seen = np.unique(inverse, return_index=True)[1]
    dx = x[inverse][:, None] - x[None, :]
    dy = y[inverse][:, None] - y[None, :]
    dist = np.sqrt(dx * dx + dy * dy)  # np.hypot is ~5x slower here
    events = (
        (dist <= alpha)
        & (first_seen[None, :] < np.arange(len(inverse))[:, None])
        & (inverse[:, None] != np.arange(len(order))[None, :])
    )
    counts = events.sum(axis=0)
    np.add.at(counts, inverse, events.sum(axis=1))
    counts += np.bincount(inverse, minlength=len(order)) - 1
    return order, dict(zip(order, counts.tolist()))


def brute_force_argmax(points, alpha, k1, recount=brute_force_counts):
    """Offline winner over a consumed prefix: argmax count among values that
    reached k1 (all values if none did), earliest-seen on ties."""
    order, counts = recount(points, alpha)
    eligible = [key for key in order if counts[key] >= k1] or order
    best = max(eligible, key=lambda key: counts[key])
    # max() keeps the first maximum in iteration order == earliest seen
    return Position2D(*best), counts[best]


def cloud_and_ray_stream(rng, n_cloud, sigma, center, ray_count, ray_length):
    cloud = rng.normal(0.0, sigma, size=(n_cloud, 2)) + center
    theta = rng.uniform(0, 2 * math.pi)
    mags = ray_length * ((np.arange(1, ray_count + 1) / ray_count) ** 2)
    ray = center + np.stack([mags * math.cos(theta), mags * math.sin(theta)], axis=1)
    # splice the ray into the middle of the dwell stream
    onset = rng.integers(n_cloud // 4, n_cloud // 2)
    merged = np.concatenate([cloud[:onset], ray, cloud[onset:]])
    is_ray = np.zeros(len(merged), dtype=bool)
    is_ray[onset : onset + ray_count] = True
    # ray points nearer the cloud than 3 sigma are effectively cloud members
    is_ray[onset : onset + ray_count] &= mags > 3 * sigma
    points = [Position2D(float(p[0]), float(p[1])) for p in merged]
    return points, is_ray


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(alpha_mm=0.0)
    with pytest.raises(ValueError):
        ClusterParams(k1=10, k2=10)
    with pytest.raises(ValueError):
        ClusterParams(k1=0, k2=5)
    with pytest.raises(ValueError):
        ClusterParams(alpha_mm=20.0, gamma_mm=10.0)
    # the activation radius must exceed the intracluster distance
    with pytest.raises(ValueError, match="gamma_mm must be finite and exceed alpha_mm"):
        ClusterParams(alpha_mm=20.0, gamma_mm=20.0)
    assert ClusterParams(alpha_mm=20.0, gamma_mm=math.nextafter(20.0, 21.0)).gamma_mm > 20.0
    # alpha need only be positive
    assert ClusterParams(alpha_mm=1.0).alpha_mm == 1.0


def test_params_defaults_are_the_readmes():
    # "Cluster thresholds default to alpha = 10 mm, k1 = 100, k2 = 500,
    # activation radius gamma = 100 mm"
    params = ClusterParams()
    assert (params.alpha_mm, params.k1, params.k2, params.gamma_mm) == (10.0, 100, 500, 100.0)


def test_region_gate_boundary():
    stop = Position2D(100.0, 0.0)
    assert region_gate(stop, stop, 100.0)
    assert region_gate(Position2D(200.0, 0.0), stop, 100.0)  # closed ball
    assert not region_gate(Position2D(200.1, 0.0), stop, 100.0)


def test_repeated_point_terminates_at_fifth_sample():
    params = ClusterParams(alpha_mm=5.0, k1=2, k2=4, gamma_mm=50.0)
    p = Position2D(10.0, 20.0)
    est = detect_stop([p] * 10, params)
    assert est.complete
    assert est.samples_consumed == 5  # counter reaches k2 one pair at a time
    assert est.support == 4
    assert est.pos == p


def test_incomplete_stream_flagged():
    params = ClusterParams(alpha_mm=5.0, k1=3, k2=50, gamma_mm=50.0)
    p = Position2D(0.0, 0.0)
    est = detect_stop([p] * 10, params)
    assert not est.complete
    assert est.support == 9
    assert est.pos == p
    with pytest.raises(ValueError):
        StopClusterer(params).finish()


def test_dense_cloud_with_outlier_ray_default_thresholds():
    params = ClusterParams(alpha_mm=10.0, k1=100, k2=500, gamma_mm=100.0)
    rng = np.random.default_rng(0)
    points, is_ray = cloud_and_ray_stream(
        rng, 700, 5.0, np.array([1000.0, 0.0]), 50, 500.0
    )
    est = detect_stop(points, params)
    assert est.complete
    winner = points.index(est.pos)
    assert not is_ray[winner]
    assert euclidean(est.pos, Position2D(1000.0, 0.0)) < 3 * 5.0


def test_online_matches_brute_force_oracle():
    params = ClusterParams(alpha_mm=10.0, k1=100, k2=500, gamma_mm=100.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(3.0, 7.0)
        points, _ = cloud_and_ray_stream(
            rng, 800, sigma, rng.uniform(-1000, 1000, 2), 50, 500.0
        )
        est = detect_stop(points, params)
        assert est.complete
        prefix = points[: est.samples_consumed]
        expected_pos, expected_count = brute_force_argmax(
            prefix, params.alpha_mm, params.k1
        )
        assert est.pos == expected_pos
        assert est.support == expected_count


def test_vectorized_oracle_matches_loop_oracle():
    grid = [Position2D(float(x), float(y)) for x in range(5) for y in range(5)]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noisy = [
            Position2D(float(p[0]), float(p[1]))
            for p in rng.normal(2.0, 1.5, size=(40, 2))
        ]
        pool = grid + noisy
        points = [pool[i] for i in rng.integers(0, len(pool), 150)]
        for alpha in (1.0, 2.0):  # grid neighbours sit exactly at alpha
            assert vectorized_counts(points, alpha) == brute_force_counts(points, alpha)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        points, _ = cloud_and_ray_stream(
            rng, 300, 5.0, rng.uniform(-1000, 1000, 2), 20, 200.0
        )
        for at in sorted(rng.integers(1, len(points), 30), reverse=True):
            points.insert(int(at), points[rng.integers(0, at)])  # revisit
        assert vectorized_counts(points, 10.0) == brute_force_counts(points, 10.0)


def test_online_counts_match_oracle_with_duplicates():
    params = ClusterParams(alpha_mm=2.0, k1=4, k2=1000, gamma_mm=50.0)
    rng = np.random.default_rng(42)
    grid = [Position2D(float(x), float(y)) for x in range(4) for y in range(4)]
    points = [grid[i] for i in rng.integers(0, len(grid), 200)]
    clusterer = StopClusterer(params)
    for i, p in enumerate(points):
        clusterer.push(as_rows([p]))
        _, expected = brute_force_counts(points[: i + 1], params.alpha_mm)
        assert counts_by_value(clusterer) == expected


def test_termination_index_monotone_in_k2():
    rng = np.random.default_rng(1)
    points = [
        Position2D(float(p[0]), float(p[1]))
        for p in rng.normal(0.0, 5.0, size=(900, 2))
    ]
    consumed = []
    for k2 in (50, 100, 200, 400):
        params = ClusterParams(alpha_mm=10.0, k1=20, k2=k2, gamma_mm=50.0)
        est = detect_stop(points, params)
        assert est.complete
        consumed.append(est.samples_consumed)
    assert consumed == sorted(consumed)


def test_counters_never_decrease():
    rng = np.random.default_rng(2)
    params = ClusterParams(alpha_mm=10.0, k1=50, k2=10_000, gamma_mm=50.0)
    clusterer = StopClusterer(params)
    prev_max = 0
    for p in rng.normal(0.0, 5.0, size=(400, 2)):
        clusterer.push(p[None, :])
        current = int(clusterer._counts.max(initial=0))
        assert current >= prev_max
        prev_max = current


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_far_outliers_never_change_estimate(seed, n_outliers):
    params = ClusterParams(alpha_mm=10.0, k1=10, k2=60, gamma_mm=10_000.0)
    rng = np.random.default_rng(seed)
    cloud = [
        Position2D(float(p[0]), float(p[1]))
        for p in rng.normal(0.0, 4.0, size=(150, 2))
    ]
    base = detect_stop(cloud, params)
    # outliers farther than alpha from every cloud point and from each other
    outliers = [Position2D(500.0 + 40.0 * i, 500.0) for i in range(n_outliers)]
    positions = rng.integers(0, len(cloud), size=n_outliers)
    spiked = list(cloud)
    for p, at in sorted(zip(outliers, positions), key=lambda t: -t[1]):
        spiked.insert(at, p)
    est = detect_stop(spiked, params)
    assert est.pos == base.pos


def test_candidate_hysteresis_requires_k1_before_k2():
    params = ClusterParams(alpha_mm=5.0, k1=3, k2=5, gamma_mm=50.0)
    clusterer = cluster_oracle.StopClusterer(params)
    p = Position2D(0.0, 0.0)
    for _ in range(3):
        assert clusterer.push(p) is None
    assert not clusterer.candidate  # count == 2 < k1
    clusterer.push(p)
    assert clusterer.candidate  # count == 3 == k1
    assert clusterer.push(p) is None  # count == 4
    est = clusterer.push(p)  # count == 5 == k2 -> terminate
    assert est is not None and est.complete


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def tie_stream(seed, n, spread, noisy_share):
    """``n`` positions from a small integer grid, so that values repeat and
    neighbours sit at exactly alpha = 10 (say (6, 8) apart), mixed with a
    share of noisy positions around the grid."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(-spread, spread + 1, size=(n, 2)).astype(np.float64)
    noisy = rng.random(n) < noisy_share
    xy[noisy] += rng.normal(0.0, 3.0, size=(int(noisy.sum()), 2))
    return [Position2D(float(x), float(y)) for x, y in xy.tolist()]


def chunkings(n, cuts, at):
    """Sizes of push calls to split a stream of ``n`` positions into: one
    position per call, prime-sized calls, the whole stream, ``cuts``, and,
    given a position ``at``, a call that starts there and one that ends there."""
    primes = [PRIMES[i % len(PRIMES)] for i in range(n)]
    ways = [[1] * n, primes, [n], cuts]
    if at is not None:
        ways += [[at], [at + 1]]
    return ways


def pushed_in_calls(rows, params, sizes):
    """The estimate of a block clusterer fed ``rows`` in calls of ``sizes``
    (cut short at the stream's end), then the rest in one call."""
    clusterer = StopClusterer(params)
    bounds = np.cumsum([0, *sizes, len(rows)]).clip(max=len(rows))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        est = clusterer.push(rows[lo:hi])
        if est is not None:
            # a push after termination returns the same estimate
            assert clusterer.push(rows) is est
            assert clusterer.finish() is est
            return est
    return clusterer.finish()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 320),
    spread=st.integers(2, 15),
    noisy_share=st.sampled_from([0.0, 0.3, 1.0]),
    k1=st.integers(1, 40),
    extra=st.integers(1, 120),
    cuts=st.lists(st.integers(0, 320), max_size=6),
)
def test_block_push_matches_per_sample_oracle(seed, n, spread, noisy_share, k1, extra, cuts):
    params = ClusterParams(alpha_mm=10.0, k1=k1, k2=k1 + extra, gamma_mm=100.0)
    points = tie_stream(seed, n, spread, noisy_share)
    expected = oracle_detect(points, params)
    last = expected.samples_consumed - 1 if expected.complete else None
    cuts = np.diff(sorted({0, *cuts})).tolist()
    rows = as_rows(points)
    for sizes in chunkings(n, cuts, last):
        assert pushed_in_calls(rows, params, sizes) == expected


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_block_push_terminates_at_block_edges(blocks, offset):
    # one repeated value: its count reaches k2 at position k2 (0-based), the
    # last or first position of an internal block, or one either side
    k2 = blocks * clustering._BLOCK + offset
    params = ClusterParams(alpha_mm=5.0, k1=2, k2=k2, gamma_mm=50.0)
    points = [Position2D(1.0, 2.0)] * (k2 + 40)
    est = detect_stop(points, params)
    assert est == oracle_detect(points, params)
    assert est.complete and est.samples_consumed == k2 + 1 and est.support == k2


def test_long_dwell_counted_in_bounded_memory():
    # 1,600 gated positions, more than a 60 s dwell yields at 27 Hz, that
    # never terminate: one (positions x positions) float matrix would be
    # 20 MB, while a block's matrices are (block x distinct values)
    params = ClusterParams(alpha_mm=10.0, k1=100, k2=10**9, gamma_mm=100.0)
    rows = np.random.default_rng(0).normal(0.0, 5.0, size=(1600, 2))
    clusterer = StopClusterer(params)
    tracemalloc.start()
    try:
        assert clusterer.push(rows) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    points = [Position2D(x, y) for x, y in rows.tolist()]
    assert clusterer.finish() == oracle_detect(points, params)


def test_live_visit_counted_without_squared_temporaries(monkeypatch):
    # the visit of a worst-case live run (seeds 0-3) whose detector consumes
    # the most samples. Its blocks reach (64 x 383) float64 distance
    # matrices of 196 KB; squaring and summing them in place keeps the push
    # near 635 KB, where separate squares and their sum peaked at 1,011 KB
    scenario = simulate.worst_case_scenario()
    params = config.default_pipeline_params()
    truth = simulate.build_truth(scenario.plan)
    pushed = []
    push = StopClusterer.push

    def recording_push(self, xy):
        est = push(self, xy)
        pushed.append((self._consumed, np.array(xy)))
        return est

    monkeypatch.setattr(StopClusterer, "push", recording_push)
    for seed in range(4):
        uwb = simulate.simulate_pair(scenario, seed)[0].uwb
        sensor = simulate.VoSensor(truth, scenario.vo, seed)
        pipeline.run_pipeline_live(uwb, sensor, scenario.plan, params)
    monkeypatch.undo()
    consumed, rows = max(pushed, key=lambda visit: visit[0])
    assert (len(rows), consumed) == (437, 339)
    clusterer = StopClusterer(params.cluster)
    tracemalloc.start()
    try:
        est = clusterer.push(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est is not None and est.samples_consumed == consumed
    assert len(clusterer._counts) == 383
    assert peak < 800 * 2**10
