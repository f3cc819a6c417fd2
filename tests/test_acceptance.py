"""End-to-end acceptance criteria.

Each test exercises one headline guarantee at its stated tolerance and time
budget and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline).
"""

import math
import time

import numpy as np

from graphondist import (
    EXPONENTIAL,
    RESOLVENT,
    IntervalSet,
    Partition,
    bipartite_graphon,
    circular_band_graphon,
    communicability_distance,
    communicability_embedding,
    compare_with_varadhan,
    comp_power,
    cut_norm,
    diameter,
    distance_field,
    general_varadhan_slope,
    lift,
    set_distance,
    step,
    support_graph,
    to_grid,
    varadhan_distance,
    varadhan_slope,
)
from graphondist.metrics import _cut_norms
from conftest import (
    cycle_adjacency,
    finitely_connected,
    laplacian_zero_simple,
    random_partition,
    random_step_graphon,
)
from test_metrics import brute_force_cut_norm, random_interval_set


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def interval(a, b):
    return IntervalSet(((a, b),))


def test_criterion_01_cycle_triangle_counterexample():
    w = lift(cycle_adjacency(6))
    x = interval(0.0, 1 / 6)
    y = IntervalSet(((1 / 6, 3 / 6),))
    z = interval(3 / 6, 4 / 6)
    # warm numpy dispatch caches before timing the combinatorial path
    for u, v in ((x, y), (y, z), (x, z)):
        set_distance(w, u, v)

    start = time.perf_counter()
    got = (set_distance(w, x, y), set_distance(w, y, z), set_distance(w, x, z))
    elapsed = time.perf_counter() - start
    ok = got == (1, 1, 3) and elapsed < 1e-3
    report(1, "6-cycle set distances break the triangle inequality", ok,
           f"got {got}, {elapsed * 1e3:.3f} ms")


def test_criterion_02_bipartite_pointwise_table():
    w = bipartite_graphon()
    rng = np.random.default_rng(2)
    xs = rng.random(10_000)
    ys = rng.random(10_000)
    ys[:200] = xs[:200]  # exercise the coincidence case as well
    varadhan_distance(w, 0.1, 0.9)  # warm-up

    start = time.perf_counter()
    got = np.asarray(varadhan_distance(w, xs, ys))
    elapsed = time.perf_counter() - start

    expected = np.where(xs == ys, 0.0,
                        np.where((xs < 0.5) != (ys < 0.5), 1.0, 2.0))
    exact = bool(np.array_equal(got, expected))
    # scalar route agrees with the vectorized one
    scalars = all(varadhan_distance(w, float(xs[k]), float(ys[k]))
                  == expected[k] for k in range(50))
    ok = exact and scalars and elapsed < 10e-3
    report(2, "bipartite pointwise distances split 0/1/2 exactly", ok,
           f"10^4 pairs in {elapsed * 1e3:.2f} ms")


def test_criterion_03_circular_band_ceiling_rule():
    n, tau = 700, 1 / 7
    start = time.perf_counter()
    w = circular_band_graphon(tau, n)
    fld = distance_field(w)
    rng = np.random.default_rng(3)
    ii = rng.integers(0, n, 100_000)
    jj = rng.integers(0, n, 100_000)
    xs = (ii + 0.5) / n
    ys = (jj + 0.5) / n
    got = np.asarray(fld.pointwise(xs, ys))
    diam = diameter(w)
    elapsed = time.perf_counter() - start

    ring = np.minimum(np.abs(ii - jj), n - np.abs(ii - jj))
    expected = -(-ring // 100)  # ceil(Delta / tau) in exact integers
    rate = float(np.mean(got == expected))
    ok = rate >= 0.995 and diam == 4 and elapsed < 5.0
    report(3, "circular band follows the ceiling rule with diameter 4", ok,
           f"agreement {rate:.4%}, diameter {diam}, {elapsed:.2f} s")


def test_criterion_04_er_distance_ignores_density():
    from graphondist import er_graphon

    start = time.perf_counter()
    fields = [distance_field(er_graphon(p)) for p in (0.1, 0.5, 0.9)]
    elapsed = time.perf_counter() - start
    same = all(
        np.array_equal(f.matrix, fields[0].matrix)
        and np.array_equal(f.within_block, fields[0].within_block)
        and np.array_equal(f.breakpoints, fields[0].breakpoints)
        for f in fields[1:]
    )
    ok = same and elapsed < 10e-3
    report(4, "flat-density distance fields are identical across p", ok,
           f"{elapsed * 1e3:.2f} ms")


def test_criterion_05_slopes_round_to_set_distances():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        w = random_step_graphon(rng, n, density=float(rng.uniform(0.3, 0.8)),
                                ensure_connected=True)
        bp = w.partition.breakpoints
        for i in range(n):
            for j in range(i, n):
                u = interval(bp[i], bp[i + 1])
                v = interval(bp[j], bp[j + 1])
                expected = set_distance(w, u, v)
                est = varadhan_slope(w, u, v)
                gap = abs(est.slope - expected)
                worst = max(worst, gap)
                checked += 1
                if est.estimated_distance != expected or gap >= 0.1:
                    report(5, "slope matches combinatorial distance", False,
                           f"pair ({i},{j}) slope {est.slope:.3f} "
                           f"vs {expected}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(5, "every block-pair slope rounds to the set distance", ok,
           f"{checked} pairs, worst gap {worst:.4f}, {elapsed:.1f} s")


def test_criterion_06_weighted_transforms_recover_graph_distances():
    a = cycle_adjacency(6)
    rng = np.random.default_rng(6)
    start = time.perf_counter()

    # walk distances of the unweighted cycle, diagonal 0
    from graphondist import block_distance_matrix
    walk = block_distance_matrix(support_graph(lift(a)))
    expected = walk.copy()
    np.fill_diagonal(expected, 0.0)

    raw = rng.uniform(0.5, 1.5, (6, 6))
    weights = a * (raw + raw.T) / 2
    diag = rng.uniform(-1.0, 1.0, 6)
    worst = 0.0
    for family in (EXPONENTIAL, RESOLVENT):
        for i in range(6):
            for j in range(6):
                est = general_varadhan_slope(a, weights, diag, family, i, j)
                worst = max(worst, abs(est.slope - expected[i, j]))
    slopes_ok = worst < 0.1

    pattern_ok = True
    for _ in range(100):
        raw = rng.uniform(0.1, 2.0, (6, 6))
        m = a * (raw + raw.T) / 2
        pm, pa = m.copy(), a.copy()
        for _ in range(6):
            if not np.array_equal(pm == 0.0, pa == 0.0):
                pattern_ok = False
            pm = pm @ m
            pa = pa @ a
    elapsed = time.perf_counter() - start
    ok = slopes_ok and pattern_ok and elapsed < 60.0
    report(6, "weighted analytic transforms recover shortest paths", ok,
           f"worst slope gap {worst:.4f}, zero patterns exact, "
           f"{elapsed:.1f} s")


def test_criterion_07_block_power_formula_matches_quadrature():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        cuts = np.sort(rng.choice(np.arange(1, 24), size=n - 1, replace=False))
        counts = np.diff(np.concatenate(([0], cuts, [24])))
        w = step(Partition(counts / 24), random_step_graphon(rng, n).blocks)
        g = to_grid(w, 24)
        for m in range(1, 5):
            lhs = to_grid(comp_power(w, m), 24).values
            rhs = comp_power(g, m).values
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(7, "block power formula equals iterated grid quadrature", ok,
           f"worst gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_08_communicability_metric_and_embedding():
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    w = bipartite_graphon()
    d12 = communicability_distance(w, interval(0, 0.5), interval(0.5, 1))
    exact_ok = abs(d12 - math.exp(-0.25)) <= 1e-10

    triangle_ok = True
    graphons = [random_step_graphon(rng, int(rng.integers(2, 6)))
                for _ in range(5)]
    for k in range(5000):
        g = graphons[k % 5]
        x = random_interval_set(rng)
        y = random_interval_set(rng)
        z = random_interval_set(rng)
        dxz = communicability_distance(g, x, z)
        dxy = communicability_distance(g, x, y)
        dyz = communicability_distance(g, y, z)
        if dxz > dxy + dyz + 1e-12:
            triangle_ok = False
            break

    identity_ok = True
    for k in range(300):
        g = graphons[k % 5]
        x = random_interval_set(rng)
        y = random_interval_set(rng)
        ex = communicability_embedding(g, x, g.size)
        ey = communicability_embedding(g, y, g.size)
        mu = g.partition.measures
        xm = x.block_masses(g.partition)
        ym = y.block_masses(g.partition)
        f2 = x.measure + y.measure - 2 * x.intersection_measure(y)
        orth2 = max(0.0, f2 - float(np.sum((xm - ym) ** 2 / mu)))
        lhs = float(np.sum((ex.coordinates - ey.coordinates) ** 2)) + orth2
        rhs = communicability_distance(g, x, y) ** 2
        if abs(lhs - rhs) > 1e-9:
            identity_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = exact_ok and triangle_ok and identity_ok and elapsed < 10.0
    report(8, "communicability metric and embedding identity", ok,
           f"d(I1,I2) off by {abs(d12 - math.exp(-0.25)):.1e}, "
           f"{elapsed:.1f} s")


def test_criterion_09_connectivity_characterizations_agree():
    from graphondist import is_connected

    rng = np.random.default_rng(9)
    start = time.perf_counter()
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = int(rng.integers(2, 13))
        w = random_step_graphon(rng, n, density=float(rng.uniform(0.1, 0.9)))
        a = is_connected(w)
        b = finitely_connected(support_graph(w))
        c = laplacian_zero_simple(w)
        seen[a] += 1
        if not (a == b == c):
            report(9, "connectivity characterizations agree", False,
                   f"support={a} reachability={b} spectral={c}")
    elapsed = time.perf_counter() - start
    ok = seen[True] > 0 and seen[False] > 0 and elapsed < 30.0
    report(9, "support, reachability and spectral tests agree", ok,
           f"200 graphons ({seen[True]} connected), {elapsed:.1f} s")


def test_criterion_10_sampling_agreement_trend():
    start = time.perf_counter()
    results = {}
    for name, w in (("bipartite", bipartite_graphon()),
                    ("circular_band", circular_band_graphon(1 / 7, 700))):
        at_1000 = []
        monotone_seeds = 0
        for seed in (0, 1, 2):
            rates = [compare_with_varadhan(w, n, trials=1, seed=seed)
                     ["mean_agreement_within_one"] for n in (100, 300, 1000)]
            at_1000.append(rates[-1])
            if rates[0] <= rates[1] <= rates[2]:
                monotone_seeds += 1
        results[name] = (min(at_1000), monotone_seeds)
    elapsed = time.perf_counter() - start
    ok = all(rate >= 0.95 and mono >= 2
             for rate, mono in results.values()) and elapsed < 60.0
    report(10, "sampled shortest paths track the limit within +1", ok,
           f"{results}, {elapsed:.1f} s")


def test_criterion_11_cut_norm_matches_brute_force():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        w = random_step_graphon(rng, n, density=float(rng.uniform(0.2, 0.9)))
        got = cut_norm(w)
        want = brute_force_cut_norm(w.blocks, w.partition.measures)
        worst = max(worst, abs(got - want))
    # a nonnegative kernel peaks on the full square; signed kernels (the
    # differences a cut distance measures) need both sign sums right
    for _ in range(50):
        n = int(rng.integers(1, 11))
        mu = random_partition(rng, n).measures
        raw = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.8)
        blocks = (raw + raw.T) / 2.0
        got = float(_cut_norms(mu[:, None] * blocks * mu[None, :]))
        worst = max(worst, abs(got - brute_force_cut_norm(blocks, mu)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    report(11, "enumerated cut norm equals the exhaustive maximum", ok,
           f"worst gap {worst:.2e}, {elapsed:.1f} s")
