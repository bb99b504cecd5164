"""Join matrices, eigenvalue bounds, and the bucket-count tester."""

import math
import tracemalloc

import numpy as np
import pytest

from paritylab import _kernels
from paritylab.collector import (
    _BLOCK_CELLS,
    BaseGraph,
    CCTesterConfig,
    _arc_ends,
    _blocks,
    _confused_draw,
    _join_product,
    _join_sum,
    _subgraph_ends,
    _subgraph_labels,
    confused_trials,
    min_eigenvalue,
    phi_empirical,
    phi_expected,
    phi_from_keep_probs,
    sample_confused,
    zeta_bound,
)
from paritylab.collector import test_uniformity_cc as cc_verdict  # noqa: E402
from paritylab.oracles import expected_y  # noqa: E402
from paritylab.parity import phi_mu  # noqa: E402
from paritylab.rng import generator  # noqa: E402



def test_phi_identity_at_full_resolution():
    for kind in ("path", "cycle"):
        assert np.allclose(phi_expected(BaseGraph(kind, 6), 1.0), np.eye(6))


def test_phi_path_example():
    expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.allclose(phi_expected(BaseGraph("path", 3), 0.5), expect)


def test_phi_cycle_example():
    phi = phi_expected(BaseGraph("cycle", 4), 0.5)
    assert phi[0, 2] == pytest.approx(0.25 + 0.25 - 0.0625)


def test_phi_all_ones_at_zero_eta():
    # eta -> 0 on the cycle joins everything; use the general-weights form
    phi = phi_from_keep_probs(np.ones(5), "cycle")
    assert np.allclose(phi, np.ones((5, 5)))


def test_phi_empirical_matches_expected():
    g = BaseGraph("cycle", 16)
    trials = 20000
    emp = phi_empirical(g, 0.3, trials, seed=3)
    exact = phi_expected(g, 0.3)
    sigma = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(emp - exact) <= 4 * sigma + 1e-12)


def test_phi_empirical_memory_is_bounded():
    # chunks are sized in compared label pairs, not in trials
    tracemalloc.start()
    try:
        phi_empirical(BaseGraph("cycle", 128), 0.3, 4096, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_confused_trials_memory_is_bounded_by_the_chunk():
    # chunks hold about _CHUNK_CELLS cells; one chunk of 20000 trials at n=256 held 162 MiB
    g = BaseGraph("cycle", 256)
    p = np.full(256, 1 / 256)
    # first-call allocations stay untraced, and so does the filling of CPython's
    # tuple free list: numpy's Poisson draws with an array rate, one per block,
    # take about 2000 two-tuples from it, about 100 KB, before it stays full.
    # Filled within the traced calls it read as 8% growth from 2000 to 20000
    # trials, on a chunk overhead of under 400 KB
    confused_trials(p, 512.0, g, 0.5, 80000, seed=1)
    extra = []
    for trials in (2000, 20000):
        tracemalloc.start()
        try:
            confused_trials(p, 512.0, g, 0.5, trials, seed=1)
            # the peak beyond the two float64 arrays returned
            extra.append(tracemalloc.get_traced_memory()[1] - 16 * trials)
        finally:
            tracemalloc.stop()
    assert extra[1] <= extra[0] * 1.05 and extra[1] < 8 * 2**20


def test_mass_vector_must_match_the_graph():
    # a length-1 vector used to broadcast over every vertex of the graph
    g = BaseGraph("cycle", 64)
    with pytest.raises(ValueError, match="sizes differ"):
        confused_trials(np.array([0.5]), 200.0, g, 0.5, 10, seed=1)
    with pytest.raises(ValueError, match="sizes differ"):
        sample_confused(np.array([0.5]), 200.0, g, 0.5, seed=1)
    with pytest.raises(ValueError, match="sizes differ"):  # a 0-d array fits no graph
        sample_confused(0.5, 200.0, g, 0.5, seed=1)
    with pytest.raises(ValueError, match="sizes differ"):  # one row per draw
        _confused_draw(generator(1), g, 0.5, 200.0,
                       lambda rows: np.full((rows, 65), 1 / 65), 2)


@pytest.mark.parametrize("name,value,message", [
    ("m", 0, "m must be finite and positive"),
    ("m", True, "m must be finite and positive"),
    ("m", math.nan, "m must be finite and positive"),
    ("trials", 2.5, "trials must be an integer"),
    ("trials", True, "trials must be an integer"),
    ("trials", 0, "trials must be an integer"),
    ("p", np.r_[math.nan, np.full(63, 1 / 63)], "p must be finite"),
    ("p", np.full((2, 64), 1 / 64), "p must be a non-empty vector"),
])
def test_confused_trials_checks_its_inputs(name, value, message):
    # m = 0 gave all-NaN Y, m = True ran at 1, a trials of 2.5 or True died in
    # numpy, and a NaN mass raised numpy's "lam value too large"
    args = {"p": np.full(64, 1 / 64), "m": 200.0, "graph": BaseGraph("cycle", 64),
            "eta": 0.5, "trials": 4, "seed": 1, name: value}
    with pytest.raises(ValueError, match=message):
        confused_trials(**args)


@pytest.mark.parametrize("n", [2, 3, 64, 1023, 1024, 1075, 4096, 65536])
def test_path_join_sum_is_the_sum_over_powers(n):
    # nu**d is subnormal from about d = 1022 at nu = 0.5 and from d = 2 at 1e-160,
    # and 0 once it underflows; the kept value is the one the expression gives
    d = np.arange(1, n)
    for nu in (0.0, 1e-300, 1e-160, 0.1, 0.5, 0.5**0.5, 0.9, 0.999, 1.0):
        expected = float(n + 2 * np.sum((n - d) * nu**d))
        for _ in range(2):  # computed, then kept
            assert _join_sum(n, nu, False).hex() == expected.hex(), nu


def test_phi_row_sum_closed_form():
    for kind in ("path", "cycle"):
        for n in (2, 5, 16):
            for eta in (0.05, 0.4, 1.0):
                g = BaseGraph(kind, n)
                assert _join_sum(n, 1.0 - eta, g.is_cycle) == pytest.approx(
                    phi_expected(g, eta).sum(), rel=1e-9
                )


def test_min_eigenvalue_basics():
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_min_eigenvalue_bounds_spot():
    phi = phi_expected(BaseGraph("path", 256), 0.1)
    assert min_eigenvalue(phi) > 0.05
    phi = phi_expected(BaseGraph("cycle", 1024), 0.25)
    assert min_eigenvalue(phi) > 0.0625


def test_phi_positive_semidefinite_grid():
    for kind in ("path", "cycle"):
        for n in (8, 32, 64):
            for eta in (0.05, 0.3, 0.7, 1.0):
                lam = min_eigenvalue(phi_expected(BaseGraph(kind, n), eta))
                assert lam > -1e-10


def test_zeta_bound_values():
    assert zeta_bound(BaseGraph("path", 20), eta=0.5) == 0.0
    assert zeta_bound(BaseGraph("cycle", 20), eta=0.5) == pytest.approx(0.5**10)
    assert zeta_bound(BaseGraph("cycle", 20), m=16.0, q_mass=0.5) == pytest.approx(
        np.exp(-4.0)
    )


@pytest.mark.parametrize("kwargs", [
    {"eta": 1.5},  # raised TypeError: the power was complex
    {"eta": float("nan")},  # returned nan
    {"eta": 0.0},
    {"m": -5.0, "q_mass": 0.5},  # returned 3.49
    {"m": 16.0, "q_mass": float("nan")},
    {"m": 16.0, "q_mass": 0.0},
])
def test_zeta_bound_rejects_bad_inputs(kwargs):
    for kind in ("path", "cycle"):
        with pytest.raises(ValueError):
            zeta_bound(BaseGraph(kind, 3), **kwargs)


def arc_products(keep: np.ndarray, kind: str) -> np.ndarray:
    """Join matrix by direct products of keep probabilities along the arcs."""
    n = keep.size + (kind == "path")
    expect = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            near = np.prod(keep[i:j])
            if kind == "cycle":  # either arc joins; both means every edge
                near += np.prod(keep[j:]) * np.prod(keep[:i]) - np.prod(keep)
            expect[i, j] = expect[j, i] = near
    return expect


def test_phi_from_keep_probs_matches_arc_products():
    # keeps exactly 0 and 1, subnormal (1e-320) and underflowed (exp(-800) is 0.0);
    # the log-sum builder was 5.5e-12 off at n=300 with 30% zero keeps
    rng = np.random.default_rng(9)
    cases = []
    for kind in ("path", "cycle"):
        for n in (2, 3, 7, 12):
            edges = n if kind == "cycle" else n - 1
            for trial in range(20):
                keep = rng.random(edges)
                if trial % 2:
                    keep = rng.choice([1.0, 1e-320, np.exp(-800), 0.5, keep[0]], edges)
                keep[rng.random(edges) < 0.25] = 0.0
                cases.append((keep, kind))
    keep = rng.random(300)
    keep[rng.random(300) < 0.3] = 0.0
    cases += [(keep, "path"), (keep, "cycle")]
    for keep, kind in cases:
        expect = arc_products(keep, kind)
        phi = phi_from_keep_probs(keep, kind)
        np.testing.assert_allclose(phi, expect, rtol=0, atol=1e-14, err_msg=f"{kind} {keep}")
        assert np.array_equal(phi == 0, expect == 0)  # a zero edge joins nothing


def mirrored_by_full_transpose(keep: np.ndarray, kind: str) -> np.ndarray:
    """`phi_from_keep_probs` as it was, symmetrized by phi += phi.T in one step."""
    cycle = kind == "cycle"
    n = keep.size + (not cycle)
    pre, suf = _arc_ends(keep)
    phi = np.zeros((n, n))
    for i in range(n - 1):
        row = phi[i, i + 1:]
        np.multiply.accumulate(keep[i : n - 1], out=row)
        if cycle:
            row += pre[i] * suf[i + 1:] * (1.0 - row)
    phi += phi.T
    np.fill_diagonal(phi, 1.0)
    return phi


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_phi_mirror_in_blocks_matches_the_full_transpose(n, kind):
    # n edges: n vertices on the cycle, n + 1 on the path; blocks of 64 rows
    keep = np.random.default_rng(n).random(n)
    keep[::7] = 0.0
    assert np.array_equal(phi_from_keep_probs(keep, kind), mirrored_by_full_transpose(keep, kind))


@pytest.mark.parametrize("keep, kind", [
    ([0.5, 2.0], "path"),  # gave phi[0, 2] = 1.0 beside phi[0, 1] = 0.5
    ([0.5, np.nan, 0.5], "cycle"),
    ([0.5, np.inf], "path"),
    ([-0.5, 0.5, 0.5], "cycle"),
    ([[0.5, 0.5], [0.5, 0.5]], "cycle"),  # was flattened
    ([], "cycle"),  # gave a (0, 0) matrix
    ([], "path"),
])
def test_phi_from_keep_probs_rejects_bad_keeps(keep, kind):
    with pytest.raises(ValueError, match="keep probabilities"):
        phi_from_keep_probs(keep, kind)


def test_constant_keep_matrices_match_arc_products():
    # phi_expected and phi_mu are the one builder at a constant keep
    for n in (2, 3, 7, 12):
        for kind in ("path", "cycle"):
            edges = n if kind == "cycle" else n - 1
            for eta in (0.1, 0.5, 1.0):
                assert np.allclose(phi_expected(BaseGraph(kind, n), eta),
                                   arc_products(np.full(edges, 1.0 - eta), kind),
                                   rtol=0, atol=1e-12)
        for m in (0.5, 10.0, 300.0):
            keep = np.full(n, np.exp(-m / (2 * n)))
            assert np.allclose(phi_mu(n, m), arc_products(keep, "cycle"), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 600])
def test_cycle_join_product_matches_the_matrix(n):
    # keeps exactly 0, exactly 1 and underflowed: exp(-800) is 0.0 and 1e-320 subnormal
    rng = np.random.default_rng([17, n])
    for case in ("random", "zeros", "ones", "underflow", "mixed"):
        keep = rng.random(n)
        if case == "zeros":
            keep[rng.random(n) < 0.3] = 0.0
        elif case == "ones":
            keep[:] = 1.0
        elif case == "underflow":
            keep = np.exp(-rng.uniform(0, 800, n))
        elif case == "mixed":
            keep = rng.choice([0.0, 1.0, 1e-320, 0.5, 1 - 1e-16], n)
        v = rng.standard_normal(n)
        scale = np.abs(v).sum()
        got = _join_product(keep, v, "cycle")
        np.testing.assert_allclose(got, phi_from_keep_probs(keep, "cycle") @ v,
                                   rtol=0, atol=1e-14 * scale, err_msg=case)
        if n <= 17:
            np.testing.assert_allclose(got, arc_products(keep, "cycle") @ v,
                                       rtol=0, atol=1e-14 * scale, err_msg=case)
        if case == "ones":  # every pair joins
            np.testing.assert_allclose(got, v.sum(), rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("n", [2, 3, 5, 64, 257])
def test_join_product_on_the_path_is_the_cycle_whose_wrap_edge_keeps_0(n):
    # n vertices and n-1 keeps: exactly 0, exactly 1, subnormal and mixed
    rng = np.random.default_rng([19, n])
    for case in ("random", "zeros", "ones", "subnormal", "mixed"):
        keep = rng.random(n - 1)
        if case == "zeros":
            keep[rng.random(n - 1) < 0.3] = 0.0
        elif case == "ones":
            keep[:] = 1.0
        elif case == "subnormal":
            keep = rng.choice([5e-324, 1e-320, 1e-310], n - 1)
        elif case == "mixed":
            keep = rng.choice([0.0, 1.0, 1e-320, 0.5, 1 - 1e-16], n - 1)
        phi = phi_from_keep_probs(keep, "path")
        assert np.array_equal(phi, phi_from_keep_probs(np.append(keep, 0.0), "cycle")), case
        v = rng.standard_normal(n)
        # both sides round: 2 ulps of sum|v| holds the 2.1e-16 seen over 100 seeds per case
        np.testing.assert_allclose(_join_product(keep, v, "path"), phi @ v, rtol=0,
                                   atol=2 * np.finfo(np.float64).eps * np.abs(v).sum(),
                                   err_msg=case)


def test_sample_confused_extremes():
    p = np.full(8, 1.0 / 8)
    g = BaseGraph("cycle", 8)
    # the sampler draws the subgraph, then the counts, from one generator
    rng = generator(0)
    rng.random(g.n_edges)
    drawn = int(rng.poisson(5.0 * p).sum())
    labels, x = sample_confused(p, 5.0, g, eta=1.0, seed=0)
    assert np.unique(labels).size == 8  # all singletons
    assert x.size == 8 and int(x.sum()) == drawn
    labels, x = sample_confused(p, 5.0, g, eta=1e-12, seed=0)
    assert np.unique(labels).size == 1  # everything joins
    assert x.size == 1 and int(x.sum()) == drawn


def test_expected_y_identities():
    g = BaseGraph("cycle", 8)
    phi = phi_expected(g, 0.5)
    assert expected_y(np.zeros(8), phi, 10.0) == 0.0
    p = np.full(8, 1.0 / 8)
    assert expected_y(p, np.eye(8), 7.0) == pytest.approx(7.0 / 8)


def test_monte_carlo_mean_matches_quadratic_form():
    rng = np.random.default_rng(5)
    g = BaseGraph("cycle", 64)
    p = rng.random(64)
    p /= p.sum()
    trials = 30000
    ys, _ = confused_trials(p, 200.0, g, 0.3, trials, seed=8)
    exact = expected_y(p, phi_expected(g, 0.3), 200.0)
    se = ys.std(ddof=1) / np.sqrt(trials)
    assert abs(ys.mean() - exact) <= 3.5 * se


def moments_from_labels(labels, values):
    """(top, pairs) of each row from `bucket_labels` and `np.bincount`."""
    x = [np.bincount(row, weights=v) for row, v in zip(labels, values)]
    return (np.array([xi.max() for xi in x]), np.array([(xi * (xi - 1)).sum() for xi in x]))


B = _BLOCK_CELLS
REDUCER_CASES = [  # (graph, n, rows, keep): a float keeps every edge at random
    ("cycle", 64, 3, "all"),  # one bucket
    ("cycle", 64, 3, "none"),
    ("path", 64, 3, "none"),
    ("cycle", 64, 3, "wrap only"),
    ("cycle", 64, 3, "all but wrap"),
    ("path", 64, 40, 0.5),
    ("path", 64, 3, "all"),
    ("cycle", 2, 9, 0.5),
    ("path", 2, 9, 0.5),
    ("cycle", B - 1, 3, 0.5),
    ("cycle", B, 3, 0.9),
    ("path", B + 1, 3, 0.5),
    ("cycle", B + 1, 3, 0.99),
    ("cycle", 3 * B + 5, 2, 0.999),
    ("path", 3 * B + 5, 2, 0.5),
    ("cycle", 3000, 7, 0.5),  # whole rows per block, rows straddling fixed-size blocks
    ("cycle", 5, 4000, 0.6),
]


@pytest.mark.parametrize("kind,n,rows,keep", REDUCER_CASES)
def test_bucket_moments_match_labels_and_bincount(kind, n, rows, keep):
    g = BaseGraph(kind, n)
    if isinstance(keep, float):
        keeps = np.full(g.n_edges, keep)
    else:  # 0/1 keeps fix the mask: u < 1 always, u < 0 never
        keeps = np.full(g.n_edges, float(keep in ("all", "all but wrap")))
        keeps[-1] = {"all": 1.0, "none": 0.0, "wrap only": 1.0, "all but wrap": 0.0}[keep]
    broken = generator(n).random((rows, g.n_edges)) >= keeps
    labels = _kernels.bucket_labels(~broken, n, g.is_cycle)
    ends = np.ones((rows, n), dtype=np.bool_)
    ends[:, : g.n_edges] = broken
    joined = ~broken[:, -1] if g.is_cycle else np.zeros(rows, dtype=np.bool_)
    ends[:, -1] = True
    if isinstance(keep, float):  # the draw reads the same uniforms
        drawn = _subgraph_ends(generator(n), keep, g, rows)
        assert np.array_equal(drawn[0], ends) and np.array_equal(drawn[1], joined)
    values = generator(n + 1).poisson(3.0, size=(rows, n))
    expected = moments_from_labels(labels, values)
    splits = {"production": [values[index].copy() for index, _ in _blocks(rows, n)],
              "one block": [values.flatten()],
              "straddling": np.array_split(values.flatten(), range(B - 7, rows * n, B - 7)),
              "small": np.array_split(values.flatten(), range(37, rows * n, 37))}
    for name, blocks in splits.items():
        top, pairs = _kernels.bucket_moments(ends, joined, blocks)
        assert np.array_equal(top, expected[0]) and np.array_equal(pairs, expected[1]), name


def test_bucket_moments_join_an_arc_across_vertex_0():
    # an interval_far arc over vertices n-4 .. 3: its heavy counts fall in the first
    # and the last run of each row, which one bucket holds when the wrap edge survives
    n, rows = 3 * B + 5, 4
    g = BaseGraph("cycle", n)
    rates = np.full(n, 0.1)
    rates[np.arange(-4, 4)] = 40.0
    keeps = np.full(n, 0.9)
    labels = _subgraph_labels(generator(5), keeps, n, True, rows)
    ends, joined = _subgraph_ends(generator(5), 0.9, g, rows)
    assert joined.any()
    values = generator(6).poisson(rates, size=(rows, n))
    top, pairs = _kernels.bucket_moments(ends, joined, [values[i].copy() for i, _ in _blocks(rows, n)])
    expected = moments_from_labels(labels, values)
    assert np.array_equal(top, expected[0]) and np.array_equal(pairs, expected[1])
    assert (top[joined] > values[joined][:, :4].sum(axis=1)).all()  # the arc joined


def test_bucket_sizes_rarely_large():
    # buckets exceed 2*K*log(n)/eta with probability < 1/n^K at K=2
    n, eta, K = 64, 0.5, 2
    cap = 2 * K * np.log(n) / eta
    trials = 20000
    # the max bucket sum of the all-ones vector is the max bucket size
    from paritylab import _kernels
    from paritylab.rng import generator

    gen = generator(13)
    labels = _kernels.bucket_labels(gen.random((trials, n)) < (1 - eta), n, True)
    sizes = _kernels.bucket_sums(np.ones((trials, n)), labels)
    frac = np.mean(sizes.max(axis=1) > cap)
    assert frac < 1.0 / n**K + 3e-4


def test_tester_step_examples():
    n = 64
    cfg = CCTesterConfig(epsilon=0.5, eta=0.5, alpha=20.0, beta=0.25)
    m = 30.0
    big = np.zeros(n)
    big[0] = cfg.alpha * np.log(n) + 1
    v = cc_verdict(big, cfg, n, m)
    assert not v.accept and v.fired_step == "concentration"

    zero_one = np.ones(n)  # no collisions at all
    v = cc_verdict(zero_one, cfg, n, m)
    assert v.fired_step in ("none",)
    assert v.accept

    v_json = v.to_json()
    assert '"accept": true' in v_json


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_tester_rejects_non_finite_and_negative_counts(bad):
    # a NaN or a negative count used to pass both steps and accept
    n = 256
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    x = np.ones(n)
    x[3] = bad
    with pytest.raises(ValueError):
        cc_verdict(x, cfg, n, cfg.sample_size(n), BaseGraph("cycle", n))


@pytest.mark.parametrize("m", [np.nan, np.inf, -np.inf, 0.0, -5.0])
def test_tester_rejects_m_that_is_not_finite_and_positive(m):
    # on these counts m = nan, +inf and 0 (0/0 in Y) used to accept, and -inf and -5
    # to reject by collision
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    with pytest.raises(ValueError, match="m must be finite and positive"):
        cc_verdict(np.ones(64), cfg, 64, m, override_range_check=True)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0, True])
@pytest.mark.parametrize("field", ["alpha", "beta", "L", "c"])
def test_config_constants_must_be_finite_and_positive(field, value):
    # beta=nan accepted 50 of 50 interval-far trials, c=-1 ran at m=1, and c=True at 1.0
    with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
        CCTesterConfig(epsilon=0.3, eta=0.5, **{field: value})


@pytest.mark.parametrize("eta", [True, "0.5", None])
def test_config_eta_must_be_a_real_in_unit_interval(eta):
    # eta=True ran at 1.0, and "0.5" and None raised TypeError in the comparison
    with pytest.raises(ValueError, match=r"eta must lie in \(0,1\]"):
        CCTesterConfig(epsilon=0.3, eta=eta)


def test_tester_rejects_a_graph_of_another_size():
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    with pytest.raises(ValueError, match="sizes differ"):
        cc_verdict(np.ones(64), cfg, 64, 100.0, BaseGraph("cycle", 32), override_range_check=True)


def test_tester_requires_range_check():
    cfg = CCTesterConfig(epsilon=0.05, eta=0.02, L=0.5)
    with pytest.raises(ValueError):
        cc_verdict(np.ones(64), cfg, 64, 10.0)
    v = cc_verdict(np.ones(64), cfg, 64, 10.0, override_range_check=True)
    assert v.accept
