"""String/distribution correspondence and edit-distance sandwiches."""

import itertools

import numpy as np
import pytest

from paritylab import _kernels
from paritylab._kernels import levenshtein
from paritylab.editdist import (
    BlockString,
    DensitySequence,
    dist_edit_bounds,
    dist_to_nblock,
    dist_to_uniform,
    psi,
    psi_inv,
    rel_edit_distance,
    str_of,
    string_edit_distance,
    tv_distance,
    uniform_density,
)
from paritylab.harness import domino_instance


def test_str_of_examples():
    assert str_of(DensitySequence(np.array([1.0]))).chars == ((1, 1.0),)
    fs = str_of(DensitySequence(np.array([0.5, 0.25, 0.25])))
    assert fs.chars == ((1, 0.5), (0, 0.25), (1, 0.25))
    fs = str_of(DensitySequence(np.array([0.0, 1.0])))
    assert fs.chars == ((1, 0.0), (0, 1.0))


def test_psi_inv_examples():
    d = psi_inv("0011")
    assert d.pi.tolist() == [0.0, 0.5, 0.5]
    u = psi_inv("1" * 4 + "0" * 4)  # 1-uniform 2-block string
    assert d.denominator == 4
    assert u.pi.tolist() == [0.5, 0.5]


def test_psi_roundtrip_exhaustive():
    for n in range(1, 13):
        for v in range(1 << n):
            bits = format(v, f"0{n}b")
            assert psi(psi_inv(bits), n).bits == bits


def test_psi_rejects_non_multiples():
    with pytest.raises(ValueError):
        psi(DensitySequence(np.array([1 / 3, 2 / 3])), 4)


def brute_edit(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev = dp[0]
        dp[0] = i
        for j in range(1, len(b) + 1):
            cur = dp[j]
            dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return dp[-1]


def test_string_edit_examples():
    assert string_edit_distance("", "01") == 2
    assert string_edit_distance("1100", "1010") == 2
    assert string_edit_distance("1100", "1100") == 0


def test_string_edit_random_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = "".join(rng.choice(["0", "1"], size=rng.integers(0, 16)))
        b = "".join(rng.choice(["0", "1"], size=rng.integers(0, 16)))
        assert string_edit_distance(a, b) == brute_edit(a, b)


def _arr(bits: str) -> np.ndarray:
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def _random_bits(rng, size: int, p_one: float = 0.5) -> str:
    return "".join("1" if u < p_one else "0" for u in rng.random(size))


def test_levenshtein_kernel_matches_row_dp_on_random_pairs():
    rng = np.random.default_rng(30)
    for _ in range(300):
        a = _random_bits(rng, rng.integers(0, 90), rng.random())
        b = _random_bits(rng, rng.integers(0, 90), rng.random())
        assert levenshtein(_arr(a), _arr(b)) == brute_edit(a, b), (a, b)


BOUNDARY_LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129)


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_levenshtein_kernel_word_and_byte_boundaries(n):
    rng = np.random.default_rng(31 + n)
    a = _random_bits(rng, n)
    for m in BOUNDARY_LENGTHS:
        b = _random_bits(rng, m)
        assert levenshtein(_arr(a), _arr(b)) == brute_edit(a, b), (n, m)
    # small distances: a few substitutions, then a shift by one (an insert and a delete)
    near = list(a)
    for i in rng.choice(n, size=min(n, 3), replace=False):
        near[i] = "1" if near[i] == "0" else "0"
    near = "".join(near)
    assert levenshtein(_arr(a), _arr(near)) == brute_edit(a, near)
    assert levenshtein(_arr(a), _arr(near[1:] + "0")) == brute_edit(a, near[1:] + "0")


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_levenshtein_kernel_empty_and_constant_strings(n):
    empty = _arr("")
    assert levenshtein(empty, empty) == 0
    assert levenshtein(_arr("1" * n), empty) == n
    assert levenshtein(empty, _arr("0" * n)) == n
    for m in (0, 1, 8, 64, 130):
        assert levenshtein(_arr("0" * n), _arr("0" * m)) == abs(n - m)
        assert levenshtein(_arr("1" * n), _arr("0" * m)) == max(n, m)


def test_levenshtein_kernel_symmetry_identity_and_length_bounds():
    rng = np.random.default_rng(32)
    for _ in range(200):
        a = _random_bits(rng, rng.integers(0, 200), rng.random())
        b = _random_bits(rng, rng.integers(0, 200), rng.random())
        d = levenshtein(_arr(a), _arr(b))
        assert d == levenshtein(_arr(b), _arr(a))
        assert levenshtein(_arr(a), _arr(a)) == 0
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


def _runs_of(bits: str):
    return tuple(x.tolist() for x in _kernels.bit_runs(_arr(bits)))


def test_run_edit_distance_matches_brute_force_on_all_short_pairs():
    # every pair of non-empty binary strings up to length 7; negating both
    # strings keeps the distance, so the first string starts with 0
    strings = ["".join(p) for n in range(1, 8) for p in itertools.product("01", repeat=n)]
    runs = {x: _runs_of(x) for x in strings}
    for x in strings:
        if x[0] == "0":
            for y in strings:
                assert _kernels._levenshtein_runs(*runs[x], *runs[y]) == brute_edit(x, y), (x, y)


def _block_bits(rng, max_runs: int, max_len: int) -> np.ndarray:
    runs = int(rng.integers(1, max_runs + 1))
    lengths = rng.multinomial(int(rng.integers(runs, max_len + 1)) - runs, np.full(runs, 1 / runs)) + 1
    return np.repeat((int(rng.integers(0, 2)) + np.arange(runs)) % 2, lengths).astype(np.uint8)


def test_run_edit_distance_matches_bit_parallel_on_long_runs():
    rng = np.random.default_rng(33)
    for _ in range(300):
        a, b = _block_bits(rng, 12, 500), _block_bits(rng, 12, 500)
        long, short = (a, b) if a.size >= b.size else (b, a)
        runs = (*_kernels.bit_runs(a), *_kernels.bit_runs(b))
        assert _kernels._levenshtein_runs(*(x.tolist() for x in runs)) \
            == _kernels._levenshtein_bits(long, short) == levenshtein(a, b)


def test_edit_bounds_at_16384_take_the_run_path_and_match_bit_parallel(monkeypatch):
    calls = []
    run_path = _kernels._levenshtein_runs
    monkeypatch.setattr(_kernels, "_levenshtein_runs", lambda *runs: calls.append(1) or run_path(*runs))
    rng = np.random.default_rng(34)
    n = 16384
    for k1, k2 in ((28, 22), (5, 31)):
        c1 = rng.multinomial(n, np.full(k1, 1 / k1))
        c2 = rng.multinomial(n, np.full(k2, 1 / k2))
        a, b = DensitySequence.from_counts(c1, n), DensitySequence.from_counts(c2, n)
        lower, upper = dist_edit_bounds(a, b, n)
        d = _kernels._levenshtein_bits(_arr(psi(a, n).bits), _arr(psi(b, n).bits))
        assert lower * 2 * n == d and upper == min(d / n, tv_distance(a, b))
    assert len(calls) == 2
    # random strings have runs of about two characters: the bit-parallel path
    x = (rng.random(4096) < 0.5).astype(np.uint8)
    levenshtein(x, x[::-1].copy())
    assert len(calls) == 2


def test_edit_distances_reject_non_binary_strings():
    with pytest.raises(ValueError):
        string_edit_distance("0120", "01")
    with pytest.raises(ValueError):
        rel_edit_distance("01", "0120")
    with pytest.raises(ValueError):
        dist_to_nblock("01 2", 2)


def test_string_edit_metric_properties():
    rng = np.random.default_rng(1)
    strs = ["".join(rng.choice(["0", "1"], size=rng.integers(0, 32))) for _ in range(30)]
    for _ in range(500):
        x, y, z = rng.choice(strs, size=3)
        dxy = string_edit_distance(x, y)
        assert dxy == string_edit_distance(y, x)
        assert dxy <= string_edit_distance(x, z) + string_edit_distance(z, y)
        assert (dxy == 0) == (x == y)


def test_rel_edit_range_and_examples():
    assert rel_edit_distance("1100", "1010") == pytest.approx(0.5)
    assert rel_edit_distance("1111", "") == pytest.approx(2.0)
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = "".join(rng.choice(["0", "1"], size=rng.integers(0, 24)))
        b = "".join(rng.choice(["0", "1"], size=rng.integers(0, 24)))
        if not a and not b:
            continue
        assert 0.0 <= rel_edit_distance(a, b) <= 2.0


def test_tv_examples():
    a = DensitySequence(np.array([0.5, 0.5]))
    b = DensitySequence(np.array([0.75, 0.25]))
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.25)
    c = DensitySequence(np.array([0.0, 0.0, 1.0]))
    d = DensitySequence(np.array([1.0]))
    assert tv_distance(c, d) == 1.0


def test_edit_bounds_sandwich_random_rational_pairs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_chars = int(rng.integers(2, 65))
        k1 = int(rng.integers(1, 7))
        k2 = int(rng.integers(1, 7))
        c1 = rng.multinomial(n_chars, np.full(k1, 1 / k1))
        c2 = rng.multinomial(n_chars, np.full(k2, 1 / k2))
        a = DensitySequence.from_counts(c1, n_chars)
        b = DensitySequence.from_counts(c2, n_chars)
        lower, upper = dist_edit_bounds(a, b, n_chars)
        assert lower <= upper + 1e-12
        assert lower <= tv_distance(a, b) + 1e-12


def test_edit_bounds_identical_and_shifted_uniform():
    u = uniform_density(4)
    assert dist_edit_bounds(u, u, 4) == (0.0, 0.0)
    # uniform on {1..n} vs uniform on {n+1..2n}, n even: the block strings
    # coincide, so the sandwich collapses to lower = 0
    n = 4
    shifted = DensitySequence.from_counts([0] * n + [1] * n, n)
    lower, _ = dist_edit_bounds(uniform_density(n), shifted, n)
    assert lower == 0.0
    assert tv_distance(uniform_density(n), shifted) == 1.0


def test_dist_to_uniform_values():
    assert dist_to_uniform(uniform_density(6), 6) == 0.0
    point = DensitySequence(np.array([1.0]))
    assert dist_to_uniform(point, 8) == pytest.approx(1 - 1 / 8)
    # paired-bias construction: TV to uniform is exactly eps/4
    inst = domino_instance(8, 0.5, False, 7)
    dens = DensitySequence(inst.pair.interleaved())
    assert dist_to_uniform(dens, 16) == pytest.approx(0.5 / 4)


def test_dist_to_uniform_edit_bounds_mode():
    inst = domino_instance(4, 0.5, False, 9)
    dens = DensitySequence(inst.pair.interleaved())
    out = dist_to_uniform(dens, 8, metric="edit_bounds", n_chars=64)
    assert out["lower"] <= out["upper"] <= out["tv"] + 1e-12
    assert out["diagnostic_ratio"] == pytest.approx(out["lower"] / out["tv"])


def all_nblock_strings(n_chars, max_blocks):
    for first in "01":
        for cuts in range(max_blocks):
            for pos in itertools.combinations(range(1, n_chars), cuts):
                s = []
                sym = first
                prev = 0
                for p in list(pos) + [n_chars]:
                    s.append(sym * (p - prev))
                    sym = "1" if sym == "0" else "0"
                    prev = p
                yield "".join(s)


def test_dist_to_nblock_examples_and_brute_force():
    assert dist_to_nblock("110011", 2) == pytest.approx(1 / 3)  # flip the 00
    assert dist_to_nblock("0101", 1) == pytest.approx(0.5)
    for n_chars in range(1, 11):
        for v in range(1 << n_chars):
            bits = format(v, f"0{n_chars}b")
            for nb in (1, 2, 3):
                brute = min(
                    rel_edit_distance(bits, y)
                    for y in set(all_nblock_strings(n_chars, nb))
                )
                assert dist_to_nblock(bits, nb) == pytest.approx(brute), (bits, nb)


def test_dist_to_nblock_already_satisfied():
    assert dist_to_nblock("111000", 2) == 0.0
    assert dist_to_nblock("", 3) == 0.0


def test_block_string_helpers():
    b = BlockString("110010")
    assert b.n_blocks == 4
    assert len(b) == 6


@pytest.mark.parametrize("pi", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [1.5, -0.5], []],
                         ids=["nan", "inf", "-inf", "negative", "empty"])
def test_density_sequence_checks_its_masses_before_their_sum(pi):
    # [nan, 1] constructed, and its tv_distance to any sequence was nan
    with pytest.raises(ValueError, match="densities must be"):
        DensitySequence(np.array(pi))
