"""Hypothesis properties for the string machinery, the join matrix and input validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritylab.collector import BaseGraph, CCTesterConfig, _cycle_join_product, phi_from_keep_probs
from paritylab.collector import test_uniformity_cc as cc_verdict
from paritylab.core import PartialDistribution, circular_runs
from paritylab.deletion import TraceTestSpec, learn_k_alternating
from paritylab.deletion import test_n_block as nblock_verdict
from paritylab.deletion import test_uniform_n_block as ublock_verdict
from paritylab.editdist import (
    BlockString,
    dist_to_nblock,
    psi,
    psi_inv,
    rel_edit_distance,
    string_edit_distance,
)
from paritylab.parity import test_uniformity_pt_small as pt_small
from paritylab.verdict import Verdict

bitstrings = st.text(alphabet="01", min_size=0, max_size=64)
non_binary = st.tuples(
    bitstrings, st.characters().filter(lambda ch: ch not in "01"), bitstrings
).map("".join)


@given(bitstrings)
@settings(max_examples=300, deadline=None)
def test_circular_runs_rotation_invariant(bits):
    # the necklace decomposition ignores where the string was cut
    r0 = circular_runs(bits)
    for shift in (1, len(bits) // 2):
        rot = bits[shift:] + bits[:shift]
        r = circular_runs(rot)
        assert sorted(r.one_runs) == sorted(r0.one_runs)
        assert sorted(r.zero_runs) == sorted(r0.zero_runs)


@given(non_binary)
@settings(max_examples=300, deadline=None)
def test_non_binary_traces_rejected_everywhere(text):
    # every string entry point parses through core.parse_bits
    with pytest.raises(ValueError):
        circular_runs(text)
    with pytest.raises(ValueError):
        pt_small(text, 2, 0.3)
    with pytest.raises(ValueError):
        BlockString(text).runs()
    with pytest.raises(ValueError):
        string_edit_distance(text, "01")
    with pytest.raises(ValueError):
        dist_to_nblock(text, 2)
    for prop, tester in (("n_block", nblock_verdict), ("uniform_n_block", ublock_verdict),
                         ("uniform_n_block_promised", ublock_verdict)):
        spec = TraceTestSpec(n_chars=64, n_blocks=4, epsilon=0.3, rho=0.5,
                             property_name=prop)
        with pytest.raises(ValueError):
            tester(text, spec)


malformed_vectors = st.tuples(
    st.lists(st.floats(0.0, 0.01), min_size=1, max_size=64),
    st.integers(0, 63),
    st.one_of(st.just(math.nan), st.just(math.inf), st.just(-math.inf),
              st.floats(max_value=-1e-300, allow_infinity=False)),
)


@given(malformed_vectors)
@settings(max_examples=200, deadline=None)
def test_non_finite_or_negative_vectors_rejected(case):
    values, at, bad = case
    x = np.asarray(values)
    x[at % x.size] = bad
    with pytest.raises(ValueError):
        PartialDistribution(x)
    n = 256
    cfg = CCTesterConfig(epsilon=0.3, eta=0.5)
    counts = np.zeros(n)
    counts[: x.size] = x
    with pytest.raises(ValueError):
        cc_verdict(counts, cfg, n, cfg.sample_size(n), BaseGraph("cycle", n))


keep_vectors = st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1e-320]), st.floats(0.0, 1.0)),
                        min_size=1, max_size=40)


@given(keep_vectors, st.sampled_from(["path", "cycle"]), st.integers(0, 2**32 - 1))
# near + far - near * far gives phi[4, 5] = 1 + 2^-52 here
@example([0.6706382816480523, 0.9999999999991493, 0.9999999999991952, 0.9999999999997486,
          1.0, 0.9999999999992083], "cycle", 0)
@settings(max_examples=300, deadline=None)
def test_join_matrix_is_a_symmetric_matrix_of_probabilities(keeps, kind, seed):
    keep = np.array(keeps)
    phi = phi_from_keep_probs(keep, kind)
    assert phi.shape == (keep.size + (kind == "path"),) * 2
    assert np.array_equal(phi, phi.T) and np.all(np.diag(phi) == 1.0)
    assert np.all((phi >= 0) & (phi <= 1))
    if kind == "cycle":
        v = np.random.default_rng(seed).standard_normal(keep.size)
        np.testing.assert_allclose(_cycle_join_product(keep, v), phi @ v,
                                   rtol=0, atol=1e-14 * np.abs(v).sum())


@given(bitstrings.filter(len), st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_psi_roundtrip(bits, _):
    assert psi(psi_inv(bits), len(bits)).bits == bits


@given(st.lists(st.integers(0, 1), max_size=200), st.integers(0, 8),
       st.floats(0.25, 4.0))
@settings(max_examples=300, deadline=None)
def test_learner_fit_is_optimal_and_consistent(bits, k, step):
    # the learner's error is the exact block distance, and its labeling
    # realizes that error with at most k strictly increasing cuts
    m = len(bits)
    positions = np.arange(m) * step
    model = learn_k_alternating(list(zip(positions, bits)), k)
    cuts = model.cut_after
    assert cuts.size <= k and np.all(np.diff(cuts) > 0)
    if m:
        text = "".join(map(str, bits))
        assert model.error == round(dist_to_nblock(text, k + 1) * m)
    assert int(np.sum(model.predict(positions) != np.asarray(bits, dtype=int))) == model.error


@given(bitstrings, bitstrings, bitstrings)
@settings(max_examples=200, deadline=None)
def test_edit_distance_is_a_metric(a, b, c):
    dab = string_edit_distance(a, b)
    assert dab == string_edit_distance(b, a)
    assert (dab == 0) == (a == b)
    assert dab <= string_edit_distance(a, c) + string_edit_distance(c, b)
    assert dab <= max(len(a), len(b))
    if a or b:
        assert 0.0 <= rel_edit_distance(a, b) <= 2.0


@given(st.booleans(), st.sampled_from(["none", "bias", "collision"]))
@settings(max_examples=50, deadline=None)
def test_verdict_consistency_invariant(accept, step):
    valid = accept == (step == "none")
    if valid:
        v = Verdict(accept, step)
        assert v.to_json()
    else:
        try:
            Verdict(accept, step)
        except ValueError:
            pass
        else:
            raise AssertionError("inconsistent verdict was accepted")


def _no_constants(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_verdict_json_is_strict():
    stats = {"x": float("nan"), "hi": math.inf, "lo": -math.inf,
             "np": np.float64("nan"), "ok": np.float64(1.5), "k": np.int64(3)}
    v = Verdict(True, "none", stats, {"beta": float("inf"), "branch": "large_eps"})
    obj = json.loads(v.to_json(), parse_constant=_no_constants)
    assert obj["statistics"] == {"x": None, "hi": None, "lo": None,
                                 "np": None, "ok": 1.5, "k": 3}
    assert obj["params"] == {"beta": None, "branch": "large_eps"}


def test_benchmark_smoke(capsys):
    from paritylab import benchmarks

    benchmarks.run(repeats=1)
    out = capsys.readouterr().out
    assert "kernel" in out and "bucket_labels" in out
    assert "N=16384 k=63" in out  # rows name their shapes
    assert "interval_scan" in out and "n=512" in out
    # levenshtein: the bit-parallel path on random strings, the run path on psi strings
    assert "random N=M=4096" in out and "psi N=M=16384 K=28,22" in out
    for tester in ("cc", "pt_large", "pt_small"):  # one estimate_acceptance point each
        assert f"estimate {tester}" in out
    assert "deletion pipeline" in out and "N=65536 blocks=64 rho=0.5" in out
    assert "5 strings N=1-16 x200" in out  # the short path, on criterion 10's strings
