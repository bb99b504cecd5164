"""paritylab: distribution testing under structured sample corruption.

Testers for uniformity when the sample is seen only through a parity
trace, a confused collector on a path or cycle, or deletion-channel
traces of a block string, together with the exact analysis oracles
(expected join matrices, equalizing conjugates, edit-distance sandwiches,
hard-instance generators) used to validate them.
"""

from .collector import (
    BaseGraph,
    CCTesterConfig,
    min_eigenvalue,
    phi_empirical,
    phi_expected,
    phi_from_keep_probs,
    sample_confused,
    test_uniformity_cc,
    zeta_bound,
)
from .core import (
    PartialDistribution,
    PartialDistributionPair,
    RunLengthTrace,
    SampleMultiset,
    circular_runs,
    parity_trace,
    sample_exact,
    sample_poissonized,
    split_sample_k,
    uniform_pair,
)
from .deletion import (
    DeletionChannel,
    TraceTestSpec,
    deletion_trace,
    learn_k_alternating,
    poissonize,
    split_traces,
    test_n_block,
    test_uniform_n_block,
    test_uniform_n_block_multitrace,
    uniform_block_string,
)
from .editdist import (
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
)
from .harness import (
    AcceptanceCurve,
    DominoInstance,
    ExperimentSpec,
    calibrate_constants,
    domino_instance,
    estimate_acceptance,
    interval_far_distribution,
)
from .oracles import (
    ConcentrationReport,
    ConjugateReport,
    expected_y,
    relative_concentration,
    tanh_checks,
    uniform_conjugate,
    variance_components,
)
from .parity import (
    PTTesterConfig,
    phi_mu,
    phi_mu_sum,
    test_uniformity_pt,
    test_uniformity_pt_large,
    test_uniformity_pt_small,
    uht_histogram,
)
from .verdict import Verdict

__version__ = "0.1.0"
