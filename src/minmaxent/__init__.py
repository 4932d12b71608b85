"""Single-shot conditional min- and max-entropies via semidefinite programming.

Compute H_min(A|B) and H_max(A|B) of finite-dimensional bipartite states
with certified primal/dual optimizers, together with the operational
quantities they equal: the optimal guessing probability, the maximal
singlet fraction with an explicit recovery channel, the key secrecy, and
the decoupling accuracy.  A built-in verification suite checks every
identity against independent oracles.
"""

from .channels import ChoiMatrix, adjoint_channel
from .core import (
    BipartiteState,
    CqEnsemble,
    DensityOperator,
    HermitianOperator,
    PureState,
    StateFormatError,
    cq_to_density,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    load_state,
    maximally_entangled,
    purify,
    random_density,
    root_fidelity,
    save_ensemble,
    save_state,
    state_from_json,
    state_to_json,
)
from .entropy import (
    EntropyReport,
    RecoveryCertificate,
    closed_form_entropies,
    decoupling_accuracy,
    guessing_probability,
    key_secrecy,
    key_secrecy_block,
    max_entropy,
    max_relative_entropy,
    max_target_fidelity,
    min_entropy,
    singlet_fraction,
)
from .oracles import (
    OracleReport,
    helstrom_guess_probability,
    min_entropy_direct_search,
    sampled_target_fidelity,
)
from .sdp import (
    CertificateReport,
    HermitianSdp,
    SdpSolution,
    SolverError,
    check_certificate,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "CertificateReport",
    "ChoiMatrix",
    "CqEnsemble",
    "DensityOperator",
    "EntropyReport",
    "HermitianOperator",
    "HermitianSdp",
    "OracleReport",
    "PureState",
    "RecoveryCertificate",
    "SdpSolution",
    "SolverError",
    "StateFormatError",
    "adjoint_channel",
    "check_certificate",
    "closed_form_entropies",
    "cq_to_density",
    "decoupling_accuracy",
    "ensemble_from_json",
    "ensemble_to_json",
    "guessing_probability",
    "helstrom_guess_probability",
    "key_secrecy",
    "key_secrecy_block",
    "load_ensemble",
    "load_state",
    "max_entropy",
    "max_relative_entropy",
    "max_target_fidelity",
    "maximally_entangled",
    "min_entropy",
    "min_entropy_direct_search",
    "purify",
    "random_density",
    "root_fidelity",
    "sampled_target_fidelity",
    "save_ensemble",
    "save_state",
    "singlet_fraction",
    "solve",
    "state_from_json",
    "state_to_json",
]
