"""Exact GF(p) toolkit for turning cross-subspace alignment schemes into
over-the-air quantum CSA channels via the N-sum box abstraction.

The layers, bottom up: prime field moduli (:mod:`qcsa.field`), dense
exact linear algebra (:mod:`qcsa.matrix`), GRS / CSA / QCSA constructions
(:mod:`qcsa.codes`), feasible N-sum-box channels (:mod:`qcsa.nsumbox`),
and the two-instance scheme simulator with rate accounting
(:mod:`qcsa.scheme`).  Every value is a numpy int64 array of canonical
residues mod p (a single residue is a plain int), and everything is
exact.  Matrix products run on float64 BLAS and stay exact: the left
operand splits into 11-, 11- and 9-bit limbs whenever one float64 product
could round (see :mod:`qcsa.matrix`).
"""

from .field import FieldMismatchError, PrimeField, is_prime, next_prime
from .matrix import (
    FieldMatrix,
    Permutation,
    SingularMatrixError,
    block_diag,
    hstack,
)
from .codes import (
    GrsSpec,
    ParameterError,
    QcsaParams,
    csa_matrix,
    dual_multipliers,
    grs_generator,
    qcsa_cauchy_block,
    qcsa_grs_submatrix,
    qcsa_matrix,
    qcsa_trailing_block,
)
from .nsumbox import (
    DualityViolationError,
    NSumBox,
    NotSSOError,
    QcsaSystem,
    SingularGHError,
    build_qcsa_box,
    build_qcsa_system,
    channel_from_gh,
    gh_column_permutation,
    is_sso,
    selector_matrix,
    selector_row_indices,
    verify_box,
    verify_system,
)
from .scheme import (
    RateReport,
    RoundTrip,
    SchemeInstance,
    classical_decode,
    make_instances,
    qcsa_roundtrip,
    rate_report,
    reduce_servers,
    reduced_params,
    run_trials,
    server_scale,
    trial_blocks,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMismatchError",
    "PrimeField",
    "is_prime",
    "next_prime",
    "FieldMatrix",
    "Permutation",
    "SingularMatrixError",
    "block_diag",
    "hstack",
    "GrsSpec",
    "ParameterError",
    "QcsaParams",
    "csa_matrix",
    "dual_multipliers",
    "grs_generator",
    "qcsa_cauchy_block",
    "qcsa_grs_submatrix",
    "qcsa_matrix",
    "qcsa_trailing_block",
    "DualityViolationError",
    "NSumBox",
    "NotSSOError",
    "QcsaSystem",
    "SingularGHError",
    "build_qcsa_box",
    "build_qcsa_system",
    "channel_from_gh",
    "gh_column_permutation",
    "is_sso",
    "selector_matrix",
    "selector_row_indices",
    "verify_box",
    "verify_system",
    "RateReport",
    "RoundTrip",
    "SchemeInstance",
    "classical_decode",
    "make_instances",
    "qcsa_roundtrip",
    "rate_report",
    "reduce_servers",
    "reduced_params",
    "run_trials",
    "server_scale",
    "trial_blocks",
]
