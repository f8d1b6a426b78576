"""modframes: frame-inequality certification over matrix C*-algebras.

The package models free Hilbert modules A^n over A = M_d(C), adjointable
operators between them, and finite operator families, and certifies the
two-sided algebra-valued frame inequality for a target operator K together
with duals, perturbation transfer, and tensor-product duality.
"""

from . import algebra
from ._kernels import backend as kernel_backend
from .duals import (
    DualPair,
    PreframeReport,
    canonical_dual,
    minimal_dual,
    preframe_consistency,
    verify_dual,
)
from .errors import (
    HypothesisError,
    HypothesisFailedError,
    ModframesError,
    NoInclusionError,
    NotCoisometryError,
    NotCommutingError,
    ShapeMismatchError,
    SingularFrameOperatorError,
)
from .frames import (
    FrameBounds,
    FrameCertificate,
    NormBoundReport,
    OperatorFamily,
    PrecomposedFrame,
    analysis_operator,
    certify,
    frame_operator,
    gap_matrices,
    norm_bound_check,
    optimal_scalar_bounds,
    range_transfer_check,
    transform_coisometry,
    transform_precompose,
)
from .io import FrameSpecFile, SpecFormatError, generate_instance, load_spec, save_spec
from .module import (
    ModuleVector,
    inner_product,
    module_action,
    norm,
    random_vector,
    sample_vectors,
)
from .operators import (
    DouglasReport,
    ModuleOperator,
    apply,
    compose,
    douglas_check,
    flatten,
    op_adjoint,
    operator_norm,
    random_operator,
)
from .perturbation import (
    PerturbationReport,
    converse_constant,
    perturbation_check,
    perturbation_constant,
    perturbed_frame_bounds,
)
from .tensor import (
    TensorDual,
    kron_family,
    kron_operator,
    kron_vector,
    nfold_tensor_dual,
    tensor_dual_check,
)

__version__ = "0.1.0"
