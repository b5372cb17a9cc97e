"""Exact arithmetic for complex modules with an antilinear involution.

Everything runs over the field generated by i and sqrt(2) with rational
coefficients, so every check is a decision, not an approximation: two
matrices are equal or they are not.  The layers build on each other:

    scalars       the coefficient field, canonical text form included
    linalg        immutable exact matrices, kernels, solving, tensor products
    modules       complex spaces carrying an antilinear involution
    hermitian     Hermitian spaces, self-dual involutive modules, the one
                  eigenspace splitting, extraction of the Hermitian form,
                  the adjoint, unitarity
    equivalence   the fixed-points / complexification equivalence with
                  real vector spaces, and Hermitian forms from pairs (g, J)
                  read off the complexification as a self-dual module
    density       internally symmetric matrices, state spaces, channels
    quantization  finite sets with involution, equivariant bundles, and
                  the quantization that produces standard Hermitian spaces
    specfile      the declarative input format of the command line tool
    selftest      seeded property suites over all of the above
"""

from .errors import (
    CompositionError,
    InvariantViolation,
    ShapeError,
    SingularMatrixError,
)
from .scalars import (
    I,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    ScalarFormatError,
    ScalarParseError,
    format_scalar,
    parse_scalar,
)
from .linalg import (
    Matrix,
    MatrixParseError,
    block_diag,
    format_matrix,
    hstack,
    kernel_basis,
    kron,
    kron_swap,
    parse_matrix,
    unvec,
    vec,
    vstack,
)
from .modules import (
    RealHom,
    RealModule,
    braiding,
    fixed_points,
    is_real_hom,
    tensor,
)
from .equivalence import (
    HermitianSpace,
    RealVS,
    complexify,
    hermitian_form_on_real_basis,
    hyperbolic_iso,
    inner_to_hermitian_formula,
    standard_complex_structure,
)
from .hermitian import (
    EigenSplit,
    SelfDualRealModule,
    adjoint_oracle,
    conjugate_selfdual,
    dagger,
    extract_hermitian,
    hadamard,
    is_internal_isometry,
    is_unitary,
    make_selfdual,
    phase_gate,
    split_eigenspaces,
    standard_selfdual,
)
from .density import (
    CSMatSpace,
    channel,
    csmat,
    fixed_vector_to_operator,
    is_density_shaped,
    operator_to_fixed_vector,
    positivity_certificate,
    trace,
)
from .quantization import (
    InternalComplex,
    RealBundle,
    RealBundleMap,
    RealSet,
    RealSetMap,
    free_realset,
    internal_complex,
    quantize,
    quantize_set,
    reflect,
    trivial_realset,
)
from .specfile import SpecFile, SpecFileError, Stanza, parse_spec
from .selftest import SuiteResult, run_selftest

__version__ = "0.1.0"

__all__ = [
    "CSMatSpace",
    "CompositionError",
    "EigenSplit",
    "HermitianSpace",
    "I",
    "INV_SQRT2",
    "InternalComplex",
    "InvariantViolation",
    "Matrix",
    "MatrixParseError",
    "ONE",
    "RealBundle",
    "RealBundleMap",
    "RealHom",
    "RealModule",
    "RealSet",
    "RealSetMap",
    "RealVS",
    "SQRT2",
    "Scalar",
    "ScalarFormatError",
    "ScalarParseError",
    "SelfDualRealModule",
    "ShapeError",
    "SingularMatrixError",
    "SpecFile",
    "SpecFileError",
    "Stanza",
    "SuiteResult",
    "ZERO",
    "adjoint_oracle",
    "block_diag",
    "braiding",
    "channel",
    "complexify",
    "conjugate_selfdual",
    "csmat",
    "dagger",
    "extract_hermitian",
    "fixed_points",
    "fixed_vector_to_operator",
    "format_matrix",
    "format_scalar",
    "free_realset",
    "hadamard",
    "hermitian_form_on_real_basis",
    "hstack",
    "hyperbolic_iso",
    "inner_to_hermitian_formula",
    "internal_complex",
    "is_density_shaped",
    "is_internal_isometry",
    "is_real_hom",
    "is_unitary",
    "kernel_basis",
    "kron",
    "kron_swap",
    "make_selfdual",
    "operator_to_fixed_vector",
    "parse_matrix",
    "parse_scalar",
    "parse_spec",
    "phase_gate",
    "positivity_certificate",
    "quantize",
    "quantize_set",
    "reflect",
    "run_selftest",
    "split_eigenspaces",
    "standard_complex_structure",
    "standard_selfdual",
    "tensor",
    "trace",
    "trivial_realset",
    "unvec",
    "vec",
    "vstack",
]
