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

The package root exports the pipeline from a Hermitian space to its derived
adjoint (`make_selfdual`, `dagger`, `is_unitary`, `extract_hermitian`,
`quantize`, `csmat`) and the text forms of matrices and spec files; every
other name is imported from its layer module.
"""

from .scalars import Scalar
from .linalg import Matrix, format_matrix, parse_matrix
from .hermitian import HermitianSpace, dagger, extract_hermitian, is_unitary, make_selfdual
from .density import csmat
from .quantization import quantize
from .specfile import parse_spec

__version__ = "0.1.0"

__all__ = [
    "HermitianSpace",
    "Matrix",
    "Scalar",
    "csmat",
    "dagger",
    "extract_hermitian",
    "format_matrix",
    "is_unitary",
    "make_selfdual",
    "parse_matrix",
    "parse_spec",
    "quantize",
]
