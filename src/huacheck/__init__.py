"""huacheck: numerical verification of boundary-value identities on the
classical bounded symmetric matrix domains.

The package provides exact polynomial Wirtinger calculus, the invariant
second-order operators of the four classical families, the determinant-power
Poisson kernels with their boundary identities, Gauss hypergeometric radial
profiles, Dirichlet solvers, ball embeddings, and a reporting CLI.
"""

from .domains import (
    DomainSpec,
    UnsupportedDomainError,
    ball,
    kappa,
    parse_spec,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)
from .fields import OpaqueField, PolyField, wirtinger_gradient, wirtinger_hessian
from .operators import apply, coefficients

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "UnsupportedDomainError",
    "OpaqueField",
    "PolyField",
    "apply",
    "ball",
    "coefficients",
    "kappa",
    "parse_spec",
    "type_i",
    "type_ii",
    "type_iii",
    "type_iv",
    "wirtinger_gradient",
    "wirtinger_hessian",
    "__version__",
]
