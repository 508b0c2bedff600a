"""commdim: exact commutative-subalgebra dimension machinery over GF(p).

Builds two-step nilpotent Lie and associative algebras from tuples of
bilinear forms, certifies by an exact search that a sampled tuple admits no
common isotropic subspace of a given dimension, computes maximal abelian
subalgebra dimensions exactly with the same search, and evaluates the
related closed-form dimension bounds.
"""

from .algebra import (
    AxiomReport,
    StructureConstantAlgebra,
    center,
    centralizer,
    is_abelian_subspace,
    nilpotency_class,
    verify_axioms,
)
from .bounds import (
    BoundEntry,
    BoundReport,
    BoundVerdict,
    SevenNVerdict,
    SimpleTypeEntry,
    bound_table,
    check_structural_bound,
    exceptional_entries,
    seven_n_check,
    simple_lie_data,
)
from .construct import (
    ExtremalParams,
    build_assoc_from_forms,
    build_lie_from_forms,
    extremal_params,
    matrix_algebra,
    matrix_commutative_subalgebra,
    unitalize,
)
from .errors import CertificationFailed, EnumerationTooLarge, NotASubalgebra
from .forms import (
    FormTuple,
    GenericityCertificate,
    certify_no_isotropic,
    find_common_isotropic,
    is_common_isotropic,
    reverify_certificate,
    sample_form_tuple,
)
from .gf import (
    PrimeField,
    Subspace,
    gaussian_binomial,
    is_prime,
)
from .search import (
    SearchResult,
    class2_exact_result,
    class2_form_tuple,
    greedy_abelian_class2,
    largest_common_isotropic,
    max_abelian_exact,
    maximal_abelian_ideal,
)

__version__ = "0.2.0"

__all__ = [
    "AxiomReport",
    "BoundEntry",
    "BoundReport",
    "BoundVerdict",
    "CertificationFailed",
    "EnumerationTooLarge",
    "ExtremalParams",
    "FormTuple",
    "GenericityCertificate",
    "NotASubalgebra",
    "PrimeField",
    "SearchResult",
    "SevenNVerdict",
    "SimpleTypeEntry",
    "StructureConstantAlgebra",
    "Subspace",
    "bound_table",
    "build_assoc_from_forms",
    "build_lie_from_forms",
    "center",
    "centralizer",
    "certify_no_isotropic",
    "check_structural_bound",
    "class2_exact_result",
    "class2_form_tuple",
    "exceptional_entries",
    "extremal_params",
    "find_common_isotropic",
    "gaussian_binomial",
    "greedy_abelian_class2",
    "is_abelian_subspace",
    "is_common_isotropic",
    "is_prime",
    "largest_common_isotropic",
    "matrix_algebra",
    "matrix_commutative_subalgebra",
    "max_abelian_exact",
    "maximal_abelian_ideal",
    "nilpotency_class",
    "reverify_certificate",
    "sample_form_tuple",
    "seven_n_check",
    "simple_lie_data",
    "unitalize",
    "verify_axioms",
]
