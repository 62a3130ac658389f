"""Self-dual and LCD codes in the sum-rank metric.

Finite-field towers, cyclic/BCH codes, the two sum-rank constructions
(stacked q-polynomial coefficient codes and basis expansion), trace-inner-
product duality, budgeted exact distance search, and reproduction of the
published parameter tables.
"""

from .code import (
    DEFAULT_WORD_BUDGET,
    LinearCode,
    f4_selfdual_distance_cap,
)
from .construct import (
    Bounds,
    basis_expand_code,
    default_expansion_profile,
    duality_transport_expansion,
    duality_transport_qpoly,
    expansion_distance_bounds,
    pair_distance,
    power_basis,
    qpoly_code,
    qpoly_matrix,
    qpoly_rank_table,
    selfdual_sr_distance_cap,
    sr_distance_bounds,
    symbol_sum_rank_weight,
    uniform22_distance_bounds,
)
from .cyclic import (
    CosetTable,
    bch_generator,
    cyclic_code,
    cyclic_dual_generator,
    cyclotomic_cosets,
    frobenius_coeffs,
    is_cyclic,
    min_nontrivial_coset_size,
    minimal_polynomial,
    parse_poly,
    splitting_root,
)
from .errors import BudgetExceeded, SrlabError
from .field import (
    Basis,
    FieldSpec,
    dual_basis,
    extension,
    prime_field,
    self_dual_basis,
    trace_to,
)
from .linalg import MatrixGF
from .poly import Polynomial, is_irreducible, poly_gcd, smallest_irreducible
from .sumrank import BlockProfile, SumRankCode
from .tables import TABLE_IDS, run_tables

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BlockProfile",
    "Bounds",
    "BudgetExceeded",
    "CosetTable",
    "DEFAULT_WORD_BUDGET",
    "FieldSpec",
    "LinearCode",
    "MatrixGF",
    "Polynomial",
    "SrlabError",
    "SumRankCode",
    "TABLE_IDS",
    "basis_expand_code",
    "bch_generator",
    "cyclic_code",
    "cyclic_dual_generator",
    "cyclotomic_cosets",
    "default_expansion_profile",
    "dual_basis",
    "duality_transport_expansion",
    "duality_transport_qpoly",
    "expansion_distance_bounds",
    "extension",
    "f4_selfdual_distance_cap",
    "frobenius_coeffs",
    "is_cyclic",
    "is_irreducible",
    "min_nontrivial_coset_size",
    "minimal_polynomial",
    "pair_distance",
    "parse_poly",
    "poly_gcd",
    "power_basis",
    "prime_field",
    "qpoly_code",
    "qpoly_matrix",
    "qpoly_rank_table",
    "run_tables",
    "self_dual_basis",
    "selfdual_sr_distance_cap",
    "smallest_irreducible",
    "splitting_root",
    "sr_distance_bounds",
    "symbol_sum_rank_weight",
    "trace_to",
    "uniform22_distance_bounds",
]
