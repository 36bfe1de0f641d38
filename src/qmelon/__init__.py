"""Exact combinatorics of watermelon lattice paths and boxed plane partitions.

Everything is computed over the integers: sparse Laurent polynomials in q,
q-binomial coefficients, Schur polynomials at geometric points, watermelon
path ensembles with an optional deviation, MacMahon boxes, and a volume
preserving bijection between the two pictures.  The identities module
cross-checks every closed form against direct enumeration.
"""

from .laurent import (
    LaurentPoly,
    NotDivisible,
    PolyMatrix,
    det_fraction_free,
    q_ratio,
)
from .partitions import (
    check_partition,
    enumerate_in_box,
    parse_partition,
    weight,
)
from .paths import (
    Watermelon,
    closed_genfunc,
    count_deviation,
    enumerate_watermelons,
    genfunc_det_forms,
    gv_count,
    make_watermelon,
    watermelon_from_dict,
    watermelon_genfunc,
)
from .planepartitions import (
    BoxMismatch,
    enumerate_box,
    gradient_bijection,
    gradient_bijection_inverse,
    pp_from_dict,
    pp_to_dict,
    zq,
)
from .qanalogs import h_complete, qbinomial
from .schur import (
    DegeneratePoint,
    bialternant,
    gv_determinant,
    h_determinant,
    principal_product,
    tableau_sum,
)
from .tableaux import count_ssyt, enumerate_ssyt, is_ssyt

__version__ = "0.1.0"

__all__ = [
    "BoxMismatch",
    "DegeneratePoint",
    "LaurentPoly",
    "NotDivisible",
    "PolyMatrix",
    "Watermelon",
    "bialternant",
    "check_partition",
    "closed_genfunc",
    "count_deviation",
    "count_ssyt",
    "det_fraction_free",
    "enumerate_box",
    "enumerate_in_box",
    "enumerate_ssyt",
    "enumerate_watermelons",
    "genfunc_det_forms",
    "gradient_bijection",
    "gradient_bijection_inverse",
    "gv_count",
    "gv_determinant",
    "h_complete",
    "h_determinant",
    "is_ssyt",
    "make_watermelon",
    "parse_partition",
    "pp_from_dict",
    "pp_to_dict",
    "principal_product",
    "q_ratio",
    "qbinomial",
    "tableau_sum",
    "watermelon_from_dict",
    "watermelon_genfunc",
    "weight",
    "zq",
]
