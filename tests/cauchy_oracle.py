"""The geometric-entry determinant of the Binet-Cauchy identity on LaurentPoly.

Every entry is a LaurentPoly, the determinant comes from
``det_fraction_free`` and the quotient from ``LaurentPoly.exact_div`` by
the two Vandermonde products, each multiplied out factor by factor.  No
packed int is built here, so this is an oracle for the packed
``identities._cauchy_det``.
"""

from qmelon.laurent import LaurentPoly, PolyMatrix, det_fraction_free


def geometric_sum(step: int, count: int) -> LaurentPoly:
    """1 + q**step + q**(2*step) + ... with `count` terms, exact for any step."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms: dict[int, int] = {}
    for t in range(count):
        e = t * step
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)


def vandermonde(exponents) -> LaurentPoly:
    """prod over m < l of (q**a_l - q**a_m) for the geometric point q**a.

    Empty and singleton tuples give 1; a repeated exponent gives 0.
    """
    result = LaurentPoly.one()
    a = list(exponents)
    for l in range(len(a)):
        for m_ in range(l):
            result = result * (LaurentPoly.q_power(a[l]) - LaurentPoly.q_power(a[m_]))
    return result


def cauchy_det(m: int, a, b) -> LaurentPoly:
    """det over V(a) V(b), shifted by -k * sum(a), k = len(b) - len(a).

    The first k rows are the monomial rows (q^{b_j s})_j for s = 0..k-1;
    row i after them is (sum_{t<m+len(b)} q^{(a_i+b_j)t})_j.
    """
    k = len(b) - len(a)
    rows = [[LaurentPoly.q_power(y * s) for y in b] for s in range(k)]
    rows += [[geometric_sum(x + y, m + len(b)) for y in b] for x in a]
    det = det_fraction_free(PolyMatrix(rows))
    return det.exact_div(vandermonde(a) * vandermonde(b)).shift(-k * sum(a))
