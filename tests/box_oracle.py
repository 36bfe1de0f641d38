"""Box generating function as a dense power series, independent of qmelon.

MacMahon's product prod (1 - q^(l+i+j-1)) / (1 - q^(i+j-1)) over i <= n,
j <= m is a polynomial of degree n*l*m, so working modulo q^(n*l*m + 1) is
exact: multiply by each numerator factor in place and divide by each
denominator factor as a strided prefix sum.  Plain ints and lists only.
"""


def box_terms(n: int, l: int, m: int) -> dict[int, int]:
    """Nonzero coefficients {exponent: coefficient} of the B(n, l, m) product."""
    deg = n * l * m
    c = [1] + [0] * deg
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            a = l + i + j - 1
            for e in range(deg, a - 1, -1):
                c[e] -= c[e - a]
            b = i + j - 1
            for e in range(b, deg + 1):
                c[e] += c[e - b]
    return {e: v for e, v in enumerate(c) if v}


def box_count(n: int, l: int, m: int) -> int:
    """Number of plane partitions in B(n, l, m): the product at q = 1."""
    return sum(box_terms(n, l, m).values())
