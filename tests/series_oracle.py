"""The full-length dense series of ``laurent.q_ratio``, kept as an oracle.

``laurent._dense_series`` computes only the lower half of the ratio and
mirrors it.  This is the series it replaced: every coefficient up to the
degree, each factor applied to the whole list, with no use of the
palindrome.
"""

from itertools import accumulate
from operator import sub


def full_series(net, deg):
    """Coefficients of prod (1 - t**e)**k over net, a polynomial of degree deg."""
    s = [1] + [0] * deg
    for e, k in net.items():
        if e > deg:
            continue
        for _ in range(k):
            s[e:] = list(map(sub, s[e:], s))
        for _ in range(-k):
            for r in range(e):
                s[r::e] = accumulate(s[r::e])
    return s
