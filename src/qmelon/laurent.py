"""Exact arithmetic for Laurent polynomials in one variable q.

Coefficients are Python ints, so they are arbitrary precision by
construction; exponents are ints and may be negative.  ``bool`` is not
accepted for either.  A polynomial is stored as a sparse mapping from
exponent to nonzero coefficient.  The stored form is canonical (no zero
coefficients), which makes structural equality coincide with mathematical
equality and lets values be hashed and shared freely.  Instances are
immutable by convention: no method mutates ``self``.

The wire format used by the CLI and by identity reports is an ordered
list of ``[exponent, coefficient-as-decimal-string]`` pairs with strictly
increasing exponents; see :meth:`LaurentPoly.to_pairs`.

Division is exact or it is an error: :meth:`LaurentPoly.exact_div` raises
:class:`NotDivisible` whenever the quotient would leave a remainder.
Nothing in this module ever falls back to floating point or to rational
coefficients.

Large operands go through Kronecker substitution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 2009, in its plain single-point form).  A polynomial
with dense coefficients c_0 .. c_(n-1) is packed into the one integer
sum c_i * X**i with X = 2**(8*width): every coefficient becomes a
``width``-byte two's-complement digit, and the digits are joined and read
back with ``int.to_bytes``/``int.from_bytes``, so packing and unpacking are
linear.  A product is then one big-integer multiplication, and an exact
quotient one big-integer ``divmod`` whose result is accepted only once it
is proven; see :meth:`LaurentPoly.exact_div`.  The width is chosen so that
every coefficient of the result lies in [-X/2, X/2), where signed base-X
digits, and so the polynomial, are unique.  The packed kernels run only
when the schoolbook's term pairs are at least ``_KRONECKER_CUTOFF`` times
the dense span to pack; small or sparse operands keep the schoolbook
multiplication and the long division.  :func:`q_ratio` decides
exactness from cyclotomic factor counts before any arithmetic, then
evaluates the ratio on sparse dicts while the partial results stay
sparse, and otherwise as a truncated dense power series.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import accumulate
from math import gcd
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder."""


# The Kronecker kernels run when the schoolbook's term pairs are at least
# this many times the dense span they pack: the span of the product for a
# multiplication, of the dividend for a division.  With CPython 3.11 on
# dense operands of 20 to 100-bit coefficients, a term pair of the
# schoolbook loop costs about 0.15 us and a packed coefficient about 1 us,
# so square operands break even near 16 x 16 terms and win 4x at 70 x 70.
_KRONECKER_CUTOFF = 8

# The decimal form str(int) emits for a nonzero int, in ASCII digits only.
_WIRE_COEFF = re.compile(r"-?[1-9][0-9]*")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _canonical(terms: dict[int, int]) -> "LaurentPoly":
    """Wrap a dict that already has int keys and nonzero int values."""
    poly = object.__new__(LaurentPoly)
    poly._terms = terms
    return poly


def _span(terms: Mapping[int, int]) -> int:
    """Number of exponents from the valuation to the degree."""
    return max(terms) - min(terms) + 1


def _dense(terms: Mapping[int, int]) -> tuple[int, list[int]]:
    """Valuation and the dense coefficient list from it up to the degree."""
    low = min(terms)
    coeffs = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        coeffs[e - low] = c
    return low, coeffs


def _halves(digits: int, width: int) -> int:
    """The integer whose every base-2**(8*width) digit is 2**(8*width-1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * digits, "little")


def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i * X**i with X = 2**(8*width); needs |c_i| < X/2."""
    raw = b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)
    h = _halves(len(coeffs), width)
    return (int.from_bytes(raw, "little") ^ h) - h


def _unpack(value: int, digits: int, width: int) -> list[int]:
    """Signed base-X digits of value, lowest first, inverse of _pack.

    Raises OverflowError unless every digit lies in [-X/2, X/2).
    """
    h = _halves(digits, width)
    raw = memoryview(((value + h) ^ h).to_bytes(digits * width, "little"))
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, digits * width, width)]


def _kronecker_mul(a: Mapping[int, int], b: Mapping[int, int]) -> "LaurentPoly":
    """Product of two nonzero term dicts by one big-integer multiplication."""
    low_a, ca = _dense(a)
    low_b, cb = _dense(b)
    # |c_k| <= min(#terms) * max|a_i| * max|b_j| < 2**bits <= X/2
    bits = (max(map(abs, ca)).bit_length() + max(map(abs, cb)).bit_length()
            + min(len(a), len(b)).bit_length())
    width = bits // 8 + 1
    digits = len(ca) + len(cb) - 1
    coeffs = _unpack(_pack(ca, width) * _pack(cb, width), digits, width)
    low = low_a + low_b
    return _canonical({low + k: c for k, c in enumerate(coeffs) if c})


def _kronecker_div(a: Mapping[int, int], b: Mapping[int, int]) -> "LaurentPoly | None":
    """Quotient a / b of nonzero term dicts, or None when none is proven.

    A candidate Q comes from one big-integer divmod of the packed operands
    at X = 2**(8*width); then A(X) = B(X) * Q(X) exactly.  P = A - B*Q
    vanishes at X, and when every coefficient of P is below X in absolute
    value that forces P = 0, so B*Q = A holds as polynomials.  The width
    fits both operands, guesses that the quotient's coefficients are no
    larger than the dividend's and grows when the proof needs more.  None
    means not divisible or not proven; the caller then runs long division.
    """
    digits = _span(a) - _span(b) + 1
    if digits < 1:
        return None
    low_a, ca = _dense(a)
    low_b, cb = _dense(b)
    max_a = max(map(abs, ca))
    max_b = max(map(abs, cb))
    overlap = min(len(b), digits)  # products summed into one coefficient of B*Q
    # both operands must pack: |c| < X/2 for every coefficient of A and of B
    bits = max(max_a, max_b).bit_length() + overlap.bit_length() + 2
    for _ in range(3):
        width = bits // 8 + 1
        quot, rem = divmod(_pack(ca, width), _pack(cb, width))
        if rem:
            return None
        try:
            coeffs = _unpack(quot, digits, width)
        except OverflowError:
            bits *= 2
            continue
        # bound on every coefficient of A - B*Q
        bound = max_a + overlap * max_b * max(map(abs, coeffs))
        if bound.bit_length() <= 8 * width:
            low = low_a - low_b
            return _canonical({low + k: c for k, c in enumerate(coeffs) if c})
        bits = max(bound.bit_length(), 2 * bits)
    return None


class LaurentPoly:
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                # the exact type test is the fast path; it lets no bool through
                if type(e) is not int or type(c) is not int:
                    if not (_is_int(e) and _is_int(c)):
                        raise TypeError("exponents and coefficients must be ints, not bool")
                if c != 0:
                    clean[e] = c
        self._terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def q_power(cls, e: int) -> "LaurentPoly":
        """The monomial q**e (e may be negative)."""
        return cls({e: 1})

    @classmethod
    def monomial(cls, e: int, c: int) -> "LaurentPoly":
        return cls({e: c})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence]) -> "LaurentPoly":
        """Parse the wire format: iterable of (exponent, coeff-as-string) pairs.

        An exponent must be an int (not bool), and exponents must increase
        strictly.  A coefficient must be a string of the form ``str(int)``
        emits for a nonzero int, as :meth:`to_pairs` writes it: an optional
        ``-`` and ASCII digits without a leading zero.  Anything else,
        ``"0"`` and ``"-0"`` included, raises ValueError.
        """
        terms: dict[int, int] = {}
        last = None
        for pair in pairs:
            e, c = pair
            if not _is_int(e):
                raise ValueError(f"wire-format exponent {e!r} is not an int")
            if not isinstance(c, str) or not _WIRE_COEFF.fullmatch(c):
                raise ValueError(
                    f"wire-format coefficient {c!r} is not the decimal string of a nonzero int")
            if last is not None and e <= last:
                raise ValueError("wire-format exponents must be strictly increasing")
            last = e
            terms[e] = int(c)
        return cls(terms)

    # ---- inspection ----

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs, ascending in exponent."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; error on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient; error on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._terms)

    def eval_at_one(self) -> int:
        """Value at q = 1, i.e. the coefficient sum."""
        return sum(self._terms.values())

    # ---- arithmetic ----

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in o._terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in o._terms.items():
            terms[e] = terms.get(e, 0) - c
        return LaurentPoly(terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if not a or not b:
            return _ZERO
        pairs = len(a) * len(b)
        if (pairs >= _KRONECKER_CUTOFF * (len(a) + len(b))
                and pairs >= _KRONECKER_CUTOFF * (_span(a) + _span(b))):
            return _kronecker_mul(a, b)
        terms: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by q**e."""
        return LaurentPoly({k + e: c for k, c in self._terms.items()})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises NotDivisible on any remainder.

        Works over the Laurent ring: both operands are shifted to ordinary
        polynomials, divided over the integers, and the quotient is shifted
        back.  Coefficient divisions must also be exact.

        When the long division's term pairs (divisor terms times the
        expected quotient terms) reach ``_KRONECKER_CUTOFF`` times the
        dividend's span, a candidate quotient comes from one big-integer
        ``divmod`` of the packed operands, and it is returned only with a
        proof that divisor * quotient equals self (see ``_kronecker_div``).
        Every other case, including every case that is not divisible, runs
        the long division, which decides and raises NotDivisible exactly as
        it always has.
        """
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        a, b = self._terms, other._terms
        pairs = len(b) * (len(a) - len(b) + 1)
        if pairs >= _KRONECKER_CUTOFF * len(a) and pairs >= _KRONECKER_CUTOFF * _span(a):
            quot = _kronecker_div(a, b)
            if quot is not None:
                return quot
        av, bv = self.valuation(), other.valuation()
        rem = {e - av: c for e, c in a.items()}
        div = {e - bv: c for e, c in b.items()}
        bdeg = max(div)
        blead = div[bdeg]
        quot: dict[int, int] = {}
        while rem:
            rdeg = max(rem)
            if rdeg < bdeg:
                raise NotDivisible("remainder after division")
            rlead = rem[rdeg]
            if rlead % blead != 0:
                raise NotDivisible("leading coefficient not divisible")
            t = rlead // blead
            te = rdeg - bdeg
            quot[te] = quot.get(te, 0) + t
            for e, c in div.items():
                k = e + te
                v = rem.get(k, 0) - t * c
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return LaurentPoly({e + av - bv: c for e, c in quot.items()})

    # ---- comparison / hashing ----

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # ---- serialization / display ----

    def to_pairs(self) -> list[list]:
        """Wire format: [[exponent, coefficient-as-decimal-string], ...] ascending."""
        return [[e, str(c)] for e, c in self.terms()]

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c}" for e, c in self.terms())
        return f"LaurentPoly({{{inner}}})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def geometric_sum(step: int, count: int) -> LaurentPoly:
    """1 + q**step + q**(2*step) + ... with `count` terms, exact for any step."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms: dict[int, int] = {}
    for t in range(count):
        e = t * step
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)


def q_ratio(num_exponents: Iterable[int], den_exponents: Iterable[int]) -> LaurentPoly:
    """prod (1 - q**a) over num_exponents divided by prod (1 - q**b) over den_exponents.

    Raises NotDivisible when the ratio is not a Laurent polynomial and
    ZeroDivisionError when a denominator exponent is 0; otherwise a
    numerator exponent 0 makes the ratio 0.

    Exactness is decided before any arithmetic.  1 - q**a is
    -prod Phi_d(q) over the divisors d of a, and the cyclotomic
    polynomials Phi_d are distinct irreducibles, so the ratio is a
    polynomial iff every d divides at least as many numerator exponents as
    denominator exponents.  It is enough to test each d that is the gcd of
    some denominator exponents: for any other d, the gcd of the
    denominator exponents it divides is a multiple of d that divides the
    same denominator exponents and no more numerator exponents.

    The ratio is then evaluated in t = q**g, where g is the gcd of the
    exponents left once a negative exponent is turned positive by
    1 - q**(-a) = -q**(-a) * (1 - q**a) and equal factors cancel.  It is
    a polynomial of degree D = (sum a - sum b) / g in t.  The sparse
    route multiplies the numerator factors as dicts and divides by each
    (1 - t**b) as a prefix sum along each residue class mod b, so its
    cost follows the number of terms, not D; it gives up once a partial
    result passes (D + 1) / ``_SPARSE_SHARE`` terms.  The dense route
    works modulo t**(D + 1), which is exact: it multiplies a list of
    D + 1 coefficients by each (1 - t**a) in place and divides by each
    (1 - t**b) as a strided prefix sum.
    """
    num, den = list(num_exponents), list(den_exponents)
    if not all(_is_int(e) for e in num + den):
        raise TypeError("exponents must be ints, not bool")
    if 0 in den:
        raise ZeroDivisionError("division by the zero polynomial")
    if 0 in num:
        return _ZERO
    sign, shift = 1, 0
    for e in num:
        if e < 0:
            sign, shift = -sign, shift + e
    for e in den:
        if e < 0:
            sign, shift = -sign, shift - e
    # net multiplicity of each factor (1 - q**e): numerator minus denominator
    net = Counter(map(abs, num))
    net.subtract(map(abs, den))
    gcds: set[int] = set()
    for b in (e for e, k in net.items() if k < 0):
        gcds |= {gcd(d, b) for d in gcds}
        gcds.add(b)
    for d in gcds:
        if sum(k for e, k in net.items() if e % d == 0) < 0:
            raise NotDivisible("ratio of q-products is not a Laurent polynomial")
    g = 0
    for e, k in net.items():
        if k:
            g = gcd(g, e)
    if not g:
        return _canonical({shift: sign})
    net = {e // g: k for e, k in net.items() if k}
    deg = sum(e * k for e, k in net.items())
    terms = _sparse_series(net, (deg + 1) // _SPARSE_SHARE)
    if terms is None:
        terms = enumerate(_dense_series(net, deg))
    return _canonical({shift + g * k: sign * c for k, c in terms if c})


# The sparse route of q_ratio stops once a partial result holds more than
# this share of the dense route's D + 1 coefficients.  A dict entry costs
# several times a list slot, and the cap bounds the work lost to a switch.
_SPARSE_SHARE = 16


def _sparse_series(net: Mapping[int, int], cap: int) -> "Iterable[tuple[int, int]] | None":
    """Terms of prod (1 - t**e)**k over net, or None past cap terms.

    The product must be a polynomial.  Every numerator factor is multiplied
    in before the first division, so each partial quotient is a polynomial.
    """
    prod = _ONE
    for e, k in net.items():
        for _ in range(k):
            prod = prod * (_ONE - LaurentPoly.q_power(e))
            if len(prod._terms) > cap:
                return None
    terms = prod._terms
    for b, k in net.items():
        for _ in range(-k):
            # q_k = p_k + q_(k-b): the running sum along each class is
            # constant between two of its exponents and 0 after the last
            keys = sorted(terms, key=lambda e: (e % b, e))
            runs, total = [], 0
            for e, nxt in zip(keys, keys[1:]):
                total += terms[e]
                if total:
                    runs.append((e, nxt, total))
            if sum((nxt - e) // b for e, nxt, _ in runs) > cap:
                return None
            terms = {}
            for e, nxt, c in runs:
                terms.update(dict.fromkeys(range(e, nxt, b), c))
    return terms.items()


def _dense_series(net: Mapping[int, int], deg: int) -> list[int]:
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


class PolyMatrix:
    """Immutable rectangular matrix of LaurentPoly entries.

    Integer entries are coerced to constant polynomials.
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable]):
        rows = []
        width = None
        for raw in entries:
            row = []
            for x in raw:
                if isinstance(x, int):
                    x = LaurentPoly({0: x})
                elif not isinstance(x, LaurentPoly):
                    raise TypeError("matrix entries must be LaurentPoly or int")
                row.append(x)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows in matrix")
            rows.append(tuple(row))
        self._rows = tuple(rows)
        self.rows = len(rows)
        self.cols = width if width is not None else 0

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[LaurentPoly, ...]:
        return self._rows[i]

    def __iter__(self) -> Iterator[tuple[LaurentPoly, ...]]:
        return iter(self._rows)


def det_cofactor(m: PolyMatrix) -> LaurentPoly:
    """Determinant by cofactor expansion.  Reference oracle; O(n!) work."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return _ONE
    if n == 1:
        return m.entry(0, 0)

    def expand(rows: tuple[tuple[LaurentPoly, ...], ...]) -> LaurentPoly:
        k = len(rows)
        if k == 1:
            return rows[0][0]
        total = _ZERO
        first = rows[0]
        rest = rows[1:]
        for j in range(k):
            if first[j].is_zero():
                continue
            minor = tuple(tuple(r[c] for c in range(k) if c != j) for r in rest)
            term = first[j] * expand(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand(m._rows)


def det_fraction_free(m: PolyMatrix) -> LaurentPoly:
    """Determinant by single-step fraction-free (Bareiss) elimination.

    This is the one elimination routine of the package.  Integer matrices
    go through it too: PolyMatrix embeds ints as constants, so
    ``det_fraction_free(PolyMatrix(rows)).coeff(0)`` is the integer
    determinant of ``rows``.

    Every division performed is exact in the Laurent ring; a division
    failure would mean corrupted arithmetic, so it is converted into a
    hard internal error.  Pivoting takes the first nonzero entry in
    column order with a full row swap and sign tracking; an all-zero
    pivot column short-circuits to 0.  Sizes below 3 are expanded
    directly.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return _ONE
    if n == 1:
        return m.entry(0, 0)
    if n == 2:
        return m.entry(0, 0) * m.entry(1, 1) - m.entry(0, 1) * m.entry(1, 0)
    a = [list(row) for row in m]
    sign = 1
    prev = _ONE
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if not a[r][k].is_zero()), None)
        if piv is None:
            return _ZERO
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                try:
                    a[i][j] = num.exact_div(prev)
                except NotDivisible as exc:
                    raise RuntimeError("fraction-free elimination lost exactness") from exc
            a[i][k] = _ZERO
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def vandermonde(exponents: Sequence[int]) -> LaurentPoly:
    """prod over m < l of (q**a_l - q**a_m) for the geometric point q**a.

    Empty and singleton tuples give 1; a repeated exponent gives 0.
    """
    result = _ONE
    a = list(exponents)
    for l in range(len(a)):
        for m_ in range(l):
            result = result * (LaurentPoly.q_power(a[l]) - LaurentPoly.q_power(a[m_]))
    return result
