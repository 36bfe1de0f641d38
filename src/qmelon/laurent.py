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
J. Symbolic Comput. 2009): the single-point form for products and
quotients, the two-point form at q = +Y and q = -Y for determinants (see
below).  A polynomial with dense coefficients
c_0 .. c_(n-1) is packed into the one integer sum c_i * X**i with
X = 2**(8*width): every coefficient becomes a ``width``-byte
two's-complement digit, and the digits are joined and read back with
``int.to_bytes``/``int.from_bytes``, so packing and unpacking are linear.
A product is then one big-integer multiplication, and an exact quotient
one big-integer ``divmod``, whose result is accepted only once it is
proven and whose remainder proves that there is none; see
``_packed_quotient``.  The width is chosen so that every coefficient of
the result lies in [-X/2, X/2), where signed base-X digits, and so the
polynomial, are unique.  The packed kernels run only when the
schoolbook's term pairs are at least ``_KRONECKER_CUTOFF`` times the
dense span to pack; small or sparse operands keep the schoolbook
multiplication and the long division.  :func:`q_ratio` decides
exactness from cyclotomic factor counts before any arithmetic, then
evaluates the lower half of the ratio as a truncated dense power series
and mirrors it, the ratio being palindromic up to sign.

:func:`det_fraction_free` applies the substitution once per matrix, not
once per operation, through ``_det_core``, which reads four facts of each
entry a: its valuation v, its degree, its |a|_1 (or its value at q = 1)
and the values of q**(-v) * a at q = Y and q = -Y.  The core alone shifts
the rows and columns to polynomials, taking each value times the power of
+-Y left by the entry's row and column shifts, and the two integer
determinants at q = +-Y, expanded by minors or eliminated by Bareiss,
give the even and the odd coefficients
(``_two_point_det``), proven by an a-priori bound: the Leibniz bound, or
the value D(1) at q = 1 when the caller has proven the coefficients
nonnegative, as for a matrix of path weights.  A matrix of monomial rows,
of zero span, is eliminated on its coefficients, so every determinant of 3
rows or more is computed on ints.  The integer routine's work, predicted
from bounds on the degrees of the minors it builds (``_det_work``), is
charged against ``_MAX_BIGINT_WORK`` before any entry is evaluated.
The core has two feeders: ``det_fraction_free`` reads the facts off each
entry's coefficients and packs them (``_evaluate_matrix``), and
``qanalogs._qbinomial_det`` knows them in closed form for the Gaussian
binomials q**s * [A choose b], the monomials of ``schur._alternant``
among them, and builds no coefficient list.

``_packed_quotient`` divides two polynomials packed at one width, for its
callers and for :meth:`LaurentPoly.exact_div`: one ``divmod``, and only
the quotient is unpacked.  It is kept when the width bounds it a priori or
when an after-the-fact proof holds at that width; otherwise the digits are
packed wider and divided again, at most three widths in all, before long
division decides.  The divmod is quadratic, so each one whose predicted
work passes ``_MAX_BIGINT_WORK`` is refused with ValueError first, and
long division once its count passes ``_MAX_SERIES_WORK``.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from functools import partial
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import sub
from struct import calcsize
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder."""


# The Kronecker kernels run when the schoolbook's term pairs are at least
# this many times the dense span they pack: the span of the product for a
# multiplication, of the dividend for a division.  With CPython 3.11 on
# dense operands of 20 to 100-bit coefficients, a term pair of the
# schoolbook loop costs about 0.15 us and a packed coefficient about 1 us,
# so square operands break even near 16 x 16 terms and win 4x at 70 x 70.
_KRONECKER_CUTOFF = 8

# A packed matrix of at most _MINORS_DET_MAX_ROWS rows whose packed
# determinant, W * S bytes, reaches _MINORS_DET_MIN_BYTES is expanded by
# minors (_minors_det), any other one eliminated (_bareiss), both at q = +-Y.
# CPython 3.11, minors time over Bareiss time, best of 5 below 2 K bytes
# and of 2 above, median (range).  genfunc_det_forms (n of 3 to 6, l up to
# 5, m up to 6, both forms, 240 matrices), packed at the width of their
# value at q = 1: 1.20 (1.03-1.43) below 250 bytes, 1.11 (1.00-1.32) from
# 250 to 511, 0.91 (0.77-1.23) from 512 to 1 K and 0.80 (0.63-0.89) from
# 1 K to 8 K.  Those of 9 and 10 rows (l and m up to 3, 36 matrices, 0.4 K
# to 2.7 K bytes) read 0.64-1.36, median 0.86, so the limit stays at 10.
# Monomial alternants, slower by minors at 9 and 10 rows (1.66 and 1.44
# from 1 K to 8 K bytes), never reach this rule: schur takes those of up to
# 14 rows as maximal minors, and sends only larger ones here, to Bareiss.
# The verify grid's 44 determinants of 3 and 4 rows per pass, at most 228
# bytes at the Leibniz width, 20 of them of zero span and not packed, took
# 3.3-3.7 ms, and 3.8-4.3 ms with this floor at 0 (best of 7).
_MINORS_DET_MAX_ROWS = 10
_MINORS_DET_MIN_BYTES = 512

# The most coefficients a dense list may hold: q_ratio's series and
# qanalogs.qbinomial refuse a longer one before allocating it.  A list slot
# is an 8-byte pointer, so 10**7 slots take 80 MB.  A multiplication step
# briefly holds three such lists (240 MB) and takes about a second with
# CPython 3.11, which bounds what one factor may cost.  q_ratio's check
# still counts the D + 1 coefficients of the polynomial it returns, though
# its series computes only D // 2 + 1 of them and mirrors the rest, because
# the returned polynomial holds them all: at the limit, q_ratio((10**7,),
# (1,)) takes about 3 s and 740 MB peak RSS, nearly all of it for that
# polynomial's dict.  closed_genfunc(40, 40, 40) needs 64,001 coefficients.
_MAX_DENSE_COEFFS = 10**7

# The most slot-passes of q_ratio's series: each net factor (1 - t**e)**k
# with e <= D // 2 makes |k| passes over the D // 2 + 1 slots.  CPython
# 3.11 takes 70 to 150 ns per slot-pass: closed_genfunc(30, 30, 30)
# charges 1.8 * 10**7 in 1.2-1.9 s and is kept, (31, 31, 31) charges
# 2.1 * 10**7 and is refused, (40, 40, 40) would charge 7.7 * 10**7 for
# 11-12 s, and the count boxes of sides 8 to 12 charge at most 1.2 * 10**5.
# qanalogs.qbinomial charges k passes over its list: [500 choose 250]
# 1.6 * 10**7 in 1.45 s, kept, and [600 choose 300] 2.7 * 10**7, refused.
# _long_div charges each quotient term 1 step per remainder term its scan
# reads, 22-33 ns, and _UPDATE_STEPS per divisor term it updates, 0.5-0.9
# us (least squares over 12 sparse divisions, CPython 3.11): 0.4-0.8 s.
_MAX_SERIES_WORK = 2 * 10**7
_UPDATE_STEPS = 24

# The most big-integer work of one step, about 3 s of CPython 3.11 (2.1 to
# 11.5 s for a determinant, see _det_work): each of _packed_quotient's
# divmods, _det_core's integer determinants, schur's alternants and
# pairings, qanalogs' q-binomial chains and the passes of planepartitions.zq
# charge their predicted byte steps against it before they run (a chain
# step took 0.38-0.75 ns on 9 chains of r = 199 to 100,000 at 4- to 40-byte
# points, so a chain at the limit would take 3.8-7.5 s).  CPython's divmod
# is quadratic, about 0.13 ns per byte of the quotient times byte of the
# divisor, so a divmod charges a quarter of the product of the numerator's
# and the divisor's bytes: bialternant((1,), (0, 10**5)) divides 200,000 by
# 100,000 bytes, 5.0 * 10**9 steps, in 1.2 s, and (0, 10**6) would take
# minutes for 5.0 * 10**11 steps.
_MAX_BIGINT_WORK = 10**10

# struct codes of the native signed C integers, by their size in bytes.  A
# cast reads the machine's byte order and the digits are little-endian, so
# a big-endian host has none and reads every width digit by digit.
_NATIVE_SIGNED = {calcsize(code): code for code in "bhiq"} if sys.byteorder == "little" else {}

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
    raw = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    h = _halves(len(coeffs), width)
    return (int.from_bytes(raw, "little") ^ h) - h


def _unpack(value: int, digits: int, width: int) -> list[int]:
    """Signed base-X digits of value, lowest first, inverse of _pack.

    Raises OverflowError unless every digit lies in [-X/2, X/2).  On a
    little-endian host, a width of a native C integer is read by one
    memoryview cast, about 10x faster than the per-digit loop that other
    widths take.
    """
    h = _halves(digits, width)
    raw = memoryview(((value + h) ^ h).to_bytes(digits * width, "little"))
    code = _NATIVE_SIGNED.get(width)
    if code is not None:
        return raw.cast(code).tolist()
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, digits * width, width)]


def _unpack_poly(value: int, low: int, digits: int, width: int) -> "LaurentPoly":
    """The polynomial sum_k c_k * q**(low + k), c_k the ``_unpack`` digits of value."""
    return _canonical({low + k: c for k, c in enumerate(_unpack(value, digits, width)) if c})


def _packed_quotient(num: int, den: int, low: int, width: int,
                     num_max: int | None = None, den_norm: int = 0) -> "LaurentPoly":
    """The exact quotient A / B of two packed polynomials, unpacked once.

    num = A(X) and den = B(X) at X = 2**(8*width), every coefficient of A
    and of B in [-X/2, X/2); the quotient's digit 0 is the exponent low.
    The powers of X that divide each are stripped, so the quotient is a
    polynomial, and one divmod gives Q(X).  A remainder raises NotDivisible
    at once, as a proof: q -> X is a ring homomorphism, and A = B * Q would
    make A(X) = B(X) * Q(X).
    Every divmod whose work, a quarter of the product of the two operands'
    bytes, passes ``_MAX_BIGINT_WORK`` raises ValueError before it runs.
    Q's digits are its coefficients when the caller's width bounds them a
    priori (num_max None).  Otherwise Q is proven after the fact: P = A - B*Q
    vanishes at X, and each coefficient of P is at most
    num_max + den_norm * max|Q|, num_max bounding those of A and den_norm
    the absolute sum of those of B; below X, that forces P = 0.  Else the
    digits of A and B are packed again at the wider of the bound's width
    and twice the last, at most three widths in all, and then
    ``_long_div`` decides.
    """
    if not num:
        return _ZERO
    unit = 8 * width
    v_num, v_den = (((x & -x).bit_length() - 1) // unit for x in (num, den))
    num >>= unit * v_num
    den >>= unit * v_den
    low += v_num - v_den
    coeffs = None
    for _ in range(3):
        if coeffs is not None:
            num, den = (_pack(c, width) for c in coeffs)
        num_bytes, den_bytes = ((x.bit_length() + 7) // 8 for x in (num, den))
        work = num_bytes * den_bytes // 4
        if work > _MAX_BIGINT_WORK:
            raise ValueError(f"a packed quotient of {num_bytes} by {den_bytes} bytes would take "
                             f"{work} division steps, over the limit of {_MAX_BIGINT_WORK}")
        quot, rem = divmod(num, den)
        if rem:
            raise NotDivisible("remainder in packed division")
        # a candidate's top digit may carry past quot's bit length
        q = _unpack_poly(quot, low, quot.bit_length() // unit + 2, width)
        if num_max is None:
            return q
        bound = num_max + den_norm * max(map(abs, q._terms.values()))
        if bound.bit_length() <= unit:
            return q
        if coeffs is None:
            coeffs = [_unpack(x, x.bit_length() // unit + 1, width) for x in (num, den)]
        width = max(bound.bit_length() // 8 + 1, 2 * width)
        unit = 8 * width
    ca, cb = coeffs
    return _long_div({low + i: c for i, c in enumerate(ca) if c},
                     {i: c for i, c in enumerate(cb) if c})


def _kronecker_mul(a: Mapping[int, int], b: Mapping[int, int]) -> "LaurentPoly":
    """Product of two nonzero term dicts by one big-integer multiplication."""
    low_a, ca = _dense(a)
    low_b, cb = _dense(b)
    # |c_k| <= min(#terms) * max|a_i| * max|b_j| < 2**bits <= X/2
    bits = (max(map(abs, ca)).bit_length() + max(map(abs, cb)).bit_length()
            + min(len(a), len(b)).bit_length())
    width = bits // 8 + 1
    digits = len(ca) + len(cb) - 1
    return _unpack_poly(_pack(ca, width) * _pack(cb, width), low_a + low_b, digits, width)


def _long_div(a: Mapping[int, int], b: Mapping[int, int]) -> "LaurentPoly":
    """Quotient a / b of nonzero term dicts by long division; NotDivisible on a remainder.

    ValueError once its charge, see ``_UPDATE_STEPS``, passes ``_MAX_SERIES_WORK``.
    """
    av, bv = min(a), min(b)
    rem = {e - av: c for e, c in a.items()}
    div = {e - bv: c for e, c in b.items()}
    bdeg = max(div)
    blead = div[bdeg]
    quot: dict[int, int] = {}
    steps = 0
    while rem:
        steps += len(rem) + _UPDATE_STEPS * len(div)
        if steps > _MAX_SERIES_WORK:
            raise ValueError(f"a long division of {len(a)} by {len(b)} terms would take {steps} "
                             f"or more steps, over the limit of {_MAX_SERIES_WORK}")
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
        if isinstance(other, int) and not isinstance(other, bool):
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
        # a span is at least the number of terms, so this also bounds those
        if len(a) * len(b) >= _KRONECKER_CUTOFF * (_span(a) + _span(b)):
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
        if not _is_int(e):
            raise TypeError("shift exponent must be an int")
        return _canonical({k + e: c for k, c in self._terms.items()})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises NotDivisible on any remainder.

        Works over the Laurent ring: both operands are shifted to ordinary
        polynomials, divided over the integers, and the quotient is shifted
        back.  Coefficient divisions must also be exact.

        When the long division's term pairs (divisor terms times the
        expected quotient terms) reach ``_KRONECKER_CUTOFF`` times the
        dividend's span, both operands are packed and divided by
        ``_packed_quotient``, proven from max|self| and the divisor's
        absolute sum, else by ``_long_div``.  Either raises NotDivisible on
        a remainder, and ValueError past its work limit.
        """
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        a, b = self._terms, other._terms
        digits = _span(a) - _span(b) + 1
        if len(b) * (len(a) - len(b) + 1) >= _KRONECKER_CUTOFF * _span(a) and digits > 0:
            low_a, ca = _dense(a)
            low_b, cb = _dense(b)
            max_a = max(map(abs, ca))
            overlap = min(len(b), digits)  # products summed into one coefficient of B*Q
            # both operands must pack: |c| < X/2 for every coefficient of A and of B
            bits = max(max_a, max(map(abs, cb))).bit_length() + overlap.bit_length() + 2
            width = bits // 8 + 1
            return _packed_quotient(_pack(ca, width), _pack(cb, width), low_a - low_b,
                                    width, max_a, sum(map(abs, cb)))
        return _long_div(a, b)

    # ---- comparison / hashing ----

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it
        terms = self._terms
        if terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    # ---- serialization / display ----

    def to_pairs(self) -> list[list]:
        """Wire format: [[exponent, coefficient-as-decimal-string], ...] ascending."""
        return [[e, str(c)] for e, c in self.terms()]

    def _wire_json(self) -> str:
        """The JSON text of ``to_pairs()``, byte for byte what ``json.dumps`` writes."""
        return "[" + ", ".join([f'[{e}, "{c}"]' for e, c in sorted(self._terms.items())]) + "]"

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
    a polynomial R of degree D = (sum a - sum b) / g in t.  Since
    t**a * (1 - t**(-a)) = -(1 - t**a), it is palindromic up to sign,
    t**D * R(1/t) = (-1)**F * R(t) with F the sum of the net factor
    multiplicities, so its coefficients 0 .. D // 2 fix the rest.  Those
    are evaluated modulo t**(D // 2 + 1), which is exact: a list of
    D // 2 + 1 coefficients is multiplied by each (1 - t**a) in place and
    divided by each (1 - t**b) as a strided prefix sum, a factor with
    exponent above D // 2 being 1 at that precision, and the list is then
    mirrored to the D + 1 coefficients of R.  When D + 1 exceeds
    ``_MAX_DENSE_COEFFS`` the ratio raises ValueError before any list is
    built.  Each net factor with exponent at most D // 2 takes one pass
    over the D // 2 + 1 slots per unit of its multiplicity, so a ratio
    whose passes times slots exceed ``_MAX_SERIES_WORK`` raises ValueError
    too, before the series starts.
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
    if deg + 1 > _MAX_DENSE_COEFFS:
        raise ValueError(f"ratio of q-products has degree D = {deg} in q**{g}; its "
                         f"D + 1 coefficients exceed the limit of {_MAX_DENSE_COEFFS}")
    half = deg // 2
    work = sum(abs(k) for e, k in net.items() if e <= half) * (half + 1)
    if work > _MAX_SERIES_WORK:
        raise ValueError(f"ratio of q-products has degree D = {deg} in q**{g}; its series "
                         f"would take {work} slot-passes, over the limit of {_MAX_SERIES_WORK}")
    coeffs = _dense_series(net, deg)
    return _canonical({shift + g * k: sign * c for k, c in enumerate(coeffs) if c})


def _dense_series(net: Mapping[int, int], deg: int) -> list[int]:
    """Coefficients of prod (1 - t**e)**k over net, a polynomial of degree deg.

    Only the coefficients up to deg // 2 are computed; the others follow
    from the palindrome c_(deg-i) = (-1)**F * c_i, F = sum k (see q_ratio).
    """
    half = deg // 2
    s = [1] + [0] * half
    for e, k in net.items():
        if e > half:
            continue
        for _ in range(k):
            s[e:] = list(map(sub, s[e:], s))
        for _ in range(-k):
            for r in range(e):
                s[r::e] = accumulate(s[r::e])
    mirror = s[:deg - half][::-1]
    if sum(net.values()) & 1:
        mirror = [-c for c in mirror]
    return s + mirror


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

    def __iter__(self) -> Iterator[tuple[LaurentPoly, ...]]:
        return iter(self._rows)


def det_fraction_free(m: PolyMatrix) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination or expansion by minors.

    Integer matrices go through it too: PolyMatrix embeds ints as
    constants, so ``det_fraction_free(PolyMatrix(rows)).coeff(0)`` is the
    integer determinant of ``rows``.  ``_det_core`` is fed each entry's
    valuation, degree and |a|_1, the sum of its absolute coefficients, and
    its values at q = +-Y, packed from its coefficients by
    ``_evaluate_matrix``.

    Every Bareiss division is exact by Sylvester's identity, for any
    nonzero pivot; a remainder would mean corrupted arithmetic, so it is
    converted into a hard internal error.  Pivoting takes the first
    nonzero entry in column order with a full row swap and sign tracking;
    an all-zero pivot column, or an all-zero row, gives 0.
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
    a = [[x._terms for x in row] for row in m]
    facts = [[(min(t), max(t), sum(map(abs, t.values()))) if t else None for t in row]
             for row in a]
    return _det_core(facts, partial(_evaluate_matrix, a))


# half -> the values of q**(-v) * a, v the valuation of entry a, at q = Y and at q = -Y
_Values = Callable[[int], tuple[list[list[int]], list[list[int]]]]


def _det_core(facts: list[list[tuple[int, int, int] | None]], values: _Values,
              nonnegative: bool = False) -> LaurentPoly:
    """The determinant of n >= 1 rows from four facts per entry.

    facts[i][j] is None for a zero entry, else (v, d, w): the entry's
    valuation v, its degree d, and w, its |a|_1 or, with ``nonnegative``,
    its value a(1) at q = 1.  values(half) gives the matrices of the
    values of q**(-v) * a_ij at q = Y and at q = -Y, Y = 2**(8*half), 0
    for a zero entry; the core applies every row and column shift itself.
    Nothing else of an entry is read, so a caller that knows these facts
    in closed form builds no coefficient list (``qanalogs._qbinomial_det``).

    Row i is shifted by q**(-v_i), v_i its least valuation.  When the row
    spans sum to S = 0, every entry is c_ij * q**v_i and the determinant
    is q**(sum v_i) det(c_ij), eliminated on the ints c_ij, the values of
    the entries at any point once their valuations are taken out.
    Otherwise column j is shifted by q**(-c_j), c_j the least valuation
    left in it (0 for an all-zero column), so every entry is a polynomial
    and a power of q that a whole column shares is not evaluated: the
    value of entry (i, j) at q = +-Y is that of q**(-v_ij) * a_ij times
    (+-Y)**(v_ij - v_i - c_j), a shift that is negated at -Y when its
    exponent is odd, one pass over the matrix.  The determinant D of the
    shifted entries has degree at most
    S' = sum_i max_j (deg a_ij - v_i - c_j) <= S.  By the Leibniz
    expansion its coefficients are at most
    B = prod_i sum_j |a_ij|_1, which no shift changes.  With
    ``nonnegative``, every coefficient is at most D(1), and B is
    D(1) = det M(1), eliminated by ``_bareiss`` on the values a_ij(1);
    B <= 0 disproves the flag and raises RuntimeError.  W is the least
    width with 2**(8*W-1) > B.  ``_two_point_det`` recovers D from the two
    integer determinants at q = Y and q = -Y, Y = 2**(8*ceil(W/2)); Y**2 >
    2B proves its digits, whichever integer routine ran, and an entry's
    own coefficients may be wider.  With the flag, a tripwire also requires
    every recovered coefficient to be nonnegative and their sum to be
    D(1), else RuntimeError.  A matrix of at most ``_MINORS_DET_MAX_ROWS``
    rows whose W * S reaches ``_MINORS_DET_MIN_BYTES`` is expanded by
    minors, which has no division and multiplies each large entry into a
    minor of the smaller rows, any other eliminated by Bareiss; W and this
    choice use the row shifts alone.  Every matrix, of zero span too, is
    charged by ``_det_work`` from the degrees of its shifted entries, and
    one whose charge passes ``_MAX_BIGINT_WORK`` raises ValueError before
    ``values`` is called; so is the elimination of det M(1), as the integer
    matrix of zero span it is, at the width of its own Leibniz bound,
    which is at most B and is computed in place of B.
    """
    n = len(facts)
    lows, span = [], 0
    for row in facts:
        present = [f for f in row if f]
        if not present:
            return _ZERO
        low = min(present)[0]
        lows.append(low)
        span += max([f[1] for f in present]) - low
    if nonnegative:
        # M(1), bounded by its own Leibniz product, which is at most B
        at_one = [[f[2] if f else 0 for f in row] for row in facts]
        bound = prod([sum(map(abs, row)) for row in at_one])
    else:
        bound = prod([sum([f[2] for f in row if f]) for row in facts])
    width = bound.bit_length() // 8 + 1
    if not span or nonnegative:
        # every entry is c_ij * q**v_i at zero span, of degree 0 once its
        # row is shifted; M(1), eliminated first when the flag is set, is
        # such a matrix too
        _charge(n, *_det_work([[0] * n] * n, width, 0))
    try:
        if not span:
            # D = q**(sum v_i) * det(c_ij)
            value = _bareiss(values(1)[0])
            return _canonical({sum(lows): value}) if value else _ZERO
        if nonnegative:
            bound = _bareiss(at_one)
            if bound <= 0:
                raise RuntimeError(f"a determinant flagged nonnegative has the value {bound} "
                                   f"at q = 1")
            width = bound.bit_length() // 8 + 1
    except NotDivisible as exc:
        raise RuntimeError("fraction-free elimination lost exactness") from exc
    # c_j, the least valuation of column j once the rows are shifted
    cols = [min([f[0] - low for f, low in zip(col, lows) if f], default=0)
            for col in zip(*facts)]
    # a zero entry's degree, below any that a potential can reach
    absent = -span - 1
    degrees = [[f[1] - low - c if f else absent for f, c in zip(row, cols)]
               for row, low in zip(facts, lows)]
    minors, size, work = _det_work(degrees, width, span)
    _charge(n, minors, size, work)
    half = (width + 1) // 2
    unit = 8 * half
    try:
        plus, minus = values(half)
        # the shifted entry (i, j) is q**(v_ij - v_i - c_j) times the one evaluated
        for row, row_plus, row_minus, low in zip(facts, plus, minus, lows):
            for j, (f, c) in enumerate(zip(row, cols)):
                k = f[0] - low - c if f else 0
                if k:
                    row_plus[j] <<= unit * k
                    row_minus[j] = (-(row_minus[j] << unit * k) if k & 1
                                    else row_minus[j] << unit * k)
        det = _two_point_det(plus, minus, sum(lows) + sum(cols), sum(map(max, degrees)), width,
                             _minors_det if minors else _bareiss)
    except (NotDivisible, OverflowError) as exc:
        raise RuntimeError("fraction-free elimination lost exactness") from exc
    if nonnegative and (min(det._terms.values(), default=0) < 0
                        or det.eval_at_one() != bound):
        raise RuntimeError("a determinant flagged nonnegative lost exactness")
    return det


def _charge(n: int, minors: bool, size: int, work: int) -> None:
    """Refuse a determinant whose ``_det_work`` charge passes ``_MAX_BIGINT_WORK``."""
    if work > _MAX_BIGINT_WORK:
        raise ValueError(f"a determinant of {n} rows and {size} bytes would take {work} "
                         f"{'minor' if minors else 'elimination'} steps, "
                         f"over the limit of {_MAX_BIGINT_WORK}")


def _det_work(degrees: list[list[int]], width: int, span: int) -> tuple[bool, int, int]:
    """(minors, M, work): _det_core's integer routine and its charge.

    degrees[i][j] is the degree of entry (i, j) once its row and its column
    are shifted, and below -S for a zero entry, every row holding a
    nonzero one (at zero span the degrees are not read).  width is W, from
    the Leibniz bound or from D(1) (see ``_det_core``), and span the
    row-shifted S >= S'.  Potentials with degrees[i][j] <= u_i + v_j
    on every nonzero entry bound the degree of the minor on rows I and
    columns J by the sum of u over I and of v over J, whichever permutation
    of the Leibniz expansion wins: u_i starts at the row's largest degree,
    v_j is then the least that holds column j, and u_i the least that
    holds row i.  A Toeplitz matrix such as ``schur.h_determinant``'s has
    u_i + v_j equal to its degrees, so its banded minors are charged their
    own degrees, not the row spans.  M = W * (d + 1) bytes, the
    determinant's d + 1 coefficients at width W, d = sum(u) + sum(v) >=
    deg D; d < 0 only when every permutation meets a zero entry, and M is
    then W.

    The expansion by minors (``minors`` True, as ``_det_core``'s
    docstring chooses it) is charged 2**n * M * isqrt(M) steps: 2**n
    states, each a Karatsuba product of about M * sqrt(M).  Bareiss is
    charged as ``_packed_quotient`` charges a divmod, a quarter of the
    product of the numerator's and the divisor's bytes, summed over its
    divisions, with the rows in their order (a row swap, which only a
    vanishing leading minor makes, is not foreseen).  Step k, 0 < k < n - 1,
    divides m*m numerators, m = n - 1 - k, by the leading minor of order k,
    and each quotient is a minor of order k + 2 on the leading k + 1 rows
    and columns, row i and column j; a minor of degree at most e is taken
    as half * (e + 2) bytes at q = +-Y, half = ceil(W/2), and a numerator
    as its quotient's bytes plus its divisor's.  At the width of D(1), the
    coefficients of an entry, and so of a minor, may pass Y: no
    coefficient has to fit in half bytes, and a value is then wider than
    its charge by its carries, which are not charged; the second
    calibration below is taken at that width, carries included.

    CPython 3.11, one run with the limit lifted, at the Leibniz width:
    0.34-1.15 ns per minor step (median 0.76) on 27 matrices of 7.9 K to
    430 K bytes, from genfunc_det_forms of 3 to 10 rows and hdet and gvdet
    of 3 and 6, and 0.44-0.92 ns per elimination step (median 0.65) on 39,
    genfunc_det_forms of 8 to 16 rows (banded h matrices among them), the
    h matrix of (1**20) and monomial alternants of 15 to 18 rows; so the
    limit is 3.4 to 11.5 s of elimination.  At the width of D(1), timing
    the determinant alone, best of 2: 0.21-0.84 ns per minor step
    (median 0.58) on 30 h and gv matrices of 3.5 K to 406 K bytes, from
    genfunc_det_forms of 4 to 10 rows and hdet and gvdet of 3 to 8, the
    largest hdet of (20**6) in 60 variables, 9.3 * 10**9 steps in 7.0 s;
    and 0.52-0.91 ns per elimination step (median 0.64) on the 8 of at
    least 10**8 steps among 10 genfunc_det_forms of 12 to 16 rows (those
    of (14, 5, 1), 3.6 * 10**7 steps in 0.05 s, read 1.24 and 1.29).  So
    the limit stays within 2.1 to 9.1 s there.
    """
    n = len(degrees)
    if not span:
        # every minor is one coefficient, 2 * half bytes: step k divides
        # m*m numerators of 4 * half bytes by 2 * half, 2 * (half * m)**2
        # steps, summed over m = n - 2 .. 1.  The loop below gives the same
        # sum; this takes 1 us where it takes 9-11 us at 3 and 4 rows
        # (CPython 3.11), and every monomial matrix and every M(1) of a
        # nonnegative determinant is charged here
        half = (width + 1) // 2
        return False, width, half * half * (n - 2) * (n - 1) * (2 * n - 3) // 3
    # 0 <= u_i <= S' and -S' <= v_j <= 0, so no zero entry sets a maximum
    # but an all-zero column's, whose v_j is taken as 0
    u = list(map(max, degrees))
    v = [max(map(sub, col, u)) for col in zip(*degrees)]
    v = [0 if y < -span else y for y in v]
    u = [max(map(sub, row, v)) for row in degrees]
    tail = sum(u) + sum(v)
    # negative only when no permutation avoids a zero entry, and D = 0
    size = width * (max(tail, 0) + 1)
    minors = 0 < span and n <= _MINORS_DET_MAX_ROWS and width * span >= _MINORS_DET_MIN_BYTES
    if minors:
        return True, size, size * isqrt(size) << n
    half = (width + 1) // 2
    work = lead = 0
    for k in range(n - 1):
        tail -= u[k] + v[k]
        if k:
            m = n - 1 - k
            prev = half * (max(lead, 0) + 2)
            quotients = half * max(0, m * m * (lead + u[k] + v[k] + 2) + m * tail)
            work += (quotients + m * m * prev) * prev // 4
        lead += u[k] + v[k]
    return False, size, work


def _two_point_det(plus: list[list[int]], minus: list[list[int]], low: int, span: int,
                   width: int, det: Callable[[list[list[int]]], int]) -> "LaurentPoly":
    """``_det_core``'s determinant, from its values at q = Y and q = -Y.

    plus and minus hold the shifted entries' values at q = Y and q = -Y,
    Y = 2**(8*half), half = ceil(width / 2), so Y**2 >= 2**(8*width); the
    determinant D(q) of those entries has degree at most span, and the
    result is q**low * D.  The integer routine ``det``, exact on any int
    matrix, gives D(Y) and D(-Y).  With D(q) = E(q**2) + q * O(q**2), they
    give O(Y**2) = (D(Y) - D(-Y)) / (2Y) and E(Y**2) = D(-Y) + Y * O(Y**2);
    the division must be exact, else NotDivisible, and it also makes
    D(Y) + D(-Y) even.  The coefficients of E and O are those of D, below
    2**(8*width-1) <= Y**2 / 2, so their digits at width 2 * half are
    exact and interleave to D.
    """
    half = (width + 1) // 2
    unit = 8 * half
    at_minus = det(minus)
    twice_odd = det(plus) - at_minus
    if twice_odd & ((2 << unit) - 1):
        raise NotDivisible("remainder in the two-point recovery")
    odd = twice_odd >> (unit + 1)
    even = at_minus + (odd << unit)
    coeffs = [0] * (span + 1)
    coeffs[0::2] = _unpack(even, span // 2 + 1, 2 * half)
    coeffs[1::2] = _unpack(odd, (span + 1) // 2, 2 * half)
    return _canonical({low + k: c for k, c in enumerate(coeffs) if c})


def _evaluate_matrix(a: list[list[Mapping[int, int]]],
                     half: int) -> tuple[list[list[int]], list[list[int]]]:
    """``det_fraction_free``'s values of q**(-v) * a[i][j] at q = +-Y, v the entry's valuation.

    Y = 2**(8*half).  A monomial c * q**v is c.  An entry of two terms or
    more is packed by its even and by its odd coefficients, both at width
    2 * half: at the Leibniz width W, each coefficient is at most
    |a_ij|_1 <= B < 2**(8*W-1) <= Y**2 / 2, so it fits in one digit.
    """
    unit = 8 * half
    plus, minus = [], []
    for row in a:
        row_plus, row_minus = [], []
        for terms in row:
            if len(terms) > 1:
                even, odd = _evaluate_halves(terms, half)
                row_plus.append(even + (odd << unit))
                row_minus.append(even - (odd << unit))
            else:
                # the coefficient of a monomial, 0 for a zero entry
                value = sum(terms.values())
                row_plus.append(value)
                row_minus.append(value)
        plus.append(row_plus)
        minus.append(row_minus)
    return plus, minus


def _evaluate_halves(terms: Mapping[int, int], half: int) -> tuple[int, int]:
    """(E(Y**2), O(Y**2)) for q**(-v) * terms = E(q**2) + q * O(q**2), Y = 2**(8*half).

    v = min(terms), the valuation.  Every coefficient must lie in
    [-Y**2/2, Y**2/2), else ``_pack`` raises OverflowError.
    """
    coeffs = _dense(terms)[1]
    return _pack(coeffs[0::2], 2 * half), _pack(coeffs[1::2], 2 * half)


def _int_exact_div(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    if rem:
        raise NotDivisible("remainder in integer division")
    return quot


def _minors_det(a: list[list[int]]) -> int:
    """Determinant of the n x n int list a, n >= 1, by Laplace expansion over minors.

    One dynamic program over column sets, with no division: the state
    after r rows is a set T of r columns with the minor of those rows on
    T, and the next row extends it by each free column c whose entry is
    nonzero, with the sign (-1) to the number of columns of T above c.
    The rows are taken in increasing order of the sum of their entries'
    bit lengths, so each large entry multiplies a minor of the small rows,
    and the sign of that reordering is folded into the result.
    """
    n = len(a)
    order = sorted(range(n), key=lambda i: sum(x.bit_length() for x in a[i]))
    odd = sum(i > j for k, j in enumerate(order) for i in order[:k]) & 1
    level = {0: 1}
    for i in order:
        # (bit, entry) per column, the highest column first
        steps = [(1 << c, x) for c, x in reversed(list(enumerate(a[i])))]
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, value in level.items():
            above = 0
            for bit, x in steps:
                if mask & bit:
                    above ^= 1
                elif x:
                    nxt[mask | bit] = (get(mask | bit, 0) - value * x if above
                                       else get(mask | bit, 0) + value * x)
        level = nxt
    value = level.get((1 << n) - 1, 0)
    return -value if odd else value


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the n x n int list a, n >= 1, by Bareiss elimination in place.

    Each step divides by the last pivot through ``_int_exact_div``, which
    raises NotDivisible on a remainder.
    """
    exact_div = _int_exact_div
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - lead * row_k[j]
                row_i[j] = num if prev is None else exact_div(num, prev)
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d
