"""Exact arithmetic for Laurent polynomials in one variable q.

Coefficients are Python ints, so they are arbitrary precision by
construction; exponents are ints and may be negative.  A polynomial is
stored as a sparse mapping from exponent to nonzero coefficient.  The
stored form is canonical (no zero coefficients), which makes structural
equality coincide with mathematical equality and lets values be hashed
and shared freely.  Instances are immutable by convention: no method
mutates ``self``.

The wire format used by the CLI and by identity reports is an ordered
list of ``[exponent, coefficient-as-decimal-string]`` pairs with strictly
increasing exponents; see :meth:`LaurentPoly.to_pairs`.

Division is exact or it is an error: :meth:`LaurentPoly.exact_div` raises
:class:`NotDivisible` whenever the quotient would leave a remainder.
Nothing in this module ever falls back to floating point or to rational
coefficients.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder."""


class LaurentPoly:
    """Sparse Laurent polynomial in q over the integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be ints")
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
        """Parse the wire format: iterable of (exponent, coeff-as-string) pairs."""
        terms: dict[int, int] = {}
        last = None
        for pair in pairs:
            e, c = pair
            e = int(e)
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
        if not self._terms or not o._terms:
            return _ZERO
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in o._terms.items():
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
        polynomials, divided by long division over the integers, and the
        quotient is shifted back.  Coefficient divisions must also be exact.
        """
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _ZERO
        av, bv = self.valuation(), other.valuation()
        rem = {e - av: c for e, c in self._terms.items()}
        div = {e - bv: c for e, c in other._terms.items()}
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

    Both products are formed in full and divided with exact_div, so a
    ratio that is not a Laurent polynomial raises NotDivisible.
    """
    num = _ONE
    for a in num_exponents:
        num = num * (_ONE - LaurentPoly.q_power(a))
    den = _ONE
    for b in den_exponents:
        den = den * (_ONE - LaurentPoly.q_power(b))
    return num.exact_div(den)


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
