"""Exact formal-series machinery.

Two representations are used throughout the package:

- :class:`Egf`, a truncated power series sum c_n z^n with exact rational
  coefficients, stored as the integers nums[n] = n! * c_n * den over one
  positive common denominator den in lowest terms.  For the exponential
  generating function of a counting sequence den is 1 and nums are the
  counts themselves; a product is a binomial convolution of integers, and a
  count is an exact division.  Fractions appear only where a caller asks
  for a coefficient or scales by a rational weight.
- :class:`SqrtPoly`, a finite Laurent polynomial in x = sqrt(1 - 2z).  Every
  closed-form generating function handled here normalises into this algebra
  (z itself is (1 - x^2)/2).

All arithmetic is exact; nothing in this module rounds.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from phylocount.records import Record


def double_factorial(n: int) -> int:
    """Odd double factorial n!! with the conventions (-1)!! = 1, (-3)!! = -1.

    Arguments below -3 are rejected; use :func:`double_factorial_cont` when
    the analytic continuation is required.
    """
    if n % 2 == 0:
        raise ValueError(f"double_factorial is defined for odd n, got {n}")
    if n == -1:
        return 1
    if n == -3:
        return -1
    if n < -3:
        raise ValueError(f"double_factorial({n}) needs the rational continuation")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def double_factorial_cont(n: int) -> Fraction:
    """Odd double factorial continued to all negative odd n.

    For n = -(2m+1) the continuation is (-1)^m / (2m-1)!!, which reproduces
    (-1)!! = 1 and (-3)!! = -1 and is consistent with n!! = n (n-2)!!.
    """
    if n % 2 == 0:
        raise ValueError(f"double_factorial_cont is defined for odd n, got {n}")
    if n >= -3:
        return Fraction(double_factorial(n))
    m = (-n - 1) // 2
    return Fraction((-1) ** m, double_factorial(2 * m - 1))


def rational_binomial(alpha: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, n) for rational alpha.

    With alpha = p/q in lowest terms, C(alpha, n) is the integer product of
    p - i q over i < n, divided by q^n n!; one Fraction is built at the end.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = alpha.numerator, alpha.denominator
    num = 1
    for i in range(n):
        num *= p - i * q
    return Fraction(num, q**n * math.factorial(n))


def sqrt_pow_coeff(d: int, n: int) -> Fraction:
    """Exact coefficient of z^n in (1 - 2z)^(d/2), valid for every n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(-2) ** n * rational_binomial(Fraction(d, 2), n)


def sqrt_pow_coeffs(d: int, n_max: int) -> list[Fraction]:
    """Exact coefficients of z^0..z^n_max in (1 - 2z)^(d/2), by the ratio
    recurrence c_0 = 1, c_n = c_(n-1) (2(n-1) - d) / n."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    coeffs = [Fraction(1)]
    for n in range(1, n_max + 1):
        coeffs.append(coeffs[-1] * (2 * (n - 1) - d) / n)
    return coeffs


def sqrt_pow_coeff_formula(d: int, n: int) -> Fraction:
    """Coefficient of z^n in (1 - 2z)^(d/2) by the four-case double-factorial formula.

    The formula is only guaranteed for n at or beyond a small threshold that
    depends on d; see :func:`formula_threshold`.  Double factorials of
    negative arguments are continued rationally so the expression always
    evaluates.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d >= 0 and d % 2 == 0:
        return Fraction(0)
    if d >= 0:  # d odd
        k = (d - 1) // 2
        sign = (-1) ** (k + 1)
        return (
            sign
            * double_factorial(2 * k + 1)
            * double_factorial_cont(2 * n - 2 * k - 3)
            / math.factorial(n)
        )
    if d % 2 == 0:  # d negative even
        k = -d // 2
        return Fraction(2**n * math.comb(n + k - 1, k - 1))
    k = -(d - 1) // 2  # d negative odd
    return (
        double_factorial_cont(2 * n + 2 * k - 3)
        / double_factorial_cont(2 * k - 3)
        / math.factorial(n)
    )


def validated_from(agrees: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest n0 >= lo such that agrees(n) holds for every n in [n0, hi].

    Scans down from hi and stops at the first disagreement; raises
    ArithmeticError when agrees(hi) itself fails.
    """
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    n = hi
    while n >= lo and agrees(n):
        n -= 1
    if n == hi:
        raise ArithmeticError(f"still no agreement at n={hi}")
    return n + 1


# the exponents d and the last coefficient n the formula thresholds cover
FORMULA_EXPONENTS = range(-9, 10)
FORMULA_N_MAX = 60


def formula_threshold(d: int) -> int:
    """Smallest n0 such that the four-case formula agrees with the exact
    coefficient of z^n in (1-2z)^(d/2) for every n in [n0, FORMULA_N_MAX]."""
    exact = sqrt_pow_coeffs(d, FORMULA_N_MAX)
    return validated_from(lambda n: sqrt_pow_coeff_formula(d, n) == exact[n], 0, FORMULA_N_MAX)


def formula_threshold_table() -> dict[int, int]:
    """Validity thresholds of the coefficient formula for each d in FORMULA_EXPONENTS."""
    return {d: formula_threshold(d) for d in FORMULA_EXPONENTS}


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Egf(Record):
    """Truncated series sum_{n<=order} c_n z^n with exact rational coefficients.

    Stored as integer counts over one common denominator: nums[n] equals
    n! * c_n * den, with den > 0 and gcd(den, *nums) == 1, so equal values
    have equal fields, and equality and hash compare the fields.  A product
    is the binomial convolution of the counts.  Binary operations truncate
    to the smaller order of the two operands; nothing ever extends a
    truncation silently.  Instances are immutable.
    """

    __slots__ = _fields = ("nums", "den")
    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence):
        """Series with the given coefficients c_0, c_1, ... (ints or Fractions)."""
        if not coeffs:
            raise ValueError("an Egf needs at least the constant coefficient")
        scaled = []
        fact = 1
        for n, c in enumerate(coeffs):
            if n:
                fact *= n
            scaled.append(_as_fraction(c) * fact)
        den = math.lcm(*(c.denominator for c in scaled))
        nums = tuple(c.numerator * (den // c.denominator) for c in scaled)
        self._set(nums, den)

    @staticmethod
    def _of(nums: tuple[int, ...], den: int = 1) -> "Egf":
        """Series with counts `nums` over `den` > 0, normalised."""
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple(v // g for v in nums)
        egf = object.__new__(Egf)
        egf._set(nums, den)
        return egf

    @staticmethod
    def from_counts(counts: Sequence[int]) -> "Egf":
        """Series with coefficient counts[n] / n! (EGF of a counting sequence)."""
        nums = tuple(map(operator.index, counts))
        if not nums:
            raise ValueError("an Egf needs at least the constant coefficient")
        return Egf._of(nums)

    @staticmethod
    def zero(order: int) -> "Egf":
        return Egf._of((0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "Egf":
        return Egf._of((1,) + (0,) * order)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        out = []
        fact = 1
        for n, v in enumerate(self.nums):
            if n:
                fact *= n
            out.append(Fraction(v, fact * self.den))
        return tuple(out)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self.nums[n], math.factorial(n) * self.den)

    def count(self, n: int) -> int:
        """n! * c_n, checked to be an integer."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        value, rest = divmod(self.nums[n], self.den)
        if rest:
            raise ArithmeticError(
                f"coefficient of z^{n} is not 1/{n}! integral: {Fraction(self.nums[n], self.den)}"
            )
        return value

    def counts(self) -> list[int]:
        return [self.count(n) for n in range(self.order + 1)]

    def __add__(self, other: "Egf") -> "Egf":
        t = min(self.order, other.order) + 1
        a, b = self.nums[:t], other.nums[:t]
        da, db = self.den, other.den
        if da == db:
            return Egf._of(tuple(map(operator.add, a, b)), da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return Egf._of(tuple(x * ma + y * mb for x, y in zip(a, b)), da * ma)

    def __mul__(self, other) -> "Egf":
        if isinstance(other, Egf):
            t = min(self.order, other.order)
            return Egf._of(_binomial_convolution(self.nums, other.nums, t), self.den * other.den)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "Egf":
        f = _as_fraction(factor)
        p = f.numerator
        return Egf._of(tuple(v * p for v in self.nums), self.den * f.denominator)

    def diff(self, k: int = 1) -> "Egf":
        """k-fold formal derivative d^k/dz^k; the order drops by k.

        n! times the z^n coefficient of the derivative is (n+1)! c_{n+1}, so
        on counts the derivative is a shift."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > self.order:
            raise ValueError(f"cannot differentiate {k} times at order {self.order}")
        return Egf._of(self.nums[k:], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _binomial_convolution(a: Sequence[int], b: Sequence[int], t: int) -> tuple[int, ...]:
    """out[n] = sum_i C(n, i) a[i] b[n-i] for n <= t: the counts of the
    product of the EGFs with counts a and b."""
    out = [0] * (t + 1)
    ia = next((i for i in range(t + 1) if a[i]), None)
    ib = next((i for i in range(t + 1) if b[i]), None)
    if ia is None or ib is None:
        return tuple(out)
    rb = b[t::-1]  # rb[m] == b[t - m]
    row = [1]  # Pascal row n
    for n in range(1, ia + ib + 1):
        row = [1, *map(operator.add, row, row[1:]), 1]
    for n in range(ia + ib, t + 1):
        hi = n - ib + 1
        weighted = map(operator.mul, row[ia:hi], a[ia:hi])
        out[n] = sum(map(operator.mul, weighted, rb[t - n + ia : t - ib + 1]))
        row = [1, *map(operator.add, row, row[1:]), 1]
    return tuple(out)


class SqrtPoly(Record):
    """Finite Laurent polynomial sum_d a_d x^d in x = sqrt(1 - 2z).

    Terms are kept sorted by exponent with zero coefficients pruned, so
    equality of values is equality of term tuples.  Instances are immutable.
    """

    __slots__ = _fields = ("terms",)
    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: tuple[tuple[int, Fraction], ...]):
        self._set(terms)

    @staticmethod
    def of(mapping: Mapping[int, object] | Iterable[tuple[int, object]]) -> "SqrtPoly":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        acc: dict[int, Fraction] = {}
        for d, c in items:
            c = _as_fraction(c)
            if c:
                acc[d] = acc.get(d, Fraction(0)) + c
        return SqrtPoly(tuple(sorted((d, c) for d, c in acc.items() if c)))

    @staticmethod
    def zero() -> "SqrtPoly":
        return SqrtPoly(())

    @staticmethod
    def x_power(d: int, coeff=1) -> "SqrtPoly":
        return SqrtPoly.of({d: coeff})

    @staticmethod
    def from_z_poly(z_coeffs: Sequence) -> "SqrtPoly":
        """Image of the polynomial sum c_n z^n under z -> (1 - x^2)/2."""
        z_image = SqrtPoly.of({0: Fraction(1, 2), 2: Fraction(-1, 2)})
        result = SqrtPoly.zero()
        for c in reversed([_as_fraction(c) for c in z_coeffs]):
            result = result * z_image + SqrtPoly.of({0: c})
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "SqrtPoly") -> "SqrtPoly":
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc.get(d, Fraction(0)) + c
        return SqrtPoly.of(acc)

    def __sub__(self, other: "SqrtPoly") -> "SqrtPoly":
        return self + (-other)

    def __neg__(self) -> "SqrtPoly":
        return SqrtPoly(tuple((d, -c) for d, c in self.terms))

    def __mul__(self, other) -> "SqrtPoly":
        if isinstance(other, SqrtPoly):
            acc: dict[int, Fraction] = {}
            for d1, c1 in self.terms:
                for d2, c2 in other.terms:
                    d = d1 + d2
                    acc[d] = acc.get(d, Fraction(0)) + c1 * c2
            return SqrtPoly.of(acc)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "SqrtPoly":
        f = _as_fraction(factor)
        return SqrtPoly.of({d: c * f for d, c in self.terms})

    def __pow__(self, exponent: int) -> "SqrtPoly":
        if exponent < 0:
            raise ValueError("negative powers: divide explicitly with exact_div")
        result = SqrtPoly.of({0: 1})
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def exact_div(self, divisor: "SqrtPoly") -> "SqrtPoly":
        """Exact quotient self / divisor; raises if the division leaves a remainder."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return SqrtPoly.zero()
        a_min, a_max = self.terms[0][0], self.terms[-1][0]
        b_min, b_max = divisor.terms[0][0], divisor.terms[-1][0]
        deg_q = (a_max - a_min) - (b_max - b_min)
        if deg_q < 0:
            raise ArithmeticError("division is not exact (degree too small)")
        a = [Fraction(0)] * (a_max - a_min + 1)
        for d, c in self.terms:
            a[d - a_min] = c
        b = [Fraction(0)] * (b_max - b_min + 1)
        for d, c in divisor.terms:
            b[d - b_min] = c
        q = [Fraction(0)] * (deg_q + 1)
        for n in range(deg_q + 1):
            s = a[n]
            for i in range(max(0, n - len(b) + 1), n):
                s -= q[i] * b[n - i]
            q[n] = s / b[0]
        quotient = SqrtPoly.of({a_min - b_min + i: c for i, c in enumerate(q)})
        if quotient * divisor != self:
            raise ArithmeticError("division is not exact (nonzero remainder)")
        return quotient

    def diff_z(self) -> "SqrtPoly":
        """Derivative d/dz, using dx/dz = -1/x: a_d x^d -> -d a_d x^(d-2)."""
        return SqrtPoly.of({d - 2: -d * c for d, c in self.terms if d != 0})

    def coeff_z(self, n: int) -> Fraction:
        """Exact coefficient of z^n in the expansion around z = 0."""
        return sum((c * sqrt_pow_coeff(d, n) for d, c in self.terms), Fraction(0))

    def egf(self, order: int) -> Egf:
        """Truncated expansion as an :class:`Egf` of the given order."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        columns = [(c, sqrt_pow_coeffs(d, order)) for d, c in self.terms]
        return Egf(
            tuple(sum((c * col[n] for c, col in columns), Fraction(0)) for n in range(order + 1))
        )


def fit_sqrt_poly(series: Egf, exponents: Sequence[int]) -> SqrtPoly:
    """Find the SqrtPoly supported on the given exponents whose expansion
    matches `series`, verifying the fit on every remaining coefficient.

    Solves the linear system coefficient-by-coefficient with exact Gaussian
    elimination; raises if the system is singular or the tail disagrees.
    """
    exps = list(exponents)
    m = len(exps)
    if series.order + 1 < m:
        raise ValueError("series too short to determine the fit")
    rows = [[sqrt_pow_coeff(d, n) for d in exps] + [series.coeff(n)] for n in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular fit system; choose different exponents")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    fitted = SqrtPoly.of({d: rows[i][m] for i, d in enumerate(exps)})
    for n in range(m, series.order + 1):
        if fitted.coeff_z(n) != series.coeff(n):
            raise ArithmeticError(f"fit fails verification at z^{n}")
    return fitted


def polynomial_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    """Evaluate sum coeffs[i] x^i (constant coefficient first)."""
    result = Fraction(0)
    for c in reversed(list(coeffs)):
        result = result * x + c
    return result


def polynomial_interpolate(points: Sequence[tuple]) -> tuple[Fraction, ...]:
    """Monomial coefficients of the interpolating polynomial through `points`.

    Newton divided differences expanded to the monomial basis; exact.
    """
    xs = [_as_fraction(x) for x, _ in points]
    ys = [_as_fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    divided = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * n
    # Horner over the Newton basis: p(x) = d0 + (x-x0)(d1 + (x-x1)(...))
    for i in range(n - 1, -1, -1):
        new = [Fraction(0)] * n
        for j in range(n - 1):
            new[j + 1] += coeffs[j]
            new[j] -= xs[i] * coeffs[j]
        new[0] += divided[i]
        coeffs = new
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
