"""Series algebra: exact coefficients, Laurent forms, thresholds."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phylocount.series import (
    Egf,
    SqrtPoly,
    double_factorial,
    double_factorial_cont,
    fit_sqrt_poly,
    formula_threshold,
    formula_threshold_table,
    polynomial_eval,
    polynomial_interpolate,
    rational_binomial,
    sqrt_pow_coeff,
    sqrt_pow_coeff_formula,
    sqrt_pow_coeffs,
    validated_from,
)


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(-3) == -1
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-5)
    assert double_factorial_cont(-5) == Fraction(1, 3)
    assert double_factorial_cont(-7) == Fraction(-1, 15)


def test_sqrt_coeff_spot_values():
    # expand sqrt(1-2z) = 1 - z - z^2/2 - z^3/2 - ...
    assert sqrt_pow_coeff(1, 0) == 1
    assert sqrt_pow_coeff(1, 2) == Fraction(-1, 2)
    # 1/(1-2z) is the geometric series
    assert all(sqrt_pow_coeff(-2, n) == 2**n for n in range(10))
    # (1-2z)^(-3/2) = 1 + 3z + ...
    assert sqrt_pow_coeff(-3, 1) == 3


def test_sqrt_coeff_recurrence_matches_binomial_route():
    for d in range(-9, 10):
        assert sqrt_pow_coeffs(d, 40) == [sqrt_pow_coeff(d, n) for n in range(41)]
    assert sqrt_pow_coeffs(3, 0) == [1]
    with pytest.raises(ValueError):
        sqrt_pow_coeffs(1, -1)


def test_formula_case_spot_values():
    assert sqrt_pow_coeff_formula(1, 2) == Fraction(-1, 2)
    assert sqrt_pow_coeff_formula(-2, 5) == 32
    assert sqrt_pow_coeff_formula(-3, 1) == 3


def test_formula_thresholds_within_bound():
    table = formula_threshold_table()
    for d, n0 in table.items():
        assert n0 <= max(0, math.ceil(d / 2)) + 1
        for n in range(n0, 61):
            assert sqrt_pow_coeff_formula(d, n) == sqrt_pow_coeff(d, n)
    # positive even exponents are polynomials; the formula only sees the tail
    assert table[2] == 2 and table[4] == 3 and table[0] == 1
    # negative exponents agree everywhere
    assert all(table[d] == 0 for d in range(-9, 0))


def test_one_minus_root_expansion():
    series = SqrtPoly.of({0: 1, 1: -1}).egf(3)
    assert series.coeffs == (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 2))


def test_from_z_poly_images():
    assert SqrtPoly.from_z_poly([0, 1]) == SqrtPoly.of({0: Fraction(1, 2), 2: Fraction(-1, 2)})
    assert SqrtPoly.from_z_poly([1, -2]) == SqrtPoly.x_power(2)


def test_diff_z():
    x = SqrtPoly.x_power
    assert x(1).diff_z() == x(-1, -1)
    assert x(2).diff_z() == SqrtPoly.of({0: -2})
    assert SqrtPoly.zero().diff_z() == SqrtPoly.zero()


def test_exact_div_round_trip_and_failure():
    x = SqrtPoly.x_power
    one = SqrtPoly.of({0: 1})
    a = (one - x(1)) ** 2 * (one + x(1)) ** 3
    assert a.exact_div((one + x(1)) ** 3) == (one - x(1)) ** 2
    with pytest.raises(ArithmeticError):
        (one + x(1)).exact_div(one - x(1))


def test_egf_arithmetic():
    a = Egf([1, 2, 3])
    b = Egf([0, 1, 0, 7])
    assert (a * b).coeffs == (Fraction(0), Fraction(1), Fraction(2))  # truncates to min order
    assert (a + b).order == 2
    assert Egf([5]).diff(0) == Egf([5])
    assert Egf([5, 0, 0]).diff(1).is_zero()
    assert Egf([0, 0, 1]).diff(2) == Egf([2])
    with pytest.raises(ValueError):
        a.diff(5)


def test_egf_counts_require_integrality():
    egf = Egf.from_counts([0, 1, 3])
    assert egf.counts() == [0, 1, 3]
    broken = Egf([Fraction(1, 3)])
    with pytest.raises(ArithmeticError):
        broken.count(0)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def sqrt_polys():
    return st.dictionaries(
        st.integers(min_value=-6, max_value=6), small_fractions, max_size=4
    ).map(SqrtPoly.of)


@settings(max_examples=60, deadline=None)
@given(sqrt_polys(), sqrt_polys(), sqrt_polys())
def test_sqrtpoly_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(sqrt_polys())
def test_laurent_derivative_matches_series_derivative(a):
    assert a.diff_z().egf(7) == a.egf(8).diff(1)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fractions, min_size=1, max_size=5))
def test_z_poly_round_trip(coeffs):
    image = SqrtPoly.from_z_poly(coeffs)
    for n, c in enumerate(coeffs):
        assert image.coeff_z(n) == c
    assert image.coeff_z(len(coeffs)) == 0


def _fraction_product(a, b):
    """Cauchy product of two coefficient sequences, truncated to the shorter."""
    t = min(len(a), len(b))
    return tuple(sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(t))


def _fraction_diff(c, k):
    for _ in range(k):
        c = tuple(n * c[n] for n in range(1, len(c)))
    return tuple(c)


def egf_coefficients():
    """Coefficient lists of both kinds the package builds: arbitrary small
    rationals, and counting sequences (count / n!)."""
    counts = st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=9).map(
        lambda cs: [Fraction(c, math.factorial(n)) for n, c in enumerate(cs)]
    )
    return st.one_of(st.lists(small_fractions, min_size=1, max_size=9), counts)


@settings(max_examples=150, deadline=None)
@given(egf_coefficients(), egf_coefficients(), small_fractions, st.integers(0, 8))
def test_integer_kernel_matches_fraction_reference(ca, cb, factor, k):
    a, b = Egf(tuple(ca)), Egf(tuple(cb))
    assert a.coeffs == tuple(ca) and a.order == len(ca) - 1
    assert (a * b).coeffs == _fraction_product(ca, cb)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert a.scale(factor).coeffs == tuple(c * factor for c in ca)
    assert (factor * a) == a.scale(factor)
    k = min(k, a.order)
    assert a.diff(k).coeffs == _fraction_diff(ca, k)
    for n, c in enumerate(ca):
        value = c * math.factorial(n)
        if value.denominator == 1:
            assert a.count(n) == value.numerator
        else:
            with pytest.raises(ArithmeticError):
                a.count(n)
    # normalised storage: equal values are equal objects with equal hashes
    assert (a == b) == (tuple(ca) == tuple(cb))
    assert a == Egf(ca) and hash(a) == hash(Egf(ca))


def test_fit_sqrt_poly_recovers_known_form():
    x = SqrtPoly.x_power
    target = SqrtPoly.of({-3: Fraction(1, 2), -1: Fraction(-1, 2)})
    fitted = fit_sqrt_poly(target.egf(12), [-3, -1])
    assert fitted == target
    with pytest.raises(ArithmeticError):
        fit_sqrt_poly(x(1).egf(12), [-2, 0])  # wrong support cannot satisfy the tail


def test_twice_differentiated_block_form_matches_shift_series():
    from phylocount.verify import laurent_forms

    # B2'' = F2; the displays check ties F2 to block_series(2, 2)
    assert laurent_forms()[0, 2].diff_z().diff_z() == laurent_forms()[2, 2]


def _binomial_by_fractions(alpha: Fraction, n: int) -> Fraction:
    """Reference C(alpha, n): n Fraction products, then the division by n!."""
    value = Fraction(1)
    for i in range(n):
        value *= alpha - i
    return value / math.factorial(n)


def test_rational_binomial():
    assert rational_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert rational_binomial(Fraction(5), 2) == 10
    alphas = [Fraction(d, 2) for d in range(-9, 10)] + [Fraction(1, 3), Fraction(-7, 5)]
    for alpha in alphas:
        for n in range(61):
            assert rational_binomial(alpha, n) == _binomial_by_fractions(alpha, n), (alpha, n)


def test_polynomial_interpolation():
    points = [(Fraction(i), Fraction(2 * i * i - 5 * i + 3)) for i in range(5)]
    coeffs = polynomial_interpolate(points)
    assert coeffs == (Fraction(3), Fraction(-5), Fraction(2))
    assert polynomial_eval(coeffs, Fraction(10)) == 153


def test_series_values_are_immutable():
    egf, poly = Egf.from_counts([1, 1, 3]), SqrtPoly.x_power(-1)
    for value, field in ((egf, "nums"), (egf, "den"), (poly, "terms"), (egf, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, field, ())
    for value, field in ((egf, "nums"), (poly, "terms")):
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert egf == Egf.from_counts([1, 1, 3]) and poly == SqrtPoly.x_power(-1)


def test_formula_threshold_detects_polynomial_cutoffs():
    assert formula_threshold(6) == 4  # (1-2z)^3 has degree 3
    assert formula_threshold(1) == 0


def test_validated_from_finds_the_last_mismatch():
    assert validated_from(lambda n: True, 3, 20) == 3
    assert validated_from(lambda n: n not in (5, 9), 0, 20) == 10
    assert validated_from(lambda n: n != 2, 2, 20) == 3
    with pytest.raises(ArithmeticError):
        validated_from(lambda n: n < 20, 0, 20)
