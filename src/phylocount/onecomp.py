"""One-component building-block counts and the closed-form counts: the
baseline forms and the table of galled and visible forms.

The central quantity is ``block_count(leaves, rets)``: the number of
one-component galled networks with the given number of leaves and
reticulations whose reticulation leaves carry the fixed labels 1..rets.
Every multi-component count in the package is assembled from these blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from collections.abc import Iterator
from fractions import Fraction

from phylocount.series import (
    Egf,
    SqrtPoly,
    double_factorial,
    polynomial_eval,
    polynomial_interpolate,
)

_lock = threading.Lock()
# _block_table[k][l] == block_count(l, k); columns only grow, and column k is
# never longer than column k - 1
_block_table: list[list[int]] = []


def block_count(leaves: int, rets: int) -> int:
    """Number of one-component blocks with `leaves` leaves and `rets`
    reticulations, reticulation leaves labeled 1..rets.

    Zero outside 1 <= leaves and 0 <= rets <= leaves.  Values are produced by
    the two-term recurrence with a correction sum, filled bottom-up into a
    per-rets table; the correction is always even, which is checked rather
    than assumed.
    """
    if leaves < 1 or rets < 0 or rets > leaves:
        return 0
    table = _block_table
    if rets < len(table) and leaves < len(table[rets]):
        return table[rets][leaves]
    with _lock:
        _fill_block_table(leaves, rets)
        return table[rets][leaves]


def _fill_block_table(leaves: int, rets: int) -> None:
    """Extend columns 0..rets of the block table through row `leaves`."""
    table = _block_table
    for k in range(rets + 1):
        if k == len(table):
            table.append([0])
        column = table[k]
        if len(column) > leaves:
            continue
        # weights C(k-1, d) (2d-1)!! of the correction sum, d = 1..k-1
        weights = []
        odd_factorial = 1
        for d in range(1, k):
            odd_factorial *= 2 * d - 1
            weights.append(math.comb(k - 1, d) * odd_factorial)
        lower = [table[k - 1 - d] for d in range(1, k)]
        for l in range(len(column), leaves + 1):
            if l < k:
                value = 0
            elif k == 0:
                value = (2 * l - 3) * column[l - 1] if l > 1 else 1  # (2l-3)!!
            elif k == 1:
                value = (l - 1) * table[0][l]
            else:
                value = (l + k - 2) * table[k - 1][l] + (k - 1) * table[k - 2][l]
                diffs = [col[l - d] - col[l + 1 - d] for d, col in enumerate(lower, start=1)]
                correction = sum(map(operator.mul, weights, diffs))
                if correction % 2:
                    raise ArithmeticError(f"odd correction sum at (leaves={l}, rets={k})")
                value += correction // 2
                if value < 0:
                    raise ArithmeticError(f"negative block count at (leaves={l}, rets={k})")
            column.append(value)


def one_component_count(leaves: int, rets: int) -> int:
    """One-component networks with unrestricted leaf labels: C(leaves, rets)
    label choices times the block count."""
    if leaves < 0 or rets < 0 or rets > leaves:
        return 0
    return math.comb(leaves, rets) * block_count(leaves, rets)


def block_closed_one(leaves: int) -> int:
    """Closed form (leaves-1) (2 leaves - 3)!! for one reticulation."""
    return (leaves - 1) * double_factorial(2 * leaves - 3)


def block_closed_two(leaves: int) -> int:
    """Closed form (2l-1) (l-1)^2 (2l-5)!! for two reticulations (l >= 1)."""
    l = leaves
    return (2 * l - 1) * (l - 1) ** 2 * double_factorial(2 * l - 5)


def block_polynomial(rets: int) -> tuple[Fraction, ...]:
    """Coefficients of the polynomial p with
    block_count(l, rets) = p(l) * (2(l - rets) - 3)!! for all l >= rets.

    Interpolated from 2*rets+1 samples and verified on 2*rets+10 more; the
    degree (2*rets) and leading coefficient (2^rets) are asserted.
    """
    if rets < 1:
        raise ValueError("rets must be >= 1")
    k = rets

    def sample(l: int) -> Fraction:
        return Fraction(block_count(l, k), double_factorial(2 * (l - k) - 3))

    points = [(Fraction(l), sample(l)) for l in range(k, 3 * k + 1)]
    coeffs = polynomial_interpolate(points)
    for l in range(3 * k + 1, 5 * k + 11):
        if polynomial_eval(coeffs, Fraction(l)) != sample(l):
            raise ArithmeticError(f"block polynomial fails verification at l={l}")
    if len(coeffs) - 1 != 2 * k or coeffs[-1] != 2**k:
        raise ArithmeticError(
            f"block polynomial for rets={k} has degree {len(coeffs) - 1}, "
            f"leading coefficient {coeffs[-1]}"
        )
    return coeffs


def block_egf(rets: int, order: int) -> Egf:
    """Series sum_l block_count(l, rets) z^l / l!."""
    return Egf.from_counts([block_count(l, rets) for l in range(order + 1)])


def block_shift_egf(rets: int, order: int) -> Egf:
    """Series sum_l block_count(l + rets, rets) z^l / l!, the rets-fold
    derivative of :func:`block_egf` (`verify` checks the identity term by
    term)."""
    return Egf.from_counts([block_count(l + rets, rets) for l in range(order + 1)])


def tree_count(leaves: int) -> int:
    """(2 leaves - 3)!!, the number of binary phylogenetic trees."""
    if leaves < 1:
        raise ValueError("leaves must be >= 1")
    return double_factorial(2 * leaves - 3)


def single_reticulation_count(leaves: int) -> int:
    """l (2l-1)!! - 2^(l-1) l!, shared by every class at one reticulation
    (galled, reticulation-visible, tree-child, unrestricted)."""
    l = leaves
    if l < 1:
        raise ValueError("leaves must be >= 1")
    return l * double_factorial(2 * l - 1) - 2 ** (l - 1) * math.factorial(l)


def normal_two_reticulation_count(leaves: int) -> int:
    """Closed form for normal networks with two reticulations."""
    l = leaves
    if l < 1:
        raise ValueError("leaves must be >= 1")
    first = Fraction((3 * l - 4) * (l * l + 11 * l + 6), 3) * double_factorial(2 * l - 1)
    second = 2**l * (l + 2) * (3 * l - 4) * math.factorial(l)
    value = first - second
    if value.denominator != 1:
        raise ArithmeticError(f"normal count is not integral at leaves={l}")
    return value.numerator


# Closed forms of the galled (gn) and reticulation-visible (rv) counts for two
# and three reticulations, all of the shape A(l) (2l-3)!! - 2^(l-s) B(l) (l+f)!.
# (class, rets) -> (A, B, s, f); A and B are (integer coefficients, constant
# first, common denominator).  Each form holds only from a threshold
# that galled/retvis.closed_form_threshold discover against the series.
CLOSED_FORMS = {
    ("gn", 2): (((-9, -7, 30, 31, 6), 3), ((10, 7), 1), 2, 1),
    ("gn", 3): (
        ((-6090, -8599, 19475, 34125, 17195, 3184, 140), 105),
        ((5448, 5878, 2045, 225), 3),
        5,
        1,
    ),
    ("rv", 2): (((-3, -1, 6, 7, 6), 3), ((1, 2, 2), 1), 1, 0),
    # rv, rets 3: coefficients pinned by the pattern-sum series (exact fit on
    # 12 samples, verified through l = 40) and by exhaustive counts at
    # l = 2, 3; the degrees are forced by the singularity structure of the
    # pattern sum
    ("rv", 3): (((6, 6, -52, -8, 33, 20, 4), 3), ((-168, -106, 135, 175, 48), 3), 4, 0),
}
# the classes that one reticulation leaves indistinguishable
SINGLE_RETICULATION_CLASSES = ("pn", "rv", "gn", "tc")


def _form(cls: str, rets: int):
    """The closed form of (cls, rets) as a function of the leaf count, or
    None where the package has none."""
    if cls == "onecomp":
        return functools.partial(one_component_count, rets=rets)
    if rets == 0 and cls in SINGLE_RETICULATION_CLASSES + ("normal", "trees"):
        return tree_count
    if rets == 1 and cls in SINGLE_RETICULATION_CLASSES:
        return single_reticulation_count
    if (cls, rets) == ("normal", 2):
        return normal_two_reticulation_count
    if (cls, rets) in CLOSED_FORMS:
        return functools.partial(_table_form, CLOSED_FORMS[cls, rets])
    return None


def has_closed_form(cls: str, rets: int) -> bool:
    return _form(cls, rets) is not None


def closed_form(cls: str, leaves: int, rets: int):
    """Every closed-form count the package has: one-component networks, trees
    (rets 0), the count shared at one reticulation (pn, rv, gn, tc), normal
    networks with two reticulations and the :data:`CLOSED_FORMS` rows.

    Returns an exact value: an int, or a Fraction where a :data:`CLOSED_FORMS`
    row is evaluated off its validated range and is not integral.  Raises
    `ValueError` for a (class, rets) without a closed form.
    """
    if leaves < 1:
        raise ValueError("leaves must be >= 1")
    form = _form(cls, rets)
    if form is None:
        raise ValueError(f"no closed form for class {cls!r} at rets={rets}")
    return form(leaves)


def _table_form(row, leaves: int):
    (a, a_den), (b, b_den), s, f = row
    l = leaves
    main = Fraction(sum(c * l**i for i, c in enumerate(a)), a_den) * double_factorial(2 * l - 3)
    tail = Fraction(sum(c * l**i for i, c in enumerate(b)), b_den) * math.factorial(l + f)
    value = main - Fraction(2) ** (l - s) * tail
    return value.numerator if value.denominator == 1 else value


def block_table_lines(lmax: int, kmax: int) -> Iterator[str]:
    """CSV of block counts, rows l = 1..lmax, columns k = 0..kmax, one
    newline-terminated line at a time, header first.  The table is filled
    when this is called; each line is written out only when it is read."""
    block_count(lmax, min(lmax, kmax))  # fill the table once, from its far corner
    columns = range(kmax + 1)
    header = "leaves," + ",".join(f"k={k}" for k in columns) + "\n"
    rows = (
        f"{l}," + ",".join(str(block_count(l, k)) for k in columns) + "\n"
        for l in range(1, lmax + 1)
    )
    return itertools.chain((header,), rows)


# Closed Laurent forms of the low-order block series, used by tests and by
# the galled/retvis closed-form constructions; each is asserted against the
# recurrence-built series wherever it is consumed.

def block_sqrt_form(rets: int) -> SqrtPoly:
    """Closed Laurent form of block_egf for rets in {0, 1, 2}."""
    x = SqrtPoly.x_power
    one = SqrtPoly.of({0: 1})
    if rets == 0:
        return one - x(1)
    if rets == 1:
        return ((one - x(1)) ** 2).exact_div(x(1, 2))
    if rets == 2:
        # (4z^2 - 7z + 4 + (5 - 4z) sqrt(1-2z)) (1 - sqrt(1-2z))^2 / (6 (1-2z)^(3/2))
        root_factor = SqrtPoly.from_z_poly([5, -4]) * x(1)
        numerator = (SqrtPoly.from_z_poly([4, -7, 4]) + root_factor) * (one - x(1)) ** 2
        return numerator.exact_div(x(3, 6))
    raise ValueError("closed forms are kept for rets <= 2; fit higher orders explicitly")


def shift_sqrt_form(rets: int) -> SqrtPoly:
    """Closed Laurent form of block_shift_egf for rets in {0, 1, 2}."""
    if rets == 0:
        return block_sqrt_form(0)
    if rets == 1:
        return SqrtPoly.from_z_poly([0, 1]).exact_div(SqrtPoly.x_power(3))
    if rets == 2:
        return SqrtPoly.from_z_poly([3, -1, 7, -4]).exact_div(SqrtPoly.x_power(7))
    raise ValueError("closed forms are kept for rets <= 2")
