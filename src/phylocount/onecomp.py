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


@functools.cache
def block_series(c: int, c1: int, order: int) -> Egf:
    """Series of a pattern vertex with c distinct children, c1 of them joined
    by double edges: sum_{l >= l0} block_count(l + c, c1) z^l / l!, with l0
    = 1 when c1 = 0 (a component that owns no reticulation keeps a labeled
    leaf) and 0 otherwise.  block_series(0, k) is the block series of k
    reticulations and block_series(k, k) its k-fold derivative F_k."""
    l0 = 0 if c1 > 0 else 1
    return Egf.from_counts([block_count(l + c, c1) if l >= l0 else 0 for l in range(order + 1)])


# the vertex profiles (c, c1) each class admits in its compressed patterns,
# read by both pattern routes, pattern_egf and retvis.pattern_sum_egf:
# galled networks compress to the tree-like ones, all children double
PATTERN_PROFILES = {"gn": operator.eq, "rv": lambda c, c1: True}


def admit_rule(cls: str):
    """The :data:`PATTERN_PROFILES` rule of `cls`; ValueError if it has none."""
    if cls not in PATTERN_PROFILES:
        raise ValueError(f"no pattern profiles for class {cls!r}; choose from {sorted(PATTERN_PROFILES)}")
    return PATTERN_PROFILES[cls]


def pattern_egf(cls: str, rets: int, order: int) -> Egf:
    """EGF of the gn or rv networks with `rets` reticulations: the sum over
    patterns on m = rets+1 vertices of the product of their vertex series
    over their symmetry count s.  A pattern has (m-1)!/s labellings that fix
    the root, so this is the sum over labelled patterns divided by (m-1)!.

    Labelled patterns are counted without generating any, layer by layer as
    in Robinson's count of labelled acyclic digraphs: the root is the first
    layer, and a vertex joins the layer after the one that gives it its last
    parent edge.  A state is four sizes: n0 sources of the current layer
    still to process, nz vertices complete for the next layer, and n1 and n2
    vertices that still need one and two parent edges.  A source takes b
    double and a2 single children among the n2 and a1 single children among
    the n1, in C(n2, b) C(n2-b, a2) C(n1, a1) ways, and carries the block
    series of profile (b + a2 + a1, b) if the class admits it.  Each state
    does one product per profile, and its weight does not depend on rets, so
    every rets shares the states of one class and order.

    The recursion takes a frame per pattern vertex and per layer, so a large
    `rets` outgrows the interpreter's stack; that raises ValueError, as does
    a class without a :data:`PATTERN_PROFILES` row.
    """
    if rets < 0 or order < 0:
        raise ValueError("rets and order must be nonnegative")
    try:
        weight = _pattern_weight(cls, order, 1, 0, 0, rets)
    except RecursionError:
        raise ValueError(
            f"rets={rets} nests the pattern recurrence deeper than the recursion limit"
        ) from None
    return weight.scale(Fraction(1, math.factorial(rets)))


@functools.cache
def _pattern_weight(cls: str, order: int, n0: int, nz: int, n1: int, n2: int) -> Egf:
    if n0 == 0:
        if nz:
            return _pattern_weight(cls, order, nz, 0, n1, n2)
        return Egf.zero(order) if n1 or n2 else Egf.one(order)
    admits = admit_rule(cls)
    by_profile: dict[tuple[int, int], Egf] = {}
    for b in range(n2 + 1):
        for a2 in range(n2 - b + 1):
            ways2 = math.comb(n2, b) * math.comb(n2 - b, a2)
            for a1 in range(n1 + 1):
                key = (b + a2 + a1, b)
                if not admits(*key):
                    continue
                rest = _pattern_weight(cls, order, n0 - 1, nz + b + a1, n1 - a1 + a2, n2 - b - a2)
                if not rest.is_zero():
                    term = rest.scale(ways2 * math.comb(n1, a1))
                    by_profile[key] = by_profile[key] + term if key in by_profile else term
    total = Egf.zero(order)
    for (c, c1), paths in by_profile.items():
        total = total + block_series(c, c1, order) * paths
    return total


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
