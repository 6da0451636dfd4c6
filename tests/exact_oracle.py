"""Test-only exact objective for small integer batches.

For integer rows the objective needs no square root: Gram-Schmidt over
fractions.Fraction gives the residuals v of a subset's rows, exactly, so
the rank is the number of nonzero v and r'^2 is the sum of (v . Sum)^2 /
(v . v) over them, with Sum the batch feature sum.  Then r^2 = rank * r'^2.
exact_subset_values returns the rank and r^2 of every subset of a batch,
the empty one included, so a check can compare the float selectors and the
float brute force against the exact optimum and the exact rank.
"""
from fractions import Fraction
from itertools import combinations


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def exact_rank_and_r2(rows, subset, total):
    """(rank, r^2) of the rows in subset, exactly; rows and total are
    sequences of integers or Fractions."""
    residuals = []  # (v, v . v), each v nonzero and orthogonal to the others
    r_prime2 = Fraction(0)
    for i in subset:
        v = [Fraction(x) for x in rows[i]]
        for u, uu in residuals:
            c = _dot(v, u) / uu
            v = [a - c * b for a, b in zip(v, u)]
        vv = _dot(v, v)
        if vv:
            residuals.append((v, vv))
            r_prime2 += _dot(v, total) ** 2 / vv
    return len(residuals), len(residuals) * r_prime2


def exact_subset_values(rows):
    """{subset: (rank, r^2)} for every subset of the integer rows, each
    subset an increasing index tuple, the empty tuple included."""
    rows = [[int(x) for x in row] for row in rows]
    total = [sum(col) for col in zip(*rows)]
    return {
        subset: exact_rank_and_r2(rows, subset, total)
        for k in range(len(rows) + 1)
        for subset in combinations(range(len(rows)), k)
    }
