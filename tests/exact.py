"""Exact oracles over Q[i], with no rounding shared with the code they check.

A Q[i] matrix is a pair ``(re, im)`` of equal-shape lists of rows of ``Fraction``.
Its real form ``[[re, -im], [im, re]]`` is a ring map: the real form of a sum,
product or inverse is the sum, product or inverse of the real forms, and the real
form's rank is twice the complex rank.  So every decision below is Gaussian
elimination over the rationals, which is exact.

The Cayley transform ``U = (1 - A)(1 + A)^{-1}`` of an anti-Hermitian ``A`` is
unitary (``1 + A`` is invertible because A's eigenvalues are imaginary), and for
Gaussian-integer A its entries lie in Q[i].  Such unitaries stand in for Haar
draws in tests whose expected answer must be exact.
"""

from fractions import Fraction

import numpy as np


def matrix(rows) -> tuple[list, list]:
    """The Q[i] matrix of nested numbers whose real and imaginary parts are exact
    (ints, Fractions, or complex numbers with integer parts)."""
    return (
        [[Fraction(x.real) for x in row] for row in rows],
        [[Fraction(x.imag) for x in row] for row in rows],
    )


def identity(n: int) -> tuple[list, list]:
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def to_complex(m) -> np.ndarray:
    """The nearest complex128 array, entry by entry."""
    re, im = m
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


def _zip_rows(op, a, b):
    return [[op(x, y) for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]


def add(a, b):
    return _zip_rows(Fraction.__add__, a[0], b[0]), _zip_rows(Fraction.__add__, a[1], b[1])


def sub(a, b):
    return _zip_rows(Fraction.__sub__, a[0], b[0]), _zip_rows(Fraction.__sub__, a[1], b[1])


def _real_product(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def matmul(a, b):
    """(A + iB)(C + iD) = (AC - BD) + i(AD + BC)."""
    (ar, ai), (br, bi) = a, b
    return (
        _zip_rows(Fraction.__sub__, _real_product(ar, br), _real_product(ai, bi)),
        _zip_rows(Fraction.__add__, _real_product(ar, bi), _real_product(ai, br)),
    )


def dagger(a):
    re, im = a
    return [list(col) for col in zip(*re)], [[-x for x in col] for col in zip(*im)]


def kron(a, b):
    """The Kronecker product a (x) b, with numpy's index order."""
    (ar, ai), (br, bi) = a, b
    rows = [(p, q) for p in range(len(ar)) for q in range(len(br))]
    cols = [(p, q) for p in range(len(ar[0])) for q in range(len(br[0]))]
    re = [[ar[p][j] * br[q][k] - ai[p][j] * bi[q][k] for j, k in cols] for p, q in rows]
    im = [[ar[p][j] * bi[q][k] + ai[p][j] * br[q][k] for j, k in cols] for p, q in rows]
    return re, im


def real_form(a) -> list:
    """[[re, -im], [im, re]], a rational matrix twice the size of a."""
    re, im = a
    return [r + [-x for x in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]


def _echelon(rows: list) -> tuple[list, list]:
    """Gauss-Jordan elimination of a copy of rational ``rows``: the reduced rows and the
    pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        head = rows[r][col]
        rows[r] = [x / head for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


def rank(a) -> int:
    """The exact complex rank of the Q[i] matrix a: half the rank of its real form."""
    real_rank = len(_echelon(real_form(a))[1])
    assert real_rank % 2 == 0
    return real_rank // 2


def inverse(a):
    """The exact inverse of the square Q[i] matrix a, by Gauss-Jordan on [real form | 1]."""
    n = len(a[0])
    form = real_form(a)
    eye = real_form(identity(n))
    rows, pivots = _echelon([row + unit for row, unit in zip(form, eye)])
    if pivots[: 2 * n] != list(range(2 * n)):
        raise ZeroDivisionError("singular matrix")
    inv = [row[2 * n :] for row in rows]
    return [row[:n] for row in inv[:n]], [row[:n] for row in inv[n:]]


def anti_hermitian(n: int, rng, bound: int = 2):
    """A random n x n anti-Hermitian matrix with Gaussian-integer entries in
    [-bound, bound] + i [-bound, bound], drawn from the ``random.Random`` ``rng``."""
    entries = [[0j] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = 1j * rng.randint(-bound, bound)
        for j in range(i + 1, n):
            z = complex(rng.randint(-bound, bound), rng.randint(-bound, bound))
            entries[i][j], entries[j][i] = z, -z.conjugate()
    return matrix(entries)


def cayley(a):
    """U = (1 - A)(1 + A)^{-1}, unitary for anti-Hermitian A."""
    eye = identity(len(a[0]))
    return matmul(sub(eye, a), inverse(add(eye, a)))


def cayley_unitary(n: int, rng, bound: int = 2):
    return cayley(anti_hermitian(n, rng, bound))


def is_unitary(u) -> bool:
    return matmul(dagger(u), u) == identity(len(u[0]))


def bath_trace(x, dims: tuple[int, int]):
    """Tr_B x on the (d_S, d_B) layout, the bath the second factor."""
    d_s, d_b = dims
    re, im = x
    return tuple(
        [[sum((part[s * d_b + b][t * d_b + b] for b in range(d_b)), Fraction(0))
          for t in range(d_s)] for s in range(d_s)]
        for part in (re, im)
    )


def consistency_constraints(dims: tuple[int, int], unitaries):
    """The Q[i] matrix whose null space is the consistent kernel of ``unitaries`` on the
    (d_S, d_B) layout.  Column (i, j) stacks vec Tr_B E_ij, then vec Tr_B(U E_ij U^dag)
    for each member U, where E_ij is a matrix unit: Tr_B E_ij is |s><t| when i = (s, b)
    and j = (t, b) share their bath index, and entry (s, t) of the other is
    sum_b U[(s, b), i] conj(U[(t, b), j])."""
    d_s, d_b = dims
    n = d_s * d_b
    units = [(i, j) for i in range(n) for j in range(n)]
    pairs = [(s, t) for s in range(d_s) for t in range(d_s)]
    re = [
        [Fraction(int(i // d_b == s and j // d_b == t and i % d_b == j % d_b)) for i, j in units]
        for s, t in pairs
    ]
    im = [[Fraction(0)] * len(units) for _ in pairs]
    for ur, ui in unitaries:
        for s, t in pairs:
            row_re, row_im = [], []
            for i, j in units:
                acc_re = acc_im = Fraction(0)
                for b in range(d_b):
                    p, q = s * d_b + b, t * d_b + b  # U[p, i] conj(U[q, j])
                    acc_re += ur[p][i] * ur[q][j] + ui[p][i] * ui[q][j]
                    acc_im += ui[p][i] * ur[q][j] - ur[p][i] * ui[q][j]
                row_re.append(acc_re)
                row_im.append(acc_im)
            re.append(row_re)
            im.append(row_im)
    return re, im


def consistent_kernel_dim(dims: tuple[int, int], unitaries) -> int:
    """The exact dimension of the operators whose reduced evolution vanishes under the
    identity and every member."""
    n = dims[0] * dims[1]
    return n * n - rank(consistency_constraints(dims, unitaries))
