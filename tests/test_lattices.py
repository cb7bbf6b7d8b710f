import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from thetacob.lattices import common_denominator, hnf_mod, integrality_lattice


# -- oracle: elimination without a modulus, kernel of the stacked matrix -------------------
# An independent route to the same forms: unbounded Euclidean elimination,
# a transform-tracking kernel of [A^T ; -D*I], and a pivot-search Smith form.


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row HNF: row-echelon, positive pivots, entries above a
    pivot reduced into [0, pivot).  Zero rows are dropped.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        # euclidean elimination in column c below row r
        while True:
            nonzero = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda i: abs(m[i][c]))
            _swap_rows(m, r, pivot)
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < nrows and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == nrows:
                break
    return [row for row in m[:r] if any(row)]


def kernel_rows(mat: list[list[int]]) -> list[list[int]]:
    """Basis of {x integer row : x @ mat = 0}.

    Runs the HNF elimination on mat while tracking the transformation U
    with U @ mat = H; the rows of U facing zero rows of H span the kernel.
    """
    m = [list(r) for r in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        while True:
            nonzero = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nonzero:
                break
            pivot = min(nonzero, key=lambda i: abs(m[i][c]))
            _swap_rows(m, r, pivot)
            _swap_rows(u, r, pivot)
            done = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < nrows and m[r][c]:
            r += 1
            if r == nrows:
                break
    return [u[i] for i in range(nrows) if not any(m[i])]


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ...)."""
    m = [list(r) for r in mat]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    diag = []
    top = 0
    while top < min(nrows, ncols):
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        _swap_rows(m, top, i)
        for row in m:
            row[top], row[j] = row[j], row[top]
        # clear row and column at top
        dirty = False
        for i in range(top + 1, nrows):
            if m[i][top]:
                q = m[i][top] // m[top][top]
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if m[i][top]:
                    dirty = True
        for j in range(top + 1, ncols):
            if m[top][j]:
                q = m[top][j] // m[top][top]
                for row in m:
                    row[j] -= q * row[top]
                if m[top][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep: pivot must divide the rest of the block
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % m[top][top]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        diag.append(abs(m[top][top]))
        top += 1
    return diag


def stacked_integrality_lattice(rational_rows: list[list[Fraction]], dim: int) -> list[list[int]]:
    """HNF basis of {x in Z^dim : R x is integral for every row R}.

    Clearing denominators turns the condition into A x = 0 (mod D); the
    solutions are the projection of the integer kernel of [A^T ; -D I].
    """
    if not rational_rows:
        return [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    D = common_denominator(rational_rows)
    A = [[int(Fraction(x) * D) for x in row] for row in rational_rows]
    nrows = len(A)
    # rows of the stacked matrix: first dim rows = A^T, then -D * identity
    stacked = [[A[i][j] for i in range(nrows)] for j in range(dim)]
    for i in range(nrows):
        stacked.append([-D if k == i else 0 for k in range(nrows)])
    kern = kernel_rows(stacked)
    basis = [row[:dim] for row in kern]
    basis = [row for row in basis if any(row)]
    return hermite_normal_form(basis)


# -- the oracle's own tests ------------------------------------------------------------------


def test_hnf_canonical_small():
    assert hermite_normal_form([[2, 0], [0, 2]]) == [[2, 0], [0, 2]]
    assert hermite_normal_form([[4, 6], [2, 2]]) == [[2, 0], [0, 2]]
    assert hermite_normal_form([[1, 2], [3, 4]]) == [[1, 0], [0, 2]]
    assert hermite_normal_form([[0, 0], [0, 0]]) == []
    # entries above pivots reduced into [0, pivot)
    h = hermite_normal_form([[5, 7], [0, 3]])
    assert h == [[5, 1], [0, 3]]


def test_hnf_invariant_under_row_mixing():
    rng = random.Random(67)
    for _ in range(30):
        base = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        mixed = [row[:] for row in base]
        # apply random unimodular row operations
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        assert hermite_normal_form(base) == hermite_normal_form(mixed)


def test_kernel_rows():
    # x @ M = 0 for M with dependent rows
    M = [[1, 2], [2, 4], [3, 6]]
    kern = kernel_rows(M)
    assert len(kern) == 2
    for row in kern:
        assert all(sum(row[i] * M[i][j] for i in range(3)) == 0 for j in range(2))
    assert kernel_rows([[1, 0], [0, 1]]) == []


def test_smith_diagonal():
    assert smith_diagonal([[2, 0], [0, 2]]) == [2, 2]
    assert smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_diagonal([[1, 0], [0, 12]]) == [1, 12]
    d = smith_diagonal([[6, 0], [0, 4]])
    assert d == [2, 12]
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0


def test_smith_randomised_invariants():
    rng = random.Random(71)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        d = smith_diagonal(m)
        for i in range(len(d) - 1):
            assert d[i + 1] % d[i] == 0
        # determinant magnitude equals the product of the divisors (4x4 Laplace)
        def det(mat):
            if len(mat) == 1:
                return mat[0][0]
            total = 0
            for j in range(len(mat)):
                sub = [row[:j] + row[j + 1:] for row in mat[1:]]
                total += (-1) ** j * mat[0][j] * det(sub)
            return total
        dd = det(m)
        prod = 1
        for x in d:
            prod *= x
        if dd == 0:
            assert len(d) < 4
        else:
            assert prod == abs(dd)


# -- the modular route ------------------------------------------------------------------------


def test_common_denominator():
    rows = [[Fraction(1, 6), Fraction(1, 4)], [Fraction(1), Fraction(-1)]]
    assert common_denominator(rows) == 12


def test_integrality_lattice_single_constraint():
    # x/2 integral <=> x even
    assert integrality_lattice([[Fraction(1, 2)]], 1) == ([[2]], [2])
    # (2x + 3y)/12 integral: x = 3a and y = 2 + 4b - 2a, or y = 4b when x = 0
    basis, divisors = integrality_lattice([[Fraction(2, 12), Fraction(3, 12)]], 2)
    assert basis == [[3, 2], [0, 4]]
    assert divisors == [1, 12]
    for row in basis:
        assert (2 * row[0] + 3 * row[1]) % 12 == 0


def test_integrality_lattice_no_constraints():
    basis, divisors = integrality_lattice([], 3)
    assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert divisors == [1, 1, 1]


_entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 5), rows=st.lists(st.lists(_entry, min_size=5, max_size=5), max_size=5))
@example(dim=2, rows=[[Fraction(3), Fraction(-2)], [Fraction(1), Fraction(0)]])  # D = 1
@example(dim=4, rows=[])                                                          # no rows
@example(dim=3, rows=[[Fraction(0)] * 3, [Fraction(1, 6), Fraction(0), Fraction(5, 4)]])
@example(dim=3, rows=[[Fraction(1, 4), Fraction(1, 2), Fraction(0)],             # rank 1
                      [Fraction(1, 2), Fraction(1), Fraction(0)],
                      [Fraction(-1, 4), Fraction(-1, 2), Fraction(0)]])
@example(dim=3, rows=[[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)],        # rank 2
                      [Fraction(1, 2), Fraction(0), Fraction(1, 3)],
                      [Fraction(2, 3), Fraction(1, 10), Fraction(2, 5)]])
def test_integrality_lattice_matches_stacked_oracle(dim, rows):
    rows = [row[:dim] for row in rows]
    basis, divisors = integrality_lattice(rows, dim)
    expected = stacked_integrality_lattice(rows, dim)
    assert basis == expected
    assert divisors == smith_diagonal(expected)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 5), modulus=st.integers(1, 720),
       rows=st.lists(st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5), max_size=5))
@example(dim=3, modulus=1, rows=[[4, -1, 7]])
@example(dim=2, modulus=12, rows=[])
def test_hnf_mod_matches_oracle_with_multiples_of_identity(dim, modulus, rows):
    rows = [row[:dim] for row in rows]
    identity = [[modulus if i == j else 0 for j in range(dim)] for i in range(dim)]
    assert hnf_mod(rows, dim, modulus) == hermite_normal_form(rows + identity)
