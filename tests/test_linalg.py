from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nearpoints import linalg


def brute_rank(rows, ncols):
    """Plain fraction Gaussian elimination, independent of the library path."""
    work = [[Fraction(r.get(j, 0)) if isinstance(r, dict) else Fraction(r[j])
             for j in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_rank_simple():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0]]) == 0
    assert linalg.rank([{0: 3, 5: -2}, {5: 1}], ncols=6) == 2


def test_rank_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert linalg.rank(rows) == brute_rank(rows, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_rank_matches_fraction_elimination(mat):
    assert linalg.rank(mat, 4) == brute_rank(mat, 4)


def test_rank_deficient_products():
    # A = B @ C with inner dimension k has rank exactly k for generic draws;
    # exercises the elimination fallback (no full-row-rank certificate)
    import random
    for trial in range(15):
        rng = random.Random(900 + trial)
        m, n = rng.randint(6, 14), rng.randint(6, 14)
        k = rng.randint(1, min(m, n) - 1)
        B = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(m)]
        C = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(k)]
        A = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
             for i in range(m)]
        got = linalg.rank(A, n)
        assert got == brute_rank(A, n)
        assert got <= k


def test_rref_canonical_and_nullspace():
    rows = [[2, 4, 0], [1, 2, 1]]
    red, pivots = linalg.rref(rows, 3)
    assert pivots == [0, 2]
    assert red == ((Fraction(1), Fraction(2), Fraction(0)),
                   (Fraction(0), Fraction(0), Fraction(1)))
    ns = linalg.nullspace(rows, 3)
    assert len(ns) == 1
    vec = ns[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0


def test_row_space_contains():
    A = [[1, 0, 0], [0, 1, 0]]
    assert linalg.row_space_contains(A, [[2, 3, 0]], 3)
    assert not linalg.row_space_contains(A, [[0, 0, 1]], 3)


def test_solve_dense():
    x = linalg.solve_dense([[1, 1], [1, -1]], [3, 1], 2)
    assert x == [Fraction(2), Fraction(1)]
    assert linalg.solve_dense([[1, 1], [2, 2]], [1, 3], 2) is None


@st.composite
def integer_matrices(draw):
    """Tall, wide, square, or a product B @ C of inner dimension k below
    both sides (rank-deficient for every draw)."""
    shape = draw(st.sampled_from(["tall", "wide", "square", "deficient"]))
    small, big = draw(st.integers(1, 6)), draw(st.integers(7, 12))
    m, n = {"tall": (big, small), "wide": (small, big),
            "square": (small, small), "deficient": (big, small + 1)}[shape]
    entries = st.integers(-40, 40)
    if shape != "deficient":
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=m, max_size=m)), n
    k = draw(st.integers(0, small))
    B = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=m, max_size=m))
    C = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                      min_size=k, max_size=k))
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)], n


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_rank_matches_bareiss(mat_n):
    # the mod-p certificate accepts a rank of min(rows, cols); Bareiss is
    # the exact reference on every shape
    mat, n = mat_n
    assert linalg.rank(mat, n) == linalg._rank_bareiss(mat, n)


# Reference: the dense Fraction Gauss-Jordan that rref was before it ran on
# sparse primitive integer rows.

def dense_fraction_rref(rows, ncols):
    work = []
    for row in rows:
        if isinstance(row, dict):
            r = [Fraction(0)] * ncols
            for c, v in row.items():
                r[c] = Fraction(v)
        else:
            r = [Fraction(v) for v in row]
            if len(r) < ncols:
                r += [Fraction(0)] * (ncols - len(r))
        work.append(r)
    pivots = []
    rank_ = 0
    for col in range(ncols):
        piv = None
        for i in range(rank_, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank_], work[piv] = work[piv], work[rank_]
        prow = work[rank_]
        inv = 1 / prow[col]
        for j in range(col, ncols):
            prow[j] *= inv
        for i in range(len(work)):
            if i != rank_ and work[i][col]:
                f = work[i][col]
                ri = work[i]
                for j in range(col, ncols):
                    ri[j] -= f * prow[j]
        pivots.append(col)
        rank_ += 1
    return tuple(tuple(r) for r in work[:rank_]), pivots


@st.composite
def mixed_matrices(draw):
    """Rows of every form rref accepts: dense sequences (some shorter than
    ncols), sparse dicts, zero rows, and integer combinations of earlier
    rows, with int and Fraction entries; possibly no rows at all."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(-60, 60),
                      st.fractions(min_value=-60, max_value=60,
                                   max_denominator=40))
    rows, dense = [], []
    for _ in range(draw(st.integers(0, 8))):
        form = draw(st.sampled_from(["dense", "short", "sparse", "zero",
                                     "combination"]))
        if form == "combination" and dense:
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(dense),
                                   max_size=len(dense)))
            vals = [sum(c * r[j] for c, r in zip(coeffs, dense))
                    for j in range(n)]
        elif form == "zero":
            vals = [0] * n
        else:
            vals = draw(st.lists(entry, min_size=n, max_size=n))
        if form == "short":
            vals[draw(st.integers(0, n - 1)):] = []
        dense.append(vals + [0] * (n - len(vals)))
        if form == "sparse" or (form == "combination" and draw(st.booleans())):
            rows.append({j: v for j, v in enumerate(vals) if v})
        else:
            rows.append(vals)
    return rows, n


@settings(max_examples=200, deadline=None)
@given(mixed_matrices())
def test_rref_matches_dense_fraction_rref(mat_n):
    rows, n = mat_n
    red, pivots = linalg.rref(rows, n)
    assert (red, pivots) == dense_fraction_rref(rows, n)
    # the mod-p certified rank against the rank of the echelon form
    assert len(pivots) == linalg.rank(rows, n)


def test_rref_of_height_1000_rationals():
    import random
    rng = random.Random(77)
    rows = [[Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
             for _ in range(12)] for _ in range(9)]
    rows.append([sum(r[j] for r in rows[:4]) for j in range(12)])
    assert linalg.rref(rows, 12) == dense_fraction_rref(rows, 12)


@settings(max_examples=100, deadline=None)
@given(mixed_matrices(), st.data())
def test_solve_dense_solves_or_proves_inconsistency(mat_n, data):
    rows, n = mat_n
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=len(rows),
                             max_size=len(rows)))
    x = linalg.solve_dense(rows, rhs, n)
    dense = [[r.get(j, 0) for j in range(n)] if isinstance(r, dict)
             else list(r) + [0] * (n - len(r)) for r in rows]
    if x is None:
        aug = [r + [b] for r, b in zip(dense, rhs)]
        assert linalg.rank(aug, n + 1) == linalg.rank(dense, n) + 1
    else:
        assert [sum(a * v for a, v in zip(r, x)) for r in dense] == rhs


# Reference: the per-cell GF(p) elimination that _rank_mod was before it ran
# on packed rows.

P61 = (1 << 61) - 1


def per_cell_rank_mod(dense, ncols, p=P61):
    rows = [[v % p for v in r] for r in dense]
    rank = 0
    col = 0
    nrows = len(rows)
    while rank < nrows and col < ncols:
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            f = rows[i][col]
            if f:
                f = f * inv % p
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - f * prow[j]) % p
        rank += 1
        col += 1
    return rank


@st.composite
def modular_matrices(draw):
    """Dense integer matrices for the mod-p rank: entries that vanish or
    wrap around mod p (multiples of p, p - 1, 1 - p), small and 200-bit
    entries of both signs; any shape from 0 x 0 through 1 x n and n x 1;
    zero rows and columns; and products B @ C of inner dimension below both
    sides, whose rank falls short of min(rows, cols) over Q and mod p."""
    entry = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([P61, -P61, 2 * P61, 3 * P61, P61 - 1, 1 - P61,
                         P61 + 1]),
        st.integers(-(1 << 200), 1 << 200))
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if draw(st.booleans()) and min(m, n) >= 2:
        k = draw(st.integers(0, min(m, n) - 1))
        B = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                          min_size=m, max_size=m))
        C = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=k, max_size=k))
        mat = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
               for i in range(m)]
    else:
        mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                            min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2)):
        if i < m:
            mat[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2)):
        if j < n:
            for row in mat:
                row[j] = 0
    return mat, n


@settings(max_examples=300, deadline=None)
@given(modular_matrices())
def test_rank_mod_matches_per_cell_elimination(mat_n):
    mat, n = mat_n
    assert linalg._rank_mod(mat, n) == per_cell_rank_mod(mat, n)


def test_rank_mod_at_the_slot_width_bound():
    # 130 rows of residues in [0, p): every pivot reaches every later row,
    # so the slots grow close to the 2^(124 + bit_length(130)) bound; ten
    # rows are sums of two earlier rows, so the elimination runs past rank
    import random
    rng = random.Random(130)
    n = 130
    mat = [[rng.randrange(P61) for _ in range(n)] for _ in range(n - 10)]
    for _ in range(10):
        a, b = rng.sample(mat, 2)
        mat.insert(rng.randrange(len(mat) + 1), [x + y for x, y in zip(a, b)])
    assert per_cell_rank_mod(mat, n) == n - 10
    assert linalg._rank_mod(mat, n) == n - 10
    full = [[rng.randrange(P61) for _ in range(n)] for _ in range(n)]
    assert linalg._rank_mod(full, n) == per_cell_rank_mod(full, n) == n
