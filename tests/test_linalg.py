import struct
from fractions import Fraction
from math import gcd, lcm

import pytest
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
    assert linalg.rank([{0: 3, 5: -2}, {5: 1}]) == 2


def test_rank_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert linalg.rank(rows) == brute_rank(rows, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_rank_matches_fraction_elimination(mat):
    assert linalg.rank([dict(enumerate(r)) for r in mat]) == brute_rank(mat, 4)


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
        got = linalg.rank([dict(enumerate(r)) for r in A])
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


def test_columns_beyond_ncols_are_rejected():
    for rows in ([{0: 1, 3: 2}], [[1, 0, 0, 2]], [{3: 1}]):
        with pytest.raises(ValueError):
            linalg.echelon(rows, 3)
        with pytest.raises(ValueError):
            linalg.nullspace(rows, 3)


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


# Reference: the dense fraction-free (Bareiss) elimination that
# _rank_bareiss was before it counted the pivots of echelon's forward pass.

def dense_bareiss_rank(rows):
    """Fraction-free Gaussian elimination of sparse integer rows on a dense
    working copy, one column per key present; exact integer divisions
    only."""
    slots = {c: i for i, c in enumerate(sorted(set().union(*rows)))}
    ncols = len(slots)
    dense = [[0] * ncols for _ in rows]
    for row, r in zip(dense, rows):
        for c, v in r.items():
            row[slots[c]] = v
    rows = dense
    nrows = len(rows)
    rank = 0
    col = 0
    prev = 1
    while rank < nrows and col < ncols:
        piv = None
        best = None
        for i in range(rank, nrows):
            if rows[i][col]:
                nz = sum(1 for v in rows[i] if v)
                if best is None or nz < best:
                    best = nz
                    piv = i
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for i in range(rank + 1, nrows):
            ri = rows[i]
            f = ri[col]
            # the two-step Sylvester identity needs the update on every row,
            # zero pivot-column entry or not, for the divisions to stay exact
            if f:
                for j in range(col + 1, ncols):
                    ri[j] = (ri[j] * pv - f * prow[j]) // prev
                ri[col] = 0
            else:
                for j in range(col + 1, ncols):
                    if ri[j]:
                        ri[j] = ri[j] * pv // prev
        prev = pv
        rank += 1
        col += 1
    return rank


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_rank_matches_bareiss(mat_n):
    # the mod-p certificate accepts a rank of min(rows, cols); Bareiss is
    # the exact reference on every shape
    mat, n = mat_n
    rows = [dict(enumerate(r)) for r in mat]
    assert linalg.rank(rows) == dense_bareiss_rank(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.data())
def test_forward_pass_rank_matches_bareiss(m, n, data):
    # the fallback on what rank hands it: zero-free sparse rows of a product
    # B @ C whose inner dimension k falls below both sides
    k = data.draw(st.integers(0, min(m, n) - 1))
    entries = st.integers(-40, 40)
    B = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    C = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=k, max_size=k))
    rows = [{j: v for j in range(n)
             if (v := sum(B[i][t] * C[t][j] for t in range(k)))}
            for i in range(m)]
    rows = [r for r in rows if r]
    got = len(linalg._rank_bareiss(rows))
    assert got == dense_bareiss_rank(rows) <= k


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.integers(2, 10), st.data())
def test_prefix_ranks_match_truncated_matrices(m, n, data):
    # rank(rows, widths) against the rank of each column-truncated matrix,
    # for every width 0..n in shuffled order: rows of a product B @ C whose
    # inner dimension k falls below both sides, so the wide prefixes fall
    # short of their bound and share one forward pass; some zero entries
    # stored, and a few singleton rows mixed in.  Or a matrix of singleton
    # rows only, some on one column, some a stored zero, some empty
    singleton = st.tuples(st.integers(0, n - 1), st.integers(-3, 3))
    if data.draw(st.booleans()):
        rows = [dict(e) for e in data.draw(st.lists(
            st.lists(singleton, max_size=1), max_size=2 * m))]
    else:
        k = data.draw(st.integers(0, min(m, n) - 1))
        entries = st.integers(-9, 9)
        B = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                               min_size=m, max_size=m))
        C = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=k, max_size=k))
        rows = [{j: v for j in range(n)
                 if (v := sum(B[i][t] * C[t][j] for t in range(k)))
                 or data.draw(st.booleans())}
                for i in range(m)]
        rows += [dict([e]) for e in data.draw(st.lists(singleton,
                                                        max_size=2))]
    widths = data.draw(st.permutations(range(n + 1)))
    got = linalg.rank(rows, widths)
    for w, have in zip(widths, got):
        cut = [{c: v for c, v in r.items() if c < w} for r in rows]
        assert have == brute_rank(cut, w) == linalg.rank(cut), w
    assert got[widths.index(n)] == linalg.rank(rows)


def test_prefix_ranks_take_one_forward_pass(monkeypatch):
    # three prefixes short of their bound over Q share one exact pass;
    # the prefix of the independent first column is certified mod p
    rows = [{0: 1, 1: 2, 2: 3, 3: 1}, {0: 2, 1: 4, 2: 6, 3: 5},
            {0: 3, 1: 6, 2: 9, 3: 6}]
    calls = []
    forward = linalg._rank_bareiss
    monkeypatch.setattr(linalg, "_rank_bareiss",
                        lambda rows: calls.append(rows) or forward(rows))
    assert linalg.rank(rows, [1, 2, 3, 4, 0]) == [1, 1, 1, 2, 0]
    assert len(calls) == 1
    # with two more columns the full width reaches full row rank mod p, so
    # the exact pass sees only the columns below the widest short prefix
    wide = [{**rows[0], 4: 1}, {**rows[1], 5: 1}, rows[2]]
    for widths, ranks, cut in (([1, 2, 3, 6], [1, 1, 1, 3], 3),
                               ([6, 4, 0, 2], [3, 2, 0, 1], 4)):
        del calls[:]
        assert linalg.rank(wide, widths) == ranks
        assert len(calls) == 1
        assert all(c < cut for row in calls[0] for c in row)


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
    assert len(pivots) == linalg.rank(rows)


def test_rref_of_height_1000_rationals():
    import random
    rng = random.Random(77)
    rows = [[Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
             for _ in range(12)] for _ in range(9)]
    rows.append([sum(r[j] for r in rows[:4]) for j in range(12)])
    assert linalg.rref(rows, 12) == dense_fraction_rref(rows, 12)


# References: the per-cell GF(p) elimination that _rank_mod was before it ran
# on packed rows, and the packed kernel as it ran mod 2^61 - 1 before the
# certificate prime became 2^31 - 1.

P31 = (1 << 31) - 1
P61 = (1 << 61) - 1


def per_cell_rank_mod(dense, ncols, p=P31):
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
                ri[col:] = [(a - f * b) % p
                            for a, b in zip(ri[col:], prow[col:])]
        rank += 1
        col += 1
    return rank


def rank_mod_p61(rows):
    """Pivot columns over GF(2^61 - 1) of sparse integer rows, on rows
    packed in slots of 124 + bit_length(n) bits rounded up to whole bytes,
    folded with x -> (x mod 2^61) + (x >> 61)."""
    cols = sorted(set().union(*rows))
    nrows, ncols = len(rows), len(cols)
    if not nrows or not ncols:
        return []
    slots = {c: i for i, c in enumerate(cols)}
    p = P61
    nbytes = (124 + nrows.bit_length() + 7) // 8
    w = 8 * nbytes
    low = (1 << w) - 1
    lo61 = int.from_bytes(p.to_bytes(nbytes, "little") * ncols, "little")
    hi = int.from_bytes(((1 << (w - 61)) - 1).to_bytes(nbytes, "little")
                        * ncols, "little")
    pack = struct.Struct("<" + "Q%dx" % (nbytes - 8) * ncols).pack
    packed = []
    for r in rows:
        vals = [0] * ncols
        for c, v in r.items():
            vals[slots[c]] = v % p
        packed.append(int.from_bytes(pack(*vals), "little"))
    rows = packed
    pivots = []
    for col in cols:
        lead = [(r & low) % p for r in rows]
        for piv, v in enumerate(lead):
            if v:
                break
        else:
            rows = [r >> w for r in rows]
            continue
        pivots.append(col)
        q = rows.pop(piv)
        if not rows:
            break
        del lead[piv]
        q = (q & lo61) + ((q >> 61) & hi)
        q = (q & lo61) + ((q >> 61) & hi)
        q *= p - pow(v, -1, p)
        q = (q & lo61) + ((q >> 61) & hi)
        rows = [(r + f * q) >> w for r, f in zip(rows, lead)]
    return pivots


@st.composite
def modular_matrices(draw):
    """Dense integer matrices for the mod-p rank: entries that vanish or
    wrap around mod p = 2^31 - 1 (multiples of p, p +- 1, 1 - p), the same
    values at 2^61 - 1 as ordinary large entries, small and 200-bit entries
    of both signs; any shape from 0 x 0 through 1 x n and n x 1; zero rows
    and columns; and products B @ C of inner dimension below both sides,
    whose rank falls short of min(rows, cols) over Q and mod p."""
    entry = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([P31, -P31, 2 * P31, 3 * P31, P31 - 1, 1 - P31,
                         P31 + 1]),
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
    rows = [dict(enumerate(r)) for r in mat]
    assert len(linalg._rank_mod(rows)) == per_cell_rank_mod(mat, n)
    # the reference kernel stays checked at its own prime
    assert len(rank_mod_p61(rows)) == per_cell_rank_mod(mat, n, P61)


@settings(max_examples=200, deadline=None)
@given(modular_matrices(), st.data())
def test_rank_mod_reads_columns_off_sparse_keys(mat_n, data):
    # the same matrix as sparse rows over tuple keys with gaps between
    # them, some zero entries stored, each row's keys in shuffled order
    mat, n = mat_n
    keys = sorted(data.draw(st.sets(st.tuples(st.integers(-3, 3),
                                              st.integers(0, 40)),
                                    min_size=n, max_size=n)))
    rows = []
    for r in mat:
        entries = [(keys[j], v) for j, v in enumerate(r)
                   if v or data.draw(st.booleans())]
        rows.append(dict(data.draw(st.permutations(entries))))
    # the oracle densifies over the sorted keys present
    cols = sorted({c for r in rows for c in r})
    dense = [[r.get(c, 0) for c in cols] for r in rows]
    assert len(linalg._rank_mod(rows)) == per_cell_rank_mod(dense, len(cols))
    assert len(linalg._rank_mod(rows)) == per_cell_rank_mod(mat, n)


def test_rank_mod_at_the_slot_width_bound():
    # n rows of residues within 2^21 of p - 1: every pivot reaches every
    # later row, so the slots grow towards the 2^(64 + bit_length(n))
    # bound (to about 2^68.7 on these matrices).  At n = 255 that bound is
    # 72 bits and fills a 9-byte slot exactly; at n = 256 it is 73 bits
    # and the slot widens to 10 bytes.
    # In one matrix ten rows are sums of two earlier rows, so its rank is
    # n - 10 over Q and the elimination runs past the rank; a full-rank
    # n x n matrix drives a pivot into all n - 1 later rows and ends on the
    # last pivot with no row left.  The pivots are those of the 2^61 - 1
    # reference (per-cell elimination takes 1.6 s a matrix at this size).
    import random
    for n in (255, 256):
        rng = random.Random(n)
        mat = [[rng.randrange(P31 - (1 << 20), P31) for _ in range(n)]
               for _ in range(n - 10)]
        for _ in range(10):
            a, b = rng.sample(mat, 2)
            mat.insert(rng.randrange(len(mat) + 1),
                       [x + y for x, y in zip(a, b)])
        short = [dict(enumerate(r)) for r in mat]
        assert linalg._rank_mod(short) == rank_mod_p61(short)
        assert len(rank_mod_p61(short)) == n - 10
        full = [dict(enumerate(rng.randrange(P31 - (1 << 20), P31)
                               for _ in range(n))) for _ in range(n)]
        assert linalg._rank_mod(full) == rank_mod_p61(full) == list(range(n))


def test_rank_mod_pivots_on_the_seeded_matrices(monkeypatch):
    # every matrix that the criterion-3 sweep and its exceptional families
    # (at the seeds seed 0 of the max-rank benchmark uses) rank, or pass
    # to `forward` when the rank falls short, and the condition matrix of
    # each criterion-4 spec's synthesis: the kernel's pivots are the exact
    # pivots over Q.  The Tjurina Macaulay matrices of those curves are too
    # large for an exact pass; there the kernel's pivots are those of the
    # 2^61 - 1 reference.
    from test_acceptance import PIPELINE_SPECS, _rang_parameter_sets
    from nearpoints import locus
    from nearpoints.plane_systems import max_rank_generic
    from nearpoints.synthesis import min_degree, synthesize
    rank_mod, forward = linalg._rank_mod, linalg.forward
    ranked, solved = [], []
    monkeypatch.setattr(linalg, "_rank_mod",
                        lambda rows: ranked.append(rows) or rank_mod(rows))
    monkeypatch.setattr(linalg, "forward",
                        lambda rows: solved.append(rows) or forward(rows))
    for trial, _, _, _, comps in _rang_parameter_sets(50):
        max_rank_generic(comps, seed=trial)
    for seed, families in ((101, ([(2,)] * 5, [(2, 2, 2, 2, 2)],
                                  [(2, 2), (2,), (2,), (2,)])),
                           (102, ([(4,)] + [(2,)] * 6,
                                  [(4, 2, 2), (2, 2), (2, 2)]))):
        for comps in families:
            max_rank_generic(comps, seed=seed)
    curves = [(synthesize(spec, min_degree(spec), seed=31000 + k)[0], spec)
              for k, spec in enumerate(PIPELINE_SPECS)]
    condition = ranked + solved
    ranked.clear()
    for curve, spec in curves:
        locus.tjurina_certificate(curve.coeffs, spec.tjurina)
    monkeypatch.undo()
    assert len(condition) >= 80 and len(ranked) == len(PIPELINE_SPECS)
    for rows in condition:
        assert rank_mod(rows) == sorted(forward(rows))
    for rows in ranked:
        assert rank_mod(rows) == rank_mod_p61(rows)


# integral and primitive: the one place rationals become integer rows

BIG = 1 << 200
rationals = st.one_of(
    st.just(0), st.just(Fraction(0)),
    st.integers(-50, 50), st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
rational_rows = st.dictionaries(st.integers(0, 20), rationals, max_size=8)


@settings(max_examples=300, deadline=None)
@given(rational_rows)
def test_integral_scales_by_the_least_denominator(row):
    ints, den = linalg.integral(row)
    nonzero = {k: v for k, v in row.items() if v}
    assert ints.keys() == nonzero.keys()
    assert all(type(v) is int for v in ints.values())
    assert all(ints[k] == v * den for k, v in nonzero.items())
    # den is the least positive integer that clears every denominator
    assert den == lcm(*(Fraction(v).denominator for v in nonzero.values()))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 20),
                       st.one_of(st.just(0), st.integers(-BIG, BIG))))
def test_integral_keeps_plain_ints_as_they_are(row):
    ints, den = linalg.integral(row)
    assert den == 1
    assert ints == {k: v for k, v in row.items() if v}
    assert all(ints[k] is row[k] for k in ints)


@settings(max_examples=300, deadline=None)
@given(rational_rows.filter(lambda r: any(r.values())), st.data())
def test_primitive_has_content_one_and_a_positive_lead(row, data):
    ints = linalg.integral(row)[0]
    lead = data.draw(st.sampled_from(sorted(ints)))
    prim = linalg.primitive(ints, lead)
    assert prim.keys() == ints.keys()
    assert gcd(*prim.values()) == 1 and prim[lead] > 0
    # a rational multiple of the row
    assert all(prim[k] * ints[lead] == v * prim[lead]
               for k, v in ints.items())
    unsigned = linalg.primitive(ints)
    assert gcd(*unsigned.values()) == 1
    assert unsigned in (prim, {k: -v for k, v in prim.items()})


# the helpers that integral and primitive replace, kept as oracles

def old_normalized_row(vec):
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return {c: v // g for c, v in vec.items()}


def old_p_primitive(p):
    if not p:
        return {}
    den = 1
    for c in p.values():
        f = Fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = {e: int(Fraction(c) * den) for e, c in p.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g:
        ints = {e: v // g for e, v in ints.items()}
    lead = max(ints, key=lambda e: (e[0] + e[1], e[0]))
    if ints[lead] < 0:
        ints = {e: -v for e, v in ints.items()}
    return ints


def old_integer_coefficients(coeffs):
    den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return {e: int(Fraction(c) * den) for e, c in coeffs.items()}


polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        rationals, max_size=8)


@settings(max_examples=300, deadline=None)
@given(polys)
def test_integral_and_primitive_match_the_old_helpers(p):
    from nearpoints.polyops import p_clean, p_primitive
    clean = p_clean(p)
    # the old helpers kept zero entries; the callers passed none, or
    # passed the result on to code that drops them
    assert linalg.integral(p)[0] == p_clean(old_integer_coefficients(p))
    assert p_primitive(p) == old_p_primitive(clean)
    if clean:
        ints = linalg.integral(clean)[0]
        row = {a * 5 + b: v for (a, b), v in ints.items()}
        assert linalg.primitive(row, min(row)) == old_normalized_row(row)
