"""Exact linear algebra over the rationals.

Everything here is exact: matrices carry Python ints or Fractions, given as
dict rows (sparse, col -> value) or as sequences.  rank and rref both first
scale each row by the lcm of its denominators to a sparse integer row, so
the elimination itself runs on integers.

Ranks are computed by fraction-free (Bareiss) elimination, with a single
modular elimination as a fast certificate: a nonzero minor mod p is nonzero
over Q, so the rank mod p never exceeds the rank over Q, which never exceeds
min(rows, cols).  A mod-p rank that reaches that bound (full row rank, or
full column rank of a tall matrix) is exact; only a matrix whose mod-p rank
falls short of it, which includes every rank-deficient one, goes to the
fraction-free integer elimination.

The certificate works mod the Mersenne prime p = 2^61 - 1 on packed rows:
each row of an n-row matrix is one Python int of w-bit slots, column 0 in
the lowest slot, with w >= 124 + bit_length(n) rounded up to whole bytes.
Slots hold nonnegative representatives that are never reduced in place.
A pivot step reads the low slot of every row (r & (2^w - 1), then % p).
It folds the pivot row twice, slot by slot, with
x -> (x mod 2^61) + (x >> 61), which keeps x mod p because 2^61 = 1 mod p;
multiplies it by -1/v mod p for its pivot entry v; folds it once more; and
replaces every other row r by (r >> w) + f * q, where f is the low slot of
r and q the folded pivot row without its low slot.  So a pivot costs one
multiply-add and one shift per row, whatever the number of columns.

Exactness: two folds bring a slot below 2^62 (for n < 2^56), the product
below 2^123 and the third fold below 2^63, so with f < 2^61 one pivot adds
less than 2^124 to a slot.  At most n - 1 pivots reach a row, so every
slot stays below 2^(124 + bit_length(n)) <= 2^w and never carries into its
neighbour.  The packed rows are therefore the rows of the plain elimination
mod p, slot for slot up to multiples of p, and the rank is the GF(p) rank.

Reduced row echelon forms are computed by integer Gauss-Jordan on sparse
primitive rows (content 1), with a single division by the pivot per row at
the very end.  The result is canonical over Q, so row spaces can be compared
by equality.
"""

import struct
from fractions import Fraction
from math import gcd

_P61 = (1 << 61) - 1  # Mersenne prime
# every zero entry rref emits is this one object, so comparing two outputs
# meets mostly identical entries
_ZERO = Fraction(0)


def _to_sparse_int_rows(rows, ncols):
    """Normalize input rows (dicts or sequences, int or Fraction entries) to
    sparse integer dicts, scaling each row by the lcm of its denominators."""
    out = []
    for row in rows:
        if isinstance(row, dict):
            items = row.items()
        else:
            items = ((j, v) for j, v in enumerate(row))
        entries = {}
        den = 1
        ints = True  # every entry is a plain int: the row is ready as is
        for j, v in items:
            if not v:
                continue
            if type(v) is not int:
                ints = False
                if isinstance(v, Fraction):
                    den = den * v.denominator // gcd(den, v.denominator)
            entries[j] = v
        if not entries:
            continue
        if ints:
            out.append(entries)
        elif den == 1:
            out.append({j: int(v) for j, v in entries.items()})
        else:
            out.append({j: int(v * den) for j, v in entries.items()})
    return out


def _structural_eliminate(sparse_rows):
    """Peel off singleton rows: a row with a single nonzero entry pins its
    column, and clearing that column in other rows is a pure entry deletion.
    Returns (rank_gained, remaining_rows)."""
    rank = 0
    rows = [dict(r) for r in sparse_rows]
    changed = True
    while changed:
        changed = False
        keep = []
        dead_cols = set()
        for r in rows:
            for c in dead_cols:
                r.pop(c, None)
            if not r:
                continue
            if len(r) == 1:
                col = next(iter(r))
                if col in dead_cols:
                    continue
                dead_cols.add(col)
                rank += 1
                changed = True
            else:
                keep.append(r)
        if dead_cols:
            for r in keep:
                for c in dead_cols:
                    r.pop(c, None)
            keep = [r for r in keep if r]
        rows = keep
    return rank, rows


def _densify(sparse_rows):
    cols = sorted({c for r in sparse_rows for c in r})
    colmap = {c: i for i, c in enumerate(cols)}
    dense = []
    for r in sparse_rows:
        row = [0] * len(cols)
        for c, v in r.items():
            row[colmap[c]] = v
        dense.append(row)
    return dense, len(cols)


def _rank_mod(dense, ncols):
    """Rank over GF(p), p = 2^61 - 1, of a dense integer matrix.

    Each row is packed into one int of w-bit slots, column 0 lowest, and a
    pivot step clears a column with one multiply-add and one shift per row;
    see the module docstring for why no slot ever carries into the next."""
    nrows = len(dense)
    if not nrows or not ncols:
        return 0
    p = _P61
    nbytes = (124 + nrows.bit_length() + 7) // 8
    w = 8 * nbytes
    low = (1 << w) - 1
    # every slot's low 61 bits, and its low w - 61 bits
    lo61 = int.from_bytes(p.to_bytes(nbytes, "little") * ncols, "little")
    hi = int.from_bytes(((1 << (w - 61)) - 1).to_bytes(nbytes, "little")
                        * ncols, "little")
    # a residue < 2^61 fills the low 8 bytes of its slot, zeros the rest
    pack = struct.Struct("<" + "Q%dx" % (nbytes - 8) * ncols).pack
    rows = [int.from_bytes(pack(*[v % p for v in r]), "little")
            for r in dense]
    rank = 0
    for _ in range(ncols):
        lead = [(r & low) % p for r in rows]
        for piv, v in enumerate(lead):
            if v:
                break
        else:
            rows = [r >> w for r in rows]
            continue
        rank += 1
        q = rows.pop(piv)
        if not rows:
            break
        del lead[piv]
        # two folds: every slot < 2^61 + 2^(w - 121) < 2^62
        q = (q & lo61) + ((q >> 61) & hi)
        q = (q & lo61) + ((q >> 61) & hi)
        # times -1/v and folded: the pivot slot is = -1 mod p and every
        # slot < 2^63, so f * q adds less than 2^124 to a slot
        q *= p - pow(v, -1, p)
        q = (q & lo61) + ((q >> 61) & hi)
        rows = [(r + f * q) >> w for r, f in zip(rows, lead)]
    return rank


def _rank_bareiss(dense, ncols):
    """Fraction-free Gaussian elimination; exact integer divisions only."""
    rows = [list(r) for r in dense]
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


def rank(rows, ncols=None):
    """Exact rank of a matrix with int or Fraction entries.

    rows may be dicts (sparse, col -> value) or dense sequences.
    """
    if ncols is None:
        ncols = 0
        for row in rows:
            if isinstance(row, dict):
                ncols = max([ncols] + [c + 1 for c in row])
            else:
                ncols = max(ncols, len(row))
    sparse = _to_sparse_int_rows(rows, ncols)
    base, rest = _structural_eliminate(sparse)
    if not rest:
        return base
    dense, m = _densify(rest)
    rm = _rank_mod(dense, m)
    if rm == min(len(dense), m):
        return base + rm
    return base + _rank_bareiss(dense, m)


def _primitive(row):
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _eliminate(row, prow, col):
    """Clear column col of row with the pivot row prow:
    (b/g) row - (a/g) prow for a = row[col], b = prow[col], g = gcd(a, b),
    returned primitive."""
    a, b = row[col], prow[col]
    g = gcd(a, b)
    fr, fp = b // g, a // g
    out = {c: fr * v for c, v in row.items()}
    for c, v in prow.items():
        s = out.get(c, 0) - fp * v
        if s:
            out[c] = s
        else:
            del out[c]
    return _primitive(out) if out else out


def rref(rows, ncols):
    """Canonical reduced row echelon form over Q.

    rows may be dicts (sparse, col -> value) or sequences, with int or
    Fraction entries.  The elimination is an integer Gauss-Jordan on sparse
    primitive rows: each row is reduced against the pivot rows found so far
    in leading-column order, every pivot column is then cleared from the
    pivot rows above it, and only at the end is each row divided by its
    pivot entry.

    Returns (rref_rows, pivot_cols); rref_rows is a tuple of tuples of
    Fractions with leading ones, zero rows dropped.  Two matrices have the
    same row space iff their rref outputs are equal.
    """
    by_lead = {}  # pivot column -> primitive integer row leading there
    for row in _to_sparse_int_rows(rows, ncols):
        row = _primitive(row)
        while row:
            lead = min(row)
            prow = by_lead.get(lead)
            if prow is None:
                by_lead[lead] = row
                break
            row = _eliminate(row, prow, lead)
    pivots = sorted(by_lead)
    # last pivot first: the pivot row used to clear a column has already
    # lost its entries in every later pivot column, so none comes back
    for i in range(len(pivots) - 1, 0, -1):
        col = pivots[i]
        prow = by_lead[col]
        for above in pivots[:i]:
            row = by_lead[above]
            if col in row:
                by_lead[above] = _eliminate(row, prow, col)
    out = []
    for col in pivots:
        row = by_lead[col]
        piv = row[col]
        dense = [_ZERO] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v, piv)
        out.append(tuple(dense))
    return tuple(out), pivots


def nullspace(rows, ncols):
    """Basis of the right kernel, read off a reduced echelon form.

    Returns a list of length-ncols tuples of Fractions; each vector has a 1
    in its own free column, so the list is itself in echelon form.
    """
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(tuple(vec))
    return basis


def row_space_contains(outer_rows, inner_rows, ncols):
    """True iff the row space of outer contains every row of inner."""
    r_outer = rank(list(outer_rows), ncols)
    r_join = rank(list(outer_rows) + list(inner_rows), ncols)
    return r_outer == r_join


def solve_dense(rows, rhs, ncols):
    """One exact solution x of rows @ x = rhs, or None if inconsistent."""
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row) if isinstance(row, dict) else dict(enumerate(row))
        r[ncols] = b
        aug.append(r)
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x
