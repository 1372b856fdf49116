"""Exact linear algebra over the rationals.

Everything here is exact.  The one row form is the sparse integer dict row
(col -> int), from the caller to every kernel.  Input rows may also carry
Fractions or be sequences: `integral` and `primitive` are the one place in
the package where rationals become integer rows (`integral` scales a dict
by the lcm of its denominators, `primitive` divides an integer row by its
content and fixes its sign), and rank and echelon pass every row through
`integral` first.  Column keys need only sort, so tuples serve too.

`rank` certifies a sparse integer matrix with a modular rank: a nonzero
minor mod p is nonzero over Q, so the rank mod p never exceeds the rank
over Q, which never exceeds min(rows, cols).  A mod-p rank that reaches
that bound (full row rank, or full column rank of a tall matrix) is exact;
only a matrix whose mod-p rank falls short of it, which includes every
rank-deficient one, is counted exactly by `forward`, the one exact
elimination in the package.

Both eliminations walk the columns in key order, so each returns its pivot
columns, and the rank of a column prefix (the columns c < w) is the number
of pivots below w: the rows leading below w stay independent when cut to
the prefix, and the others vanish there.  So `rank(rows, widths)` gives
every prefix's rank from one mod-p elimination and at most one forward
pass.  Each prefix is certified on its own: its mod-p pivot count is the
rank mod p of the cut rows, which is at most their rank over Q, which is
at most min(rows, columns below w); a count that meets that bound is
exact.  Only a prefix whose count falls short reads its pivots off the
forward pass, run once for all such prefixes, on the rows cut below the
widest of them: a prefix's rank reads only its own columns, so no column
at or past that width enters the exact elimination.

The certificate works mod the Mersenne prime p = 2^31 - 1 on packed rows:
each row of an n-row matrix is one Python int of w-bit slots, one slot per
column key present, the smallest key lowest, with w >= 64 + bit_length(n)
rounded up to whole bytes (9 bytes up to 255 rows).  Slots hold nonnegative
representatives that are never reduced in place.  A pivot step reads the
low slot of every row (r & (2^w - 1), then % p).  It folds the pivot row
twice, slot by slot, with x -> (x mod 2^31) + (x >> 31), which keeps x mod p
because 2^31 = 1 mod p; multiplies it by -1/v mod p for its pivot entry v;
folds it once more; and replaces every other row r by (r >> w) + f * q,
where f is the low slot of r and q the folded pivot row without its low
slot.  So a pivot costs one multiply-add and one shift per row, whatever
the number of columns.

Exactness: two folds bring a slot below 2^31 + 2^(w - 62), so below 2^32
while w <= 93; rounded up to whole bytes, 64 + bit_length(n) stays within
that (w <= 88) for every n up to 2^24 - 1 = 16,777,215 rows.  The product
with -1/v < 2^31 stays below 2^63 and the third fold brings it below 2^33,
so with f < 2^31 one pivot adds less than 2^64 to a slot.  At most n - 1
pivots reach a row, so every slot stays below 2^(64 + bit_length(n)) <= 2^w
and never carries into its neighbour.  The packed rows are therefore the
rows of the plain elimination mod p, slot for slot up to multiples of p,
and the rank is the GF(p) rank.  The choice of prime only sets how often
the rank mod p falls short of the rank over Q, which sends `rank` to
`forward`; it never exceeds that rank, so every verdict stays certified.

`forward` is the forward pass of integer Gauss-Jordan on sparse primitive
rows (content 1): one primitive row per pivot column, reduced against the
pivot rows before it but not cleared above.  That is all a rank or a
solution for given free entries needs.  The canonical form of a row space
is `echelon`, which finishes the pass: sparse integer rows, each the reduced
echelon row times the lcm of its denominators.  Row spaces compare by
equality of their echelon forms, and `kernel` reads a sparse kernel basis
off one.  `rref` and `nullspace` are dense Fraction renderings of these
two.
"""

import struct
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

_P31 = (1 << 31) - 1  # Mersenne prime
# every zero entry rref and nullspace emit is this one object, so comparing
# two outputs meets mostly identical entries
_ZERO = Fraction(0)


def integral(values):
    """The nonzero values of a dict (int or Fraction) as integers over their
    least common denominator: returns (ints, den) with ints[k] == v * den.
    A dict of plain ints comes back filtered, its values untouched, over 1."""
    ints = {k: v for k, v in values.items() if v}
    dens = [v.denominator for v in ints.values() if type(v) is not int]
    if not dens:
        return ints, 1
    den = lcm(*dens)
    return {k: int(v * den) for k, v in ints.items()}, den


def primitive(row, lead=None):
    """The integer row divided by the gcd of its entries, with the sign
    chosen so that row[lead] > 0 when lead is given; the row itself when
    that changes nothing."""
    g = gcd(*row.values())
    if lead is not None and row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _to_sparse_int_rows(rows):
    """Input rows (dicts or sequences, int or Fraction entries) as fresh
    sparse integer dicts, each made integral; zero rows dropped."""
    out = []
    for row in rows:
        ints = integral(row if isinstance(row, dict)
                        else dict(enumerate(row)))[0]
        if ints:
            out.append(ints)
    return out


def _rank_mod(rows):
    """Pivot columns over GF(p), p = 2^31 - 1, of sparse integer rows:
    the sorted column keys where elimination in key order finds a pivot,
    as many as the rank mod p.

    Each row is packed into one int of w-bit slots, one slot per column
    key present, and a pivot step clears a column with one multiply-add and
    one shift per row; see the module docstring for why no slot ever
    carries into the next."""
    cols = sorted(set().union(*rows))
    nrows, ncols = len(rows), len(cols)
    if not nrows or not ncols:
        return []
    slots = {c: i for i, c in enumerate(cols)}
    p = _P31
    nbytes = (64 + nrows.bit_length() + 7) // 8
    w = 8 * nbytes
    low = (1 << w) - 1
    # every slot's low 31 bits, and its low w - 31 bits
    lo31 = int.from_bytes(p.to_bytes(nbytes, "little") * ncols, "little")
    hi = int.from_bytes(((1 << (w - 31)) - 1).to_bytes(nbytes, "little")
                        * ncols, "little")
    # a residue < 2^31 fills the low 4 bytes of its slot, zeros the rest
    pack = struct.Struct("<" + "I%dx" % (nbytes - 4) * ncols).pack
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
        # two folds: every slot < 2^31 + 2^(w - 62) <= 2^32
        q = (q & lo31) + ((q >> 31) & hi)
        q = (q & lo31) + ((q >> 31) & hi)
        # times -1/v and folded: the pivot slot is = -1 mod p and every
        # slot < 2^33, so f * q adds less than 2^64 to a slot
        q *= p - pow(v, -1, p)
        q = (q & lo31) + ((q >> 31) & hi)
        rows = [(r + f * q) >> w for r, f in zip(rows, lead)]
    return pivots


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
    return primitive(out)


def forward(rows):
    """The forward pass of integer Gauss-Jordan: the rows (dicts or
    sequences, int or Fraction entries) are made sparse integer rows, and
    each, made primitive, is reduced against the pivot rows found so far in
    leading-column order.  Returns {pivot column: primitive integer row
    leading there}; the number of pivots is the rank over Q."""
    by_lead = {}
    for row in _to_sparse_int_rows(rows):
        row = primitive(row)
        while row:
            lead = min(row)
            prow = by_lead.get(lead)
            if prow is None:
                by_lead[lead] = row
                break
            row = _eliminate(row, prow, lead)
    return by_lead


def _rank_bareiss(rows):
    """Exact pivot columns over Q, sorted: the pivots of `forward`, as many
    as the rank.  It keeps its name as the fallback that `rank` takes when
    the mod-p rank falls short."""
    return sorted(forward(rows))


def _below(keys, width):
    """How many of the sorted keys lie below width (all when it is None)."""
    return len(keys) if width is None else bisect_left(keys, width)


def rank(rows, widths=None):
    """Exact rank of a matrix with int or Fraction entries, given as dict
    rows (sparse, col -> value) or dense sequences and made sparse integer
    rows: the packed mod-p rank, then the pivot count of `forward` when the
    mod-p rank falls short of min(rows, cols).

    Given a list of widths, returns instead the exact rank of each column
    prefix, the columns c < w for each w in widths: its mod-p pivots where
    they meet the prefix's bound, otherwise those of one forward pass that
    all the short prefixes share, on the columns below the widest of them.
    """
    rows = _to_sparse_int_rows(rows)
    pivots = _rank_mod(rows)
    cols = sorted(set().union(*rows))
    bounds = [None] if widths is None else list(widths)
    out = [_below(pivots, w) for w in bounds]
    short = [i for i, w in enumerate(bounds)
             if out[i] < min(len(rows), _below(cols, w))]
    if short:
        cut = [bounds[i] for i in short]
        if None not in cut:
            # a prefix's rank reads only its own columns
            wide = max(cut)
            rows = [{c: v for c, v in row.items() if c < wide}
                    for row in rows]
        exact = _rank_bareiss(rows)
        for i in short:
            out[i] = _below(exact, bounds[i])
    return out[0] if widths is None else out


def echelon(rows, ncols):
    """Canonical echelon form over Q, as sparse integer rows.

    rows may be dicts (sparse, col -> value) or sequences, with int or
    Fraction entries.  `forward` reduces each row against the pivot rows
    found so far in leading-column order, then every pivot column is
    cleared from the pivot rows above it.

    Returns a tuple of dict rows in increasing pivot order, zero rows
    dropped: each reduced echelon row times the lcm of its denominators, so
    primitive, positive at its pivot (its smallest column) and zero in every
    other pivot column.  Row spaces are equal iff their echelon forms are.
    """
    by_lead = forward(rows)
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
        if max(row) >= ncols:
            raise ValueError("column %d beyond %d columns" % (max(row), ncols))
        out.append(primitive(row, col))
    return tuple(out)


def kernel(ech, ncols):
    """Basis of the right kernel of an echelon form: one sparse
    {col: Fraction} vector per free column, in free-column order, 1 there
    and 0 at the other free columns, entries in increasing column order."""
    pivots = [min(row) for row in ech]
    entries = {}  # free column -> [(pivot column, kernel entry)]
    for row, pc in zip(ech, pivots):
        for c, v in row.items():
            if c != pc:
                entries.setdefault(c, []).append((pc, Fraction(-v, row[pc])))
    pivots = set(pivots)
    return [dict(entries.get(fc, ())) | {fc: Fraction(1)}
            for fc in range(ncols) if fc not in pivots]


def _dense(vec, ncols):
    out = [_ZERO] * ncols
    for c, v in vec.items():
        out[c] = v
    return tuple(out)


def rref(rows, ncols):
    """Reduced row echelon form over Q: `echelon` rendered dense.

    Returns (rref_rows, pivot_cols); rref_rows is a tuple of tuples of
    Fractions with leading ones, zero rows dropped.  Two matrices have the
    same row space iff their rref outputs are equal.
    """
    ech = echelon(rows, ncols)
    pivots = [min(row) for row in ech]
    return tuple(_dense({c: Fraction(v, row[pc]) for c, v in row.items()},
                        ncols) for row, pc in zip(ech, pivots)), pivots


def nullspace(rows, ncols):
    """Basis of the right kernel: `kernel` rendered dense.

    Returns a list of length-ncols tuples of Fractions; each vector has a 1
    in its own free column, so the list is itself in echelon form.
    """
    return [_dense(vec, ncols)
            for vec in kernel(echelon(rows, ncols), ncols)]

