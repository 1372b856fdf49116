"""Exact linear algebra over the rationals.

Everything here is exact.  The one row form is the sparse integer dict row
(col -> int), from the caller to every kernel.  Input rows may also carry
Fractions or be sequences: `integral` and `primitive` are the one place in
the package where rationals become integer rows (`integral` scales a dict
by the lcm of its denominators, `primitive` divides an integer row by its
content and fixes its sign), and `forward` passes every row through
`integral` first.  Column keys need only sort, so tuples serve too.

Ranks are exact: `rank` counts the pivots of `forward`, the one exact
elimination in the package, in a single pass.  Modular arithmetic serves
only two certificates, on matrices where an exact pass costs too much: the
max-rank certificate of `plane_systems` and the Tjurina count of `locus`.
A nonzero minor mod p is nonzero over Q, so a rank mod p never exceeds the
rank over Q.  A full count is therefore exact; where a count falls short,
`max_rank` takes one exact matrix and the Tjurina scan moves on.

Both work mod the Mersenne prime p = 2^31 - 1 on packed rows:
each row of an n-row matrix is one Python int of w-bit slots, one slot per
column key, the smallest key lowest, with w = 63 + bit_length(n) rounded up
to whole bytes (9 bytes up to 511 rows), one bit more from 16,384 rows.
Rows enter with nonnegative representatives below 2^32 in their slots,
which are never reduced in place.  The one pivot loop, `_pivots_mod`, is
fed two ways.  `plane_systems` builds the rows of its max-rank certificate
packed, every slot folded twice to below 2^32, and all of them are active
from the first column.  `_shifted_pivots` serves the Macaulay rows of the
Tjurina count: each row there is a monomial multiple of a partial
derivative, so it packs each partial once, as residues below p, and passes
every row unshifted with its shift as its start.  A row joins the active
rows when the column walk reaches its start, since before that its slots
are zero and no step can touch it; a column step costs only its active
rows, and most Macaulay rows start far to the right.  `_rank_mod`, which
packs sparse integer rows as residues below p, is on no package path: it
is the dict-row reference the tests hold both packed builds to.

A pivot step reads the low slot of every active row (r & (2^w - 1), then
% p).  It folds the pivot row twice, slot by slot, with
x -> (x mod 2^31) + (x >> 31), which keeps x mod p because 2^31 = 1 mod p;
multiplies it by -1/v mod p for its pivot entry v; folds it once more; and
replaces every other active row r by (r >> w) + f * q, where f is the low
slot of r and q the folded pivot row without its low slot.  So a pivot
costs one multiply-add and one shift per active row, whatever the number
of columns.

Exactness: a slot below 2^w folds below 2^31 + 2^(w - 31), then below
2^31 + 2^(w - 62), which is at most 2^32 while w <= 93.  The product with
-1/v <= 2^31 - 2 stays below 2^62 + 2^(w - 31), and the third fold brings
it below 2^32 + 2^(w - 62), so with f < 2^31 one pivot adds less than
2^63 + 2^(w - 31) to a slot (2^63 + 2^41 in a 9-byte slot).  A row enters
with slots below 2^32, at the first column or at its start, and meets at
most n - 1 <= 2^b - 2 pivots, b = bit_length(n): a row that enters late
meets only the pivots found from its start on, fewer still.  So its slots
stay below 2^32 + (2^b - 2)(2^63 + 2^(w - 31)): below 2^(63 + b) when
b + w <= 94, and below 2^(64 + b) when w <= 94.  So 63 + b bits rounded up
to whole bytes serve while b <= 14 (n below 16,384; w <= 80), and 64 + b
bits rounded up beyond, while w <= 88 (n below 2^24): no slot carries into
a neighbour.  The packed rows are therefore the rows of the plain
elimination mod p, slot for slot up to multiples of p, and the rank is the
GF(p) rank.  The choice of prime only sets how often the rank mod p falls
short of the rank over Q; it never exceeds that rank, so every verdict
stays certified.

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
    # v = n/q over den is n * (den // q), with no Fraction made
    return {k: v.numerator * (den // v.denominator)
            for k, v in ints.items()}, den


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


def _slot_bytes(nrows):
    """Bytes per slot of an nrows-row packed elimination: 63 +
    bit_length(nrows) bits, one more from 2^14 rows, rounded up to whole
    bytes; 9 up to 511 rows (see the module docstring)."""
    b = nrows.bit_length()
    return (63 + b + (b > 14) + 7) // 8


def _packer(ncols, nbytes):
    """The function packing an iterable of ncols values below 2^64 into one
    int of nbytes-byte slots (nbytes >= 8), the first lowest."""
    # a value fills the low 8 bytes of its slot, zeros the rest
    pack = struct.Struct("<" + "Q%dx" % (nbytes - 8) * ncols).pack
    return lambda vals: int.from_bytes(pack(*vals), "little")


def _fold_masks(ncols, nbytes):
    """The masks (lo31, hi) of the fold x -> (x & lo31) + ((x >> 31) & hi),
    which maps every slot x of an int of ncols nbytes-byte slots to
    (x mod 2^31) + (x >> 31) and so keeps it mod p = 2^31 - 1."""
    # every slot's low 31 bits, and its low w - 31 bits
    return (int.from_bytes(_P31.to_bytes(nbytes, "little") * ncols, "little"),
            int.from_bytes(((1 << (8 * nbytes - 31)) - 1).to_bytes(
                nbytes, "little") * ncols, "little"))


def _folder(ncols, nbytes):
    """The fold of `_fold_masks` as a function."""
    lo31, hi = _fold_masks(ncols, nbytes)
    return lambda x: (x & lo31) + ((x >> 31) & hi)


def _rank_mod(rows):
    """Pivot columns over GF(p), p = 2^31 - 1, of sparse integer rows:
    the sorted column keys where elimination in key order finds a pivot,
    as many as the rank mod p.

    Each row is packed into one int of slots, one slot per column key
    present, and `_pivots_mod` eliminates.  No package path calls it: it
    is the dict-row reference that the tests hold the packed certificate
    and the shifted Tjurina rows to, and the benchmark counts its calls
    as `linalg.rank_modp`."""
    cols = sorted(set().union(*rows))
    if not rows or not cols:
        return []
    slots = {c: i for i, c in enumerate(cols)}
    nbytes = _slot_bytes(len(rows))
    pack = _packer(len(cols), nbytes)
    packed = []
    for r in rows:
        vals = [0] * len(cols)
        for c, v in r.items():
            vals[slots[c]] = v % _P31
        packed.append(pack(vals))
    return _pivots_mod(packed, cols, nbytes)


def _shifted_pivots(gens, ncols):
    """Pivot columns mod p, among 0..ncols-1, of a matrix whose rows are
    whole-slot shifts of a few generators: gens lists (entries, shifts),
    entries a dict {slot: int} and each s in shifts the row holding
    entries[i] at column i + s, every such column below ncols.

    Each generator is packed once, as residues below p, and every row is
    that int unshifted: it joins `_pivots_mod`'s elimination when the
    column walk reaches its shift, since no step before can touch its zero
    slots.  The rows go in by shift, ties in the order of gens: the pivot
    found for a column is then the row that reaches least far, so the rows
    it is added to grow no longer than they must."""
    nrows = sum(len(shifts) for _, shifts in gens)
    width = 1 + max((max(g) for g, _ in gens if g), default=-1)
    if not nrows or not width:
        return []
    nbytes = _slot_bytes(nrows)
    pack = _packer(width, nbytes)
    rows = []
    for entries, shifts in gens:
        vals = [0] * width
        for i, v in entries.items():
            vals[i] = v % _P31
        g = pack(vals)
        rows += [(s, g) for s in shifts]
    rows.sort(key=lambda row: row[0])
    return _pivots_mod([r for _, r in rows], range(ncols), nbytes,
                       [s for s, _ in rows])


def _pivots_mod(rows, cols, nbytes, starts=None):
    """The pivot columns mod p of rows packed in nbytes-byte slots, slot i
    holding column cols[i] (sorted) and every slot below 2^32, with nbytes
    at least `_slot_bytes(len(rows))`: a pivot step clears a column with
    one multiply-add and one shift per active row; see the module docstring
    for why no slot ever carries into the next.

    Without starts every row is active from the first column.  With starts,
    a nondecreasing index into cols for each row, a row joins the active
    rows, its low slot at cols[start], when the walk reaches that column:
    it stands for the row shifted start slots up, whose zero lower slots
    no step could touch.  Active rows keep the order of rows, so the pivots
    are those of the shifted rows all active from the first column."""
    p = _P31
    w = 8 * nbytes
    low = (1 << w) - 1
    lo31, hi = _fold_masks(len(cols), nbytes)
    n = len(rows)
    # rows[:enter] have joined; without starts, all of them at once
    active, enter = (rows, n) if starts is None else ([], 0)
    pivots = []
    for k, col in enumerate(cols):
        while enter < n and starts[enter] <= k:
            active.append(rows[enter])
            enter += 1
        lead = [(r & low) % p for r in active]
        for piv, v in enumerate(lead):
            if v:
                break
        else:
            active = [r >> w for r in active]
            continue
        pivots.append(col)
        q = active.pop(piv)
        if not active:
            if enter == n:
                break
            continue
        del lead[piv]
        # two folds: every slot < 2^31 + 2^(w - 62) <= 2^32
        q = (q & lo31) + ((q >> 31) & hi)
        q = (q & lo31) + ((q >> 31) & hi)
        # times -1/v and folded: the pivot slot is = -1 mod p and every
        # slot < 2^32 + 2^(w - 62), so f * q adds less than 2^63 + 2^(w - 31)
        q *= p - pow(v, -1, p)
        q = (q & lo31) + ((q >> 31) & hi)
        active = [(r + f * q) >> w for r, f in zip(active, lead)]
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
    as the rank.  `rank`, the squarefree test and `max_rank`'s one exact
    matrix take their ranks here."""
    return sorted(forward(rows))


def rank(rows):
    """Exact rank of a matrix with int or Fraction entries, given as dict
    rows (sparse, col -> value) or dense sequences: the pivot count of
    `forward`, in one exact pass."""
    return len(_rank_bareiss(rows))


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

