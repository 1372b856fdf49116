"""Linear systems of plane curves through unions of cluster schemes.

Curves of degree d live in the affine chart as coefficient vectors over the
monomials X^a Y^b, a+b <= d.  Each embedded cluster contributes the rows of
its local condition matrix composed with the exact translation (and shear)
into its frame; the resulting matrix is the evaluation map whose rank decides
dimensions and maximal-rank verdicts, both by `max_rank`: `ell` is
`max_rank` at one degree.  The monomial basis moves into a frame by one
closed form, taken in integers by `_translated_columns` and mod p by
`_translated_packed`.

The matrices are graded: for e >= d, the degree-d matrix is the column
prefix c < (d+1)(d+2)/2 of the degree-e one, up to scaling each row.
`monomials` lists the degree-d monomials first, every local row is cut at
a bound set by the multiplicities alone, and the column of X^a Y^b carries
D^(e-a-b), which is D^(e-d) times its factor in degree d; the common factor
goes when the row is made primitive.  So the rank in degree d is the rank
of a column prefix of any higher-degree matrix: it never falls as d grows,
and it never passes the row count, which is the length L of the normalized
union.

Both `linalg` eliminations, `_pivots_mod` and `_rank_bareiss`, walk the
columns in order and return their pivot columns, and the rank of a column
prefix, the columns c < w, is the number of pivots below w: the rows
leading below w stay independent when cut to the prefix, and the others
vanish there.  So one elimination gives the rank of every degree up to its
own, and the exact one is taken on the narrowest matrix that needs it.

`max_rank` certifies first: the matrix at `first`, the first audited
degree with more than L columns, built mod the prime p = 2^31 - 1 directly
as the packed rows of the `linalg` rank kernel (`_translated_packed`
translates mod p, `local_algebra._emit_packed` walks the blowups mod p,
and `linalg._pivots_mod` eliminates).  The rank mod p of a column prefix
never exceeds its rank over Q (see `_certified_pivots`), so a pivot count
below a degree's width that reaches min(L, columns) is exact, and a count
of L settles every degree above.  A count short of L at `first`
(superabundance above the level floor) takes the packed certificate once
more, at the top audited degree.  Whatever degrees it leaves short take
one exact matrix, by `condition_matrix`, at the widest of them, and read
their ranks off the pivots of `linalg._rank_bareiss`.
"""

from bisect import bisect_left
from math import comb
from operator import add, mul

from . import linalg
from .clusters import (WeightedCluster, free_chain, is_consistent, record,
                       system, us_chain)
from .local_algebra import (ConditionMatrix, _emit_conditions, _emit_packed,
                            embed, track_bounds)
from .polyops import monomials
from .sampling import DEFAULT_HEIGHT, distinct_points, rng_from
from .unloading import length, unload


@record
class SchemeUnion:
    """Embedded cluster schemes at pairwise distinct plane points."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        bases = [ec.base for ec in self.components]
        if len(set(bases)) != len(bases):
            raise ValueError("coincident base points in the union")

    @property
    def total_length(self):
        return sum(length(ec.weighted) for ec in self.components)

    def normalized(self):
        """Each component replaced by its consistent (unloaded) system; the
        defining ideals, hence all ranks, are unchanged."""
        return SchemeUnion(tuple(
            ec.with_mults(unload(ec.weighted).final.mults)
            for ec in self.components))


def _translated_columns(ec, d, bound):
    """Initial pipeline state for a degree-d curve at this component: every
    local monomial x^i y^j with i + j < bound (up to degree d) -> its sparse
    integer row over the degree-d columns, zero entries dropped; no row is
    empty, as the column of X^i Y^j holds D^(d-i) there.

    With base and shear written by `integral` as X0, Y0, S over their
    common denominator D, column X^a Y^b carries
    D^d X^a Y^b = D^(d-a-b) (X0 + D u)^a (Y0 + D y)^b, D u = D x + S y,
    whose coefficient at (D u)^i y^j is C(a, i) X0^(a-i) C(b, j) Y0^(b-j)
    D^j D^(d-a-b); then (D u)^i = (D x + S y)^i gives x^(i-k) y^(j+k) the
    factor C(i, k) D^(i-k) S^k.  The common factor D^d goes when each
    condition row is made primitive.  `_translated_packed` is this closed
    form mod p."""
    top = min(bound, d + 1)
    ints, D = linalg.integral({0: ec.base[0], 1: ec.base[1], 2: ec.shear})
    X0, Y0, S = (ints.get(k, 0) for k in range(3))
    cols = monomials(d)
    cols_a, cols_b = zip(*cols)
    dpow = [D ** k for k in range(d + 1)]

    def taylor(c0, exps):
        # row i < top: C(n, i) c0^(n-i) at the exponent n of each column
        pw = [c0 ** k for k in range(d + 1)]
        rows = []
        for i in range(top):
            t = [comb(n, i) * pw[n - i] if n >= i else 0
                 for n in range(d + 1)]
            rows.append(list(map(t.__getitem__, exps)))
        return rows

    xs, ys = taylor(X0, cols_a), taylor(Y0, cols_b)
    if D != 1:      # the column scale D^(d-a-b) rides on the x-rows
        colscale = [dpow[d - a - b] for a, b in cols]
        xs = [list(map(mul, row, colscale)) for row in xs]
    state = {}
    for i in range(top):
        for j in range(top - i):
            row = list(map(mul, xs[i], ys[j]))
            # D^j of the y-part and the factor of the shear, taken at once
            for k in range(i + 1) if S else (0,):
                c = comb(i, k) * dpow[i - k + j] * S ** k
                part = row if c == 1 else list(map(c.__mul__, row))
                e = (i - k, j + k)
                prev = state.get(e)
                state[e] = part if prev is None else list(map(add, prev, part))
    return {e: {col: v for col, v in enumerate(row) if v}
            for e, row in state.items()}


def _translated_packed(ec, d, bound, pack, fold):
    """`_translated_columns` mod p = 2^31 - 1, up to one common factor: every
    local monomial x^i y^j with i + j < bound (up to degree d; none is left
    out) -> its row over the degree-d columns, packed, slots below 2^32.

    It is the same closed form in GF(p), where the base (x0, y0) and the
    shear s are elements and D is 1: the state is the exact one times
    D^(-d) mod p.  Column X^a Y^b gives u^i y^j, u = x + s y, the
    coefficient C(a, i) x0^(a-i) C(b, j) y0^(b-j), and u^i gives
    x^(i-k) y^(j+k) the factor C(i, k) s^k.  A denominator divisible by p
    makes every row 0, which is 0 times the exact one."""
    P = linalg._P31
    top = min(bound, d + 1)
    keys = [(i, j) for i in range(top) for j in range(top - i)]
    ints, D = linalg.integral({0: ec.base[0], 1: ec.base[1], 2: ec.shear})
    if D % P == 0:
        return dict.fromkeys(keys, 0)
    inv = pow(D, -1, P)
    x0, y0, s = (ints.get(k, 0) * inv % P for k in range(3))
    cols_a, cols_b = zip(*monomials(d))

    def taylor(c0, cols):
        # row i < top: C(n, i) c0^(n-i) at the exponent n of each column
        pw = [pow(c0, k, P) for k in range(d + 1)]
        rows = []
        for i in range(top):
            t = [comb(n, i) * pw[n - i] % P if n >= i else 0
                 for n in range(d + 1)]
            rows.append(list(map(t.__getitem__, cols)))
        return rows

    xs, ys = taylor(x0, cols_a), taylor(y0, cols_b)
    # products below 2^62, folded twice
    state = {(i, j): fold(fold(pack(map(mul, xs[i], ys[j]))))
             for i, j in keys}
    if not s:
        return state
    out = {}
    for (i, j), row in state.items():
        for k in range(i + 1):
            e = (i - k, j + k)
            out[e] = out.get(e, 0) + comb(i, k) * pow(s, k, P) % P * row
    return {e: fold(fold(row)) for e, row in out.items()}


def _certified_pivots(Z, d, nrows):
    """The pivot columns mod p = 2^31 - 1 of `condition_matrix(Z, d)`,
    from its rows built mod p and packed (`_translated_packed`, then
    `local_algebra._emit_packed`) and eliminated by `linalg._pivots_mod`;
    nrows is the row count, the normalized union's length.

    The count below any width is at most the rank over Q of that column
    prefix.  Every exact state entry is an integer made by integer
    operations, so reducing it mod p is a ring map.  The packed translation,
    the closed form of `_translated_columns` mod p, is the exact one times
    c = D^(-d) mod p (or 0), and each packed step keeps every monomial it
    reaches, a row that vanishes mod p included, so its bmax is at least
    the exact step's and its factor q^bmax is the exact one times a power
    of q.  By induction each packed state is the
    exact one times one residue c mod p, and a monomial the exact walk
    drops (its row cancels over Z) holds 0 mod p.  So each packed row is
    c * g * (primitive exact row) mod p, g the content of the exact row;
    a row with c * g = 0 mod p is zero, which can only lower the rank mod
    p, and that rank never exceeds the rank over Q (see `linalg`).

    In a multiply-add a target sums at most bound <= nrows products below
    2^63 (bound is the sum of the multiplicities, nrows the sum of
    m(m+1)/2), so no slot of 63 + bit_length(nrows) bits carries."""
    ncols = _ncols(d)
    nbytes = linalg._slot_bytes(nrows)
    pack = linalg._packer(ncols, nbytes)
    fold = linalg._folder(ncols, nbytes)
    rows = []
    for ec in Z.components:
        bound = track_bounds(ec.mults)[0]
        state = _translated_packed(ec, d, bound, pack, fold)
        rows += _emit_packed(ec, state, fold)
    return linalg._pivots_mod(rows, range(ncols), nbytes)


def _ncols(d):
    """Number of monomials of degree <= d: the columns in degree d."""
    return (d + 1) * (d + 2) // 2


def condition_matrix(Z, d):
    """Evaluation map of degree-d curves on the union, in coordinates: a
    `ConditionMatrix` with max_deg d, its rows labelled (component, point,
    local monomial)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ncols = _ncols(d)
    rows = []
    labels = []
    for ci, ec in enumerate(Z.components):
        bound = track_bounds(ec.mults)[0]
        state = _translated_columns(ec, d, bound)
        for k, e, vec in _emit_conditions(ec, state):
            rows.append(vec)
            labels.append((ci, k, e))
    return ConditionMatrix(d, tuple(labels), tuple(rows), ncols)


def ell(Z, d):
    """Projective dimension of the system of degree-d curves through Z;
    -1 means empty: `max_rank` at the one degree d, in 0..MAX_DEGREE."""
    return max_rank(Z, [d])["detail"][0]["actual"]


def expected_dimension(Z, d):
    return max(-1, _ncols(d) - 1 - Z.total_length)


# The highest degree `max_rank` audits and `ell` reads: a degree-d condition
# matrix has (d+1)(d+2)/2 columns, 20,301 at the limit, and the report one
# entry per audited degree, so the limit bounds both, whatever degrees are
# asked for.
# Auditing every degree up to it took, on a 2-vCPU x86 VM with Python
# 3.11, medians: 0.10 s for the cold `maxrank` on
# tests/fixtures/five_doubles.json, whose certificate reaches full rank at
# degree 5, at a 16 MiB peak; and 0.15 s at a 32 MiB peak (15 MiB of it
# the interpreter and imports) for the catalog's superabundant (5,2),
# length 18, whose shortfall at degree 5 takes the packed certificate at
# degree 200 and the exact matrix at degree 5 only.
MAX_DEGREE = 200


def audit_degree(d):
    """d itself when it lies in 0..MAX_DEGREE; otherwise a ValueError."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > MAX_DEGREE:
        raise ValueError("degree %d above the audit limit %d"
                         % (d, MAX_DEGREE))
    return d


def level_floor(n):
    """Largest d with (d+1)(d+2)/2 <= n (and 0 when no such d exists)."""
    d = 0
    while (d + 2) * (d + 3) // 2 <= n:
        d += 1
    return d


def max_rank(Z, degrees=None):
    """Maximal-rank verdict with per-degree detail.

    The audited degrees default to [d_low, d_low+2], where d_low is the
    level floor of the total length; below the floor the conditions crush
    the whole space once they do at d_low, and independence propagates
    upward degree by degree, so the finite window decides the verdict.
    Pass degrees (an iterable) to audit any explicit set instead; an empty
    one is a ValueError, as there is nothing to give a verdict on.

    Every degree must lie in 0..MAX_DEGREE.

    The ranks are read off column prefixes (see the module docstring):
    `_certified_pivots` counts them mod p at `first`, the smallest audited
    degree with more columns than rows (the top degree when there is none),
    and once more at the top degree when the count at `first` falls short
    of the length L.  A count equal to min(L, columns) is exact, and a
    count of L is the rank of every degree above.  The degrees left short
    take one exact `condition_matrix`, at the widest of them, whose exact
    pivots (`linalg._rank_bareiss`) give the rank of each.  The length L
    is read off the normalized multiplicities, with no second unloading,
    and so is the expected dimension.
    """
    Zn = Z.normalized()
    # `length` would reject nothing here: a consistent system has no
    # negative multiplicity, as a chain's last point has excess equal to
    # its multiplicity and every earlier point at least the sum over the
    # later points proximate to it
    L = sum(m * (m + 1) // 2 for ec in Zn.components for m in ec.mults)
    if degrees is None:
        d_low = level_floor(L)
        degrees = range(d_low, d_low + 3)
    degrees = [audit_degree(d) for d in degrees]
    if not degrees:
        raise ValueError("no degree to audit")
    # ranks never fall as d grows and never pass the row count (see the
    # module docstring)
    top = max(degrees)
    first = min((d for d in degrees if _ncols(d) > L), default=top)
    pivots = _certified_pivots(Zn, first, L)
    if len(pivots) < L and first < top:
        pivots = _certified_pivots(Zn, top, L)
    # a degree above the certified one comes only after a count of L, and
    # its width passes every pivot
    have = {d: bisect_left(pivots, _ncols(d)) for d in degrees}
    short = [d for d in degrees if have[d] < min(L, _ncols(d))]
    if short:
        exact = linalg._rank_bareiss(condition_matrix(Zn, max(short)).rows)
        have.update((d, bisect_left(exact, _ncols(d))) for d in short)
    detail = []
    for d in degrees:
        ncols = _ncols(d)
        defect = min(ncols, L) - have[d]
        detail.append({"degree": d, "verdict": "defect" if defect else "ok",
                       "defect": defect, "expected": max(-1, ncols - 1 - L),
                       "actual": ncols - 1 - have[d]})
    return {"ok": not any(row["defect"] for row in detail), "length": L,
            "degrees": degrees, "detail": detail}


def generic_union(mult_systems, seed, height=DEFAULT_HEIGHT):
    """Union of free-chain components with the given multiplicity tuples at
    seeded random distinct points with random direction parameters."""
    rng = rng_from(seed, "generic-union", *map(tuple, mult_systems))
    bases = distinct_points(rng, len(mult_systems), height)
    comps = []
    for mults, base in zip(mult_systems, bases):
        wc = WeightedCluster(free_chain(len(mults)), tuple(mults))
        comps.append(embed(wc, rng=rng, base=base, height=height))
    return SchemeUnion(tuple(comps))


def max_rank_generic(mult_systems, seed, height=DEFAULT_HEIGHT):
    """max_rank on a seeded general-position realization.

    A defect triggers one independent re-draw.  Per degree the report keeps
    the entry with the smaller defect (the worse draw was non-generic), and
    it flags the configuration when the two draws disagree.
    """
    rep = max_rank(generic_union(mult_systems, seed, height))
    flagged = False
    if not rep["ok"]:
        again = max_rank(generic_union(mult_systems, seed + 0x9E3779B9,
                                       height))
        flagged = again["detail"] != rep["detail"]
        rep["detail"] = [min(d1, d2, key=lambda row: row["defect"])
                         for d1, d2 in zip(rep["detail"], again["detail"])]
        rep["ok"] = not any(row["defect"] for row in rep["detail"])
    rep["flagged"] = flagged
    return rep


EXCEPTION_SYSTEMS = (
    # (label, component multiplicity tuples, degree where maximal rank fails)
    ("(3,2)", ((3,), (2,)), 3),
    ("(4,2)", ((4,), (2,)), 4),
    ("(4,2^2)", ((4,), (2,), (2,)), 4),
    ("(5,2)", ((5,), (2,)), 5),
    ("(5,2^2)", ((5,), (2,), (2,)), 5),
    ("(4,2^6)", ((4,),) + ((2,),) * 6, 6),
    ("(2^2)", ((2,), (2,)), 2),
    ("(2^5)", ((2,),) * 5, 4),
)


def exception_catalog(seed=0, height=DEFAULT_HEIGHT):
    """Measure the catalog of superabundant systems at general points.

    Each entry reports the audited degrees, the degree at which maximal rank
    fails, and the measured defect there.
    """
    out = []
    for label, systems, bad_degree in EXCEPTION_SYSTEMS:
        rep = max_rank_generic(systems, rng_from(seed, label).randrange(2**32),
                               height=height)
        failures = {d["degree"]: d["defect"] for d in rep["detail"]
                    if d["verdict"] != "ok"}
        out.append({"system": label, "expected_degree": bad_degree,
                    "failures": failures, "report": rep})
    return out


def _head_system(m, i, j):
    """(m, 2^i, 1^j) as a multiplicity tuple; m = 0 means no multiple point."""
    return system(m if m > 0 else None, i, j)


def us_consistent(s, m, i, j):
    """Is (m, 2^i, 1^j) consistent on the U_s proximity pattern?

    m = 0 means there is no multiple point at all, which only makes sense
    on the free chain (satellites would be proximate to a weight-0 point).
    s < 1 names no stratum and is a ValueError.
    """
    if s < 1:
        raise ValueError("U_s needs s >= 1, got %d" % s)
    if m < 0:
        raise ValueError("negative head multiplicity")
    if i < 0 or j < 0:
        raise ValueError("negative count of double or simple points")
    mults = _head_system(m, i, j)
    if not mults:
        return True
    if m == 0:
        return s <= 1
    wc = WeightedCluster(us_chain(len(mults), s), mults)
    return is_consistent(wc)


def level_split(m, i, j, s):
    """Sandwich a consistent (m, 2^i, 1^j) on U_s between systems of exact
    level d and d+1: returns (m_minus, m_plus, d, eps) with
    length(m_minus) = (d+1)(d+2)/2 and length(m_plus) = (d+2)(d+3)/2."""
    if not us_consistent(s, m, i, j):
        raise ValueError("(%d, 2^%d, 1^%d) is not consistent in U_%d"
                         % (m, i, j, s))
    N = m * (m + 1) // 2 + 3 * i + j
    if N == 0:
        raise ValueError("the empty system has no level to split")
    d = level_floor(N)
    eps = N - (d + 1) * (d + 2) // 2
    if not 0 <= eps <= d + 1:
        raise AssertionError("level surplus out of range")
    m_plus = _head_system(m, i, j + d + 2 - eps)
    if i >= eps:
        m_minus = _head_system(m, i - eps, j + 2 * eps)
    else:
        m_minus = _head_system(m, 0, j + 3 * i - eps)
    return m_minus, m_plus, d, eps


def stratum_ell(s, mults, d, seed, height=DEFAULT_HEIGHT):
    """`ell`, so `max_rank` at the one degree d, of degree-d curves through
    a seeded generic embedding of a U_s cluster carrying the system."""
    rng = rng_from(seed, "stratum", s, tuple(mults))
    wc = WeightedCluster(us_chain(len(mults), s), tuple(mults))
    return ell(SchemeUnion((embed(wc, rng=rng, height=height),)), d)
