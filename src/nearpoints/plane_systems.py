"""Linear systems of plane curves through unions of cluster schemes.

Curves of degree d live in the affine chart as coefficient vectors over the
monomials X^a Y^b, a+b <= d.  Each embedded cluster contributes the rows of
its local condition matrix composed with the exact translation (and shear)
into its frame; the resulting matrix is the evaluation map whose rank decides
dimensions and maximal-rank verdicts.

The matrices are graded: for e >= d, the degree-d matrix is the column
prefix c < (d+1)(d+2)/2 of the degree-e one, up to scaling each row.
`monomials` lists the degree-d monomials first, every local row is cut at
a bound set by the multiplicities alone, and the column of X^a Y^b carries
D^(e-a-b), which is D^(e-d) times its factor in degree d; the common factor
goes when the row is made primitive.  So the rank in degree d is the rank
of a column prefix of any higher-degree matrix: it never falls as d grows,
and it never passes the row count, which is the length L of the normalized
union.  `max_rank` builds one matrix, at the first audited degree with more
than L columns, and reads every audited degree up to it off its prefixes;
full rank L there is full rank in every degree above, so no column past it
is built.  Only a shortfall there (superabundance above the level floor)
builds the matrix at the top audited degree as well.
"""

from dataclasses import dataclass

from . import linalg
from .clusters import (WeightedCluster, free_chain, is_consistent, system,
                       us_chain)
from .local_algebra import (ConditionMatrix, _emit_conditions, embed,
                            track_bounds)
from .polyops import monomials, translated_monomials
from .sampling import DEFAULT_HEIGHT, distinct_points, rng_from
from .unloading import length, unload


@dataclass(frozen=True)
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
    """Initial pipeline state for a degree-d curve at this component: local
    monomials of degree < bound -> sparse row over global monomial columns.

    The state is integral: with base and shear over the common denominator D,
    column X^a Y^b carries D^d X^a Y^b = D^(d-a-b) (D^(a+b) X^a Y^b); the
    common factor D^d goes when each condition row is made primitive."""
    D, images = translated_monomials(ec.base[0], ec.base[1], ec.shear, d,
                                     bound)
    state = {}
    for col, (a, b) in enumerate(monomials(d)):
        scale = D ** (d - a - b)
        for e, v in images[(a, b)].items():
            state.setdefault(e, {})[col] = v * scale
    return state


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
    -1 means empty."""
    mat = condition_matrix(Z, d)
    return mat.ncols - 1 - mat.rank()


def expected_dimension(Z, d):
    return max(-1, _ncols(d) - 1 - Z.total_length)


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

    The matrix is built at `first`, the smallest audited degree with more
    columns than rows (the top degree when there is none), and its column
    prefixes give the ranks up to it.  Full row rank at `first` is the rank
    of every degree above it; a shortfall builds the top-degree matrix for
    the degrees above `first`.  The expected dimension is read off the same
    length, with no second unloading.
    """
    Zn = Z.normalized()
    L = Zn.total_length
    if degrees is None:
        d_low = level_floor(L)
        degrees = range(d_low, d_low + 3)
    degrees = list(degrees)
    if not degrees:
        raise ValueError("no degree to audit")
    if min(degrees) < 0:
        raise ValueError("degree must be nonnegative")
    # ranks never fall as d grows and never pass the row count (see the
    # module docstring)
    top = max(degrees)
    first = min((d for d in degrees if _ncols(d) > L), default=top)
    mat = condition_matrix(Zn, first)
    low = [d for d in degrees if d <= first]
    have = dict(zip(low, linalg.rank(mat.rows, [_ncols(d) for d in low])))
    high = [d for d in degrees if d > first]
    if have[first] == len(mat.rows):
        have.update(dict.fromkeys(high, have[first]))
    elif high:
        # superabundant at `first`: the degrees above need their columns
        mat = condition_matrix(Zn, top)
        have.update(zip(high, linalg.rank(mat.rows,
                                          [_ncols(d) for d in high])))
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
    """ell of degree-d curves through a seeded generic embedding of a U_s
    cluster carrying the system."""
    rng = rng_from(seed, "stratum", s, tuple(mults))
    wc = WeightedCluster(us_chain(len(mults), s), tuple(mults))
    return ell(SchemeUnion((embed(wc, rng=rng, height=height),)), d)
