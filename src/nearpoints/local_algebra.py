"""Exact ideals of cluster schemes, computed by virtual transforms.

The computation walks a single chain point by point.  In the frame at the
current point the latest exceptional divisor is the axis {x = 0} and, when
the current point is a satellite, the older one is {y = 0}.  Each point
is reached from its predecessor by one blowup, a pair (swap, lam) carried
out as one exact substitution on truncated polynomials: exchange x and y
when swap is set, then f(x, y) -> f(x, x*(y + lam)) / x^m.  A free point is
the direction lam on the new divisor.  A satellite is a corner, direction 0:
f(x, x*y) reaches the corner with the older divisor and, after the
exchange, f(x*y, x) the corner with the previous one.  So lam = 0 right
after a satellite is the older-corner satellite, and `EmbeddedCluster`
forbids it on a free point.

`EmbeddedCluster.steps` gives the pair that reaches each point, and
`_step_sparse` is the only place that carries one out exactly.  It acts on
a state that maps local monomials to integer column dicts over one running
denominator, and `_walk` carries a state along the chain.  Its callers
differ only in the divisor m and in what they read at each point:

  condition rows (`_emit_conditions`): one column per germ coefficient,
      m the prescribed multiplicity;
  condition rows mod p (`_emit_packed`): the same walk with
      `_step_packed`, each state entry one packed int over the columns,
      for the max-rank certificate of `plane_systems` (the two steps stay
      apart: one (source, target, coefficient) term plan shared by both
      made the `local_ideals` benchmark 7.6% slower in wall time, median
      0.0900 s to 0.0969 s over 8 pairs);
  virtual transforms of a germ (`germ_transforms`): one column holding the
      germ's numerators, m the prescribed multiplicity;
  strict transforms of a germ (`_strict_walk`): one column, m the
      multiplicity the transform attains at the point, read off the
      state's keys; `strict_transforms` renders each state in Fractions,
      the sharpness audit (`synthesis.verify_sharp`) reads the integer
      states themselves, and `multiplicities_along` reads only m.

Monomials whose x-exponent would go negative under the division are exactly
the condition coefficients emitted at that point, so dropping them keeps the
transform exact on everything that still matters.  Arithmetic is exact
throughout, apart from the packed walk, which is exact mod p.
"""

from fractions import Fraction
from math import comb

from . import linalg
from .clusters import (WeightedCluster, check_valid, matches_stratum,
                       record, satellite_targets, single_chain, system)
from .polyops import (monomials, monomial_index, p_clean, p_min_deg,
                      p_translate, vector_of)
from .sampling import DEFAULT_HEIGHT, rand_fraction

_ZERO = Fraction(0)  # the direction of every satellite step, made once


@record
class EmbeddedCluster:
    """A weighted single-chain cluster with exact coordinates.

    base locates the first point in the plane; lambdas[k] is the direction
    parameter of free point k in the frame reached after k blowups (None for
    the root and for satellites, whose positions are corners of the frame).
    shear tilts the initial frame: plane coordinates relate to the local ones
    by X = x0 + x + shear*y, Y = y0 + y.
    """

    weighted: WeightedCluster
    lambdas: tuple
    base: tuple = (Fraction(0), Fraction(0))
    shear: Fraction = Fraction(0)

    def __post_init__(self):
        if self.weighted.cluster.root_count != 1:
            raise ValueError("an embedded cluster is a single chain")
        check_valid(self.weighted.cluster)
        lams = tuple(None if v is None else Fraction(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "base",
                           (Fraction(self.base[0]), Fraction(self.base[1])))
        object.__setattr__(self, "shear", Fraction(self.shear))
        extras = self.extras
        if len(lams) != self.r:
            raise ValueError("need one lambda slot per point")
        if self.r and lams[0] is not None:
            raise ValueError("the root carries no direction parameter")
        for k in range(1, self.r):
            if extras[k] is None:
                if lams[k] is None:
                    raise ValueError("free point %d needs a lambda" % k)
                if extras[k - 1] is not None and lams[k] == 0:
                    raise ValueError(
                        "lambda 0 at point %d is the satellite position over "
                        "the older divisor; forbidden for a free point" % k)
            elif lams[k] is not None:
                raise ValueError("satellite point %d carries no lambda" % k)

    @property
    def r(self):
        return self.weighted.r

    @property
    def mults(self):
        return self.weighted.mults

    @property
    def extras(self):
        return self.weighted.cluster.chains[0]

    @property
    def steps(self):
        """The blowup reaching each point k >= 1 as (swap, lam), None for
        the root: a free point is its direction lam, a satellite is the
        direction 0, after the exchange when it lies over the previous
        divisor (extra proximity to k-2)."""
        return (None,) + tuple(
            (False, self.lambdas[k]) if t is None
            else (t == k - 2, _ZERO)
            for k, t in enumerate(self.extras[1:], 1))

    def with_mults(self, mults):
        """The cluster with another multiplicity system; itself when the
        system is unchanged."""
        mults = tuple(mults)
        if mults == self.mults:
            return self
        return EmbeddedCluster(self.weighted.with_mults(mults), self.lambdas,
                               self.base, self.shear)

    def extend_free(self, lam):
        wc = WeightedCluster(single_chain(self.extras + (None,)),
                             self.mults + (1,))
        return EmbeddedCluster(wc, self.lambdas + (Fraction(lam),),
                               self.base, self.shear)

    def extend_satellite(self, target):
        if target not in satellite_targets(self.extras, self.r):
            raise ValueError("no satellite position over point %d here" % target)
        wc = WeightedCluster(single_chain(self.extras + (target,)),
                             self.mults + (1,))
        return EmbeddedCluster(wc, self.lambdas + (None,),
                               self.base, self.shear)


def embed(wc, lambdas=None, base=(0, 0), shear=0, rng=None,
          height=DEFAULT_HEIGHT):
    """Embed a single-chain weighted cluster; random admissible lambdas are
    drawn from rng where not supplied."""
    lams = list(lambdas) if lambdas is not None else [None] * wc.r
    if rng is not None:
        # a tuple of the wrong length is left to EmbeddedCluster to reject
        extras = wc.cluster.chains[0]
        for k in range(1, min(len(extras), len(lams))):
            if extras[k] is None and lams[k] is None:
                lams[k] = rand_fraction(rng, height,
                                        nonzero=extras[k - 1] is not None)
    return EmbeddedCluster(wc, tuple(lams), base, shear)


def track_bounds(mults, slack=0):
    """Degree bounds for the truncated transforms: at the arrival step of
    point i only monomials of total degree < bound[i] can still influence a
    condition at some later point (a step lowers degrees by at most the
    multiplicity it divides out)."""
    r = len(mults)
    bounds = [0] * r
    cur = 0
    for i in range(r - 1, -1, -1):
        cur = mults[i] + max(0, cur)
        bounds[i] = max(cur, 0) + slack
    return bounds


# Transforms are read past the condition degrees (the leading form at each
# point), so their truncation keeps this many degrees more.
_TRANSFORM_SLACK = 2


def _step_sparse(state, den, swap, lam, m_leave, keep_bound):
    """Advance a state one blowup: exchange x and y when swap is set, then
    f(x, y) -> f(x, x*(y + lam)) / x^m_leave, keeping monomials of degree
    below keep_bound.  state maps local monomials to integer column dicts
    over the common denominator den, storing no zero entry and no empty
    dict; returns the new (state, den) in the same form (a sum that cancels
    is deleted, which is safe because no stored entry, hence no added term,
    is 0)."""
    p, q = lam.numerator, lam.denominator
    bmax = max((a if swap else b for (a, b) in state), default=0)
    # pq[k] = p^k q^(bmax - k) = q^bmax (p/q)^k, the term y^(b-k) of
    # (y + p/q)^b over the new denominator, up to its binomial
    pq = [p ** k * q ** (bmax - k) for k in range(bmax + 1)]
    new = {}
    for (a, b), vec in state.items():
        if swap:
            a, b = b, a
        base_a = a + b - m_leave
        if base_a < 0:
            continue
        # x^a y^b -> x^(base_a) (y + lam)^b; at lam = 0 only y^b survives
        for l in range(b + 1) if p else (b,):
            if base_a + l >= keep_bound:
                break
            coef = comb(b, l) * pq[b - l]
            tgt = new.setdefault((base_a, l), {})
            for col, v in vec.items():
                s = tgt.get(col, 0) + coef * v
                if s:
                    tgt[col] = s
                else:
                    del tgt[col]
    return {e: vec for e, vec in new.items() if vec}, den * pq[0]


def _step_packed(state, swap, lam, m_leave, keep_bound, fold):
    """`_step_sparse` mod p = 2^31 - 1 on a state of packed rows (slots of
    the `linalg._folder` fold, each below 2^32), with no denominator: one
    multiply-add per (source, target) monomial, then two folds.  No
    monomial is dropped, not even one whose row vanishes mod p, so bmax is
    at least the exact step's and the new state is the exact one times an
    integer, mod p (see `plane_systems._certified_pivots`)."""
    P = linalg._P31
    p, q = lam.numerator, lam.denominator
    bmax = max((a if swap else b for (a, b) in state), default=0)
    pq = [pow(p, k, P) * pow(q, bmax - k, P) % P for k in range(bmax + 1)]
    new = {}
    for (a, b), vec in state.items():
        if swap:
            a, b = b, a
        base_a = a + b - m_leave
        if base_a < 0:
            continue
        for l in range(b + 1) if p else (b,):
            if base_a + l >= keep_bound:
                break
            e = (base_a, l)
            new[e] = new.get(e, 0) + comb(b, l) * pq[b - l] % P * vec
    return {e: fold(fold(vec)) for e, vec in new.items()}


def _walk(ec, state, den, bounds, divisor, step=_step_sparse):
    """Carry a state along the chain, yielding (k, state, den) at each point
    k.  The blowup leaving point k is step, `_step_sparse` by default, and
    divides by x^divisor(k, state); it is asked for once the caller has
    read point k.  bounds[k] truncates the state arriving at point k."""
    steps = ec.steps
    state = {e: vec for e, vec in state.items() if e[0] + e[1] < bounds[0]}
    for k in range(ec.r):
        yield k, state, den
        if k + 1 < ec.r:
            swap, lam = steps[k + 1]
            state, den = step(state, den, swap, lam, divisor(k, state),
                              bounds[k + 1])


def _emit_conditions(ec, init_state):
    """Run the pipeline and collect one normalized integer row per condition
    (point k, local monomial of degree < m_k), in walk order."""
    mults = ec.mults
    rows = []
    for k, state, _ in _walk(ec, init_state, 1, track_bounds(mults),
                             lambda k, _: mults[k]):
        for e in monomials(mults[k] - 1):
            vec = state.get(e)
            rows.append((k, e,
                         linalg.primitive(vec, min(vec)) if vec else {}))
    return rows


def _emit_packed(ec, init_state, fold):
    """`_emit_conditions` on a packed state, walked by `_step_packed`: the
    packed row of every condition mod p, in walk order, a monomial missing
    from the state as 0 and no row made primitive."""
    mults = ec.mults

    def step(state, _, *args):
        return _step_packed(state, *args, fold), None

    rows = []
    for k, state, _ in _walk(ec, init_state, None, track_bounds(mults),
                             lambda k, _: mults[k], step):
        rows += [state.get(e, 0) for e in monomials(mults[k] - 1)]
    return rows


@record
class ConditionMatrix:
    """Linear conditions on polynomials of degree <= max_deg: one sparse
    integer row (col index -> value) per condition, over the columns
    `monomials(max_deg)`.  `local_conditions` labels a row (point, local
    monomial); `plane_systems.condition_matrix` labels it (component,
    point, local monomial), and for one cluster based at the origin,
    unsheared, it is the local matrix up to that index."""

    max_deg: int
    labels: tuple
    rows: tuple
    ncols: int

    def rank(self):
        return linalg.rank(self.rows)

    def apply(self, f):
        """Values of every condition functional on a germ (dict polynomial
        in the local frame)."""
        vec = vector_of(f, self.max_deg)
        return [sum(v * vec[c] for c, v in row.items()) for row in self.rows]


def required_truncation(mults):
    """Smallest degree bound covering every condition functional."""
    return max(track_bounds(mults)[0] - 1, 0) if mults else 0


def local_conditions(ec, max_deg=None):
    """Condition matrix of the embedded cluster on germs at its base point,
    rows labelled (point, local monomial).

    max_deg defaults to the minimal sound value; anything smaller than the
    per-step degree audit allows is rejected.
    """
    need = required_truncation(ec.mults)
    if max_deg is None:
        max_deg = need
    if max_deg < need:
        raise ValueError("truncation %d too small: conditions reach degree %d"
                         % (max_deg, need))
    idx = monomial_index(max_deg)
    init = {e: {i: 1} for e, i in idx.items()}
    emitted = _emit_conditions(ec, init)
    labels = tuple((k, e) for k, e, _ in emitted)
    rows = tuple(vec for _, _, vec in emitted)
    return ConditionMatrix(max_deg, labels, rows, len(idx))


def colength(ec):
    """dim O / H for the embedded cluster: the rank of its condition matrix.
    Depends only on the proximity structure and multiplicities."""
    return local_conditions(ec).rank()


@record
class IdealSubspace:
    """The ideal of a cluster scheme, truncated in degree.

    Stored dually: `conditions` holds the defining linear functionals on
    germs of degree <= trunc, given as any rows and kept as their canonical
    `linalg.echelon` form (sparse primitive integer rows).  Two subspaces
    are equal iff truncation and conditions agree.  The kernel basis (the
    ideal side) is materialized on demand.
    """

    trunc: int
    conditions: tuple

    def __post_init__(self):
        object.__setattr__(self, "conditions",
                           linalg.echelon(self.conditions, self.ncols))

    @property
    def ncols(self):
        return len(monomials(self.trunc))

    @property
    def codim(self):
        return len(self.conditions)

    @property
    def dim(self):
        return self.ncols - self.codim

    def basis(self):
        """Reduced echelon basis of the truncated ideal, one polynomial per
        vector."""
        mons = monomials(self.trunc)
        return [{mons[c]: v for c, v in vec.items()}
                for vec in linalg.kernel(self.conditions, self.ncols)]

    def contains_subspace(self, other):
        """other <= self as subspaces (needs equal truncations)."""
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch")
        # echelon rows are independent: other.conditions has rank codim
        return linalg.rank(other.conditions + self.conditions) == other.codim


def default_truncation(mults):
    return sum(m * (m + 1) // 2 for m in mults if m > 0)


def ideal_subspace(ec, trunc=None):
    """Truncated ideal of the embedded cluster scheme.

    trunc must be at least sum m_i(m_i+1)/2 (the ideal contains every
    monomial of that degree, so the truncation determines it).
    """
    need = default_truncation(ec.mults)
    if trunc is None:
        trunc = need
    if trunc < need:
        raise ValueError("truncation %d below the saturation degree %d"
                         % (trunc, need))
    cs = local_conditions(ec)
    if cs.max_deg > trunc:
        raise AssertionError("condition support exceeds the truncation")
    return IdealSubspace(trunc, cs.rows)  # cs columns embed in trunc's


def contains(H, f):
    """Ideal membership of a germ, degree <= truncation enforced."""
    vec = vector_of(p_clean(f), H.trunc)
    return not any(sum(v * vec[c] for c, v in row.items())
                   for row in H.conditions)


def colon_subspace(H, f, e=None):
    """The conductor {g : f*g in H}, truncated at H.trunc.

    Products are formed at the enlarged degree and cut back; condition
    functionals extend by zero beyond the truncation because the ideal
    contains every monomial there.  e, when given, is the multiplicity
    vector of f along the cluster and is only sanity-checked.
    """
    f = p_clean(f)
    if not f:
        raise ValueError("colon by the zero germ")
    if e is not None and any(x < 0 for x in e):
        raise ValueError("negative multiplicities in e")
    mons = monomials(H.trunc)
    idx = monomial_index(H.trunc)
    terms = [(a, b, c) for (a, b), c in linalg.integral(f)[0].items()]
    rows = []
    # each functional of H composed with g -> f*g, scaled to integers: its
    # entry at monomial (a2, b2) meets the term c x^a y^b of f at the
    # monomial (a2-a, b2-b) of g
    for cond in H.conditions:
        row = {}
        for j, v in cond.items():
            a2, b2 = mons[j]
            for a, b, c in terms:
                if a <= a2 and b <= b2:
                    col = idx[(a2 - a, b2 - b)]
                    row[col] = row.get(col, 0) + c * v
        rows.append(row)
    return IdealSubspace(H.trunc, rows)


def _germ_state(f):
    """A germ as a one-column state: its numerators over the lcm of its
    denominators."""
    ints, den = linalg.integral(f)
    return {e: {0: v} for e, v in ints.items()}, den


def _germ_of(state, den):
    return {e: Fraction(vec[0], den) for e, vec in state.items()}


def germ_transforms(ec, mults, f):
    """Virtual transforms of a concrete germ along the chain, truncated.

    Yields the polynomial arriving at each point.  Raises if f fails a
    prescribed multiplicity (the virtual transform would not be a
    polynomial)."""
    def divisor(k, state):
        if any(e[0] + e[1] < mults[k] for e in state):
            raise ValueError(
                "germ has multiplicity below %d at point %d" % (mults[k], k))
        return mults[k]

    state, den = _germ_state(f)
    return [_germ_of(s, d) for _, s, d in
            _walk(ec, state, den, track_bounds(mults, _TRANSFORM_SLACK),
                  divisor)]


def _strict_walk(ec, f, bound_base=None):
    """The strict transforms of the germ f in integers: yields (state, den,
    e) at each point, the transform as a one-column state over den and e
    its attained multiplicity, read off the state's keys (None once the
    transform has vanished).  A state stores no zero entry, so its lowest
    key degree is the multiplicity.  The default audit bound tracks the
    prescribed multiplicities."""
    if bound_base is None:
        bound_base = [max(m, 1) for m in ec.mults]
    state, den = _germ_state(f)
    attained = []
    # the walk asks for the divisor after point k is read; a transform that
    # has vanished is carried on without division
    for _, s, d in _walk(ec, state, den,
                         track_bounds(bound_base, _TRANSFORM_SLACK),
                         lambda k, _: attained[k] or 0):
        attained.append(min((a + b for a, b in s), default=None))
        yield s, d, attained[-1]


def strict_transforms(ec, f, bound_base=None):
    """Actual (non-virtual) transforms: at each point the attained
    multiplicity is divided out.  Returns (per-point polynomial, attained
    multiplicities), the Fraction rendering of `_strict_walk`.
    Multiplicities beyond the audit bound come back as None together with
    a zero polynomial.

    The default audit bound tracks the prescribed multiplicities; pass
    bound_base to audit germs whose multiplicities may exceed them.
    """
    polys = []
    attained = []
    for s, d, e in _strict_walk(ec, f, bound_base):
        polys.append(_germ_of(s, d))
        attained.append(e)
    return polys, attained


def multiplicities_along(ec, f):
    """Attained multiplicity of the strict transforms of f at every cluster
    point (the e-vector of the germ along the cluster).

    Multiplicities only drop along a chain, so the starting one bounds the
    whole sequence and fixes a sound truncation even when the germ is fatter
    than the prescribed system."""
    e1 = p_min_deg(f)
    if e1 < 0:
        raise ValueError("zero germ has no multiplicities")
    base = [max(m, e1, 1) for m in ec.mults]
    es = [e for _, _, e in _strict_walk(ec, f, bound_base=base)]
    if any(e is None for e in es):
        raise ValueError("germ multiplicity exceeds the audit bound")
    return es


def to_local(F, ec):
    """Plane polynomial -> germ in the embedded cluster's local frame."""
    return p_translate(F, ec.base[0], ec.base[1], ec.shear)


def sandwiched_ideal_point(ec, m1, i, j, I):
    """Locate the point on the last exceptional divisor whose one-more-point
    scheme cuts out a given ideal sandwiched between the (m1, 2^i, 1^j) and
    (m1, 2^{i+1}, 1^{j-1}) ideals of a stratum cluster.

    Returns ("free", lambda) or ("satellite", target); the claimed equality
    of subspaces is verified before returning.
    """
    r = i + j + 1
    if ec.r != r:
        raise ValueError("cluster has %d points, need i+j+1 = %d" % (ec.r, r))
    # U_s and U_{s+1} agree on r points once s >= r
    if not any(matches_stratum(ec.weighted.cluster, s)
               for s in range(2, r + 1)):
        raise ValueError("cluster is not in a U_s pattern")
    if j < 1:
        raise ValueError("need j >= 1")
    m_minus = system(m1, i, j)
    m_plus = system(m1, i + 1, j - 1)
    H_minus = ideal_subspace(ec.with_mults(m_minus), I.trunc)
    H_plus = ideal_subspace(ec.with_mults(m_plus), I.trunc)
    if not (H_minus.contains_subspace(I) and I.contains_subspace(H_plus)):
        raise ValueError("ideal is not sandwiched between the two schemes")
    if not (H_plus.dim < I.dim < H_minus.dim):
        raise ValueError("sandwich is not strict")
    if H_minus.dim - H_plus.dim > 2:
        raise RuntimeError("dimension gap exceeds 2; should be impossible")
    f = next(g for g in I.basis() if not contains(H_plus, g))
    v = germ_transforms(ec, m_minus, f)[-1]
    cx = v.get((1, 0), Fraction(0))
    cy = v.get((0, 1), Fraction(0))
    if v.get((0, 0), 0) or (cx == 0 and cy == 0):
        raise RuntimeError("virtual transform at the last point is not smooth")
    if cy == 0:
        q = ("satellite", r - 2)
        ext = ec.extend_satellite(r - 2)
    else:
        lam = -cx / cy
        if lam == 0 and ec.extras[r - 1] is not None:
            q = ("satellite", ec.extras[r - 1])
            ext = ec.extend_satellite(ec.extras[r - 1])
        else:
            q = ("free", lam)
            ext = ec.extend_free(lam)
    m0 = system(m1, i, j + 1)
    H_q = ideal_subspace(ext.with_mults(m0), I.trunc)
    if H_q != I:
        raise RuntimeError("witness verification failed: the one-more-point "
                           "scheme does not cut out the given ideal")
    return q
