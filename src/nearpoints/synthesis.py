"""Plane curves with prescribed tacnodes and higher-order cusps.

Constructors build the singularity schemes (tacnode, cusp, D-type), a degree
bound decides where interpolation is possible, and `synthesize` draws an
explicit exact curve through the union.  Certification is by actual blowup
and then by a global count.  `verify_sharp` recomputes the multiplicities of
the strict transforms along the cluster and audits every crossing with the
exceptional configuration; a sharp pass fixes each prescribed germ as an A_k
point with Tjurina number k.  The audit runs in integers, from the curve's
translation to the local frame through the strict walk to the squarefree
test, and makes no Fraction.  Then the Tjurina-count certificate
(`tjurina_certificate`, from `locus`) shows that the curve is reduced and
singular nowhere else, at infinity included.  `certify` is that one chain,
for the driver and the CLI `verify` alike.  No path here imports sympy.
"""

from math import gcd

from .clusters import (WeightedCluster, excesses, free_chain, record,
                       single_chain)
# `strict_transforms` and `singular_locus` are not called here; they stay
# bound because the benchmark's span sites wrap them by name in this module
from .local_algebra import _strict_walk, embed, strict_transforms
from .locus import singular_locus, tjurina_certificate
from .plane_systems import SchemeUnion, audit_degree, condition_matrix
from . import linalg
from .polyops import (monomial_key, monomials, p_clean, p_primitive,
                      p_translate_ints, u_clean, u_divide_out,
                      u_is_squarefree)
from .sampling import DEFAULT_HEIGHT, distinct_points, rng_from


@record
class SingularitySpec:
    """Orders of the prescribed singularities: a tacnode of order t is t
    free double points in a row (order 1 is a node); a cusp of order n is
    (2^n, 1, 1) with the last point satellite (order 1 is an ordinary
    cusp)."""

    tacnodes: tuple = ()
    cusps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tacnodes", tuple(int(t) for t in self.tacnodes))
        object.__setattr__(self, "cusps", tuple(int(n) for n in self.cusps))
        if any(t < 1 for t in self.tacnodes) or any(n < 1 for n in self.cusps):
            raise ValueError("singularity orders must be positive")

    @property
    def weight(self):
        return sum(self.tacnodes) + sum(n + 1 for n in self.cusps)

    @property
    def tjurina(self):
        """Sum of the Tjurina numbers: a tacnode of order t is A_{2t-1}, a
        cusp of order n is A_{2n}."""
        return (sum(2 * t - 1 for t in self.tacnodes)
                + sum(2 * n for n in self.cusps))


@record
class PlaneCurve:
    """Exact affine plane curve of degree <= d."""

    d: int
    coeffs: dict

    def __post_init__(self):
        cleaned = p_clean(self.coeffs)
        if any(a + b > self.d for (a, b) in cleaned):
            raise ValueError("coefficient beyond the stated degree")
        object.__setattr__(self, "coeffs", cleaned)


def tacnode_scheme(t, base=(0, 0), seed=0, rng=None, height=DEFAULT_HEIGHT,
                   shear=0):
    """Chain of t free double points: the scheme cut out by a tacnode of
    order t (an A_{2t-1} singularity); length 3t."""
    if t < 1:
        raise ValueError("tacnode order must be >= 1")
    if rng is None:
        rng = rng_from(seed, "tacnode", t, base)
    wc = WeightedCluster(free_chain(t), (2,) * t)
    return embed(wc, base=base, rng=rng, height=height, shear=shear)


def cusp_scheme(n, base=(0, 0), seed=0, rng=None, height=DEFAULT_HEIGHT,
                shear=0):
    """Cusp scheme of order n in the extended form used for interpolation:
    n free double points, a free simple point, a satellite simple point over
    the corner with the previous divisor and one more free simple point on
    the last exceptional divisor; length 3(n+1)."""
    if n < 1:
        raise ValueError("cusp order must be >= 1")
    if rng is None:
        rng = rng_from(seed, "cusp", n, base)
    extras = [None] * (n + 1) + [n - 1, None]
    wc = WeightedCluster(single_chain(extras), (2,) * n + (1, 1, 1))
    return embed(wc, base=base, rng=rng, height=height, shear=shear)


def dk_scheme(k, seed=0):
    """Scheme of the infinitely near singular points of a D_k singularity,
    based at the origin with seeded lambdas: (3, 2^{k/2-2}) on free points
    for even k; (3, 2^{r-3}, 1^2) with the last point satellite,
    r = (k+1)/2, for odd k."""
    if k < 4:
        raise ValueError("D_k needs k >= 4")
    rng = rng_from(seed, "dk", k, (0, 0))
    if k % 2 == 0:
        npts = k // 2 - 1
        wc = WeightedCluster(free_chain(npts), (3,) + (2,) * (npts - 1))
    else:
        r = (k + 1) // 2
        extras = [None] * (r - 1) + [r - 3]
        wc = WeightedCluster(single_chain(extras),
                             (3,) + (2,) * (r - 3) + (1, 1))
    return embed(wc, rng=rng)


def degree_bound(M):
    """Smallest d with d(d+1) >= 6M."""
    d = 1
    while d * (d + 1) < 6 * M:
        d += 1
    return d


def min_degree(spec):
    """Smallest degree d with d(d+1) >= 6*(sum t_i + sum (n_i+1)).

    The total weight must be at least 3; weight 5 is rejected (no uniform
    bound covers it)."""
    M = spec.weight
    if M < 3 or M == 5:
        raise ValueError("total weight %d unsupported (needs >= 3, != 5)" % M)
    return degree_bound(M)


def _spec_union(spec, seed, height):
    rng = rng_from(seed, "placement", spec.tacnodes, spec.cusps)
    count = len(spec.tacnodes) + len(spec.cusps)
    bases = distinct_points(rng, count, height)
    comps = []
    for t in spec.tacnodes:
        comps.append(tacnode_scheme(t, base=bases[len(comps)], rng=rng,
                                    height=height, shear=rng.randint(0, 3)))
    for n in spec.cusps:
        comps.append(cusp_scheme(n, base=bases[len(comps)], rng=rng,
                                 height=height, shear=rng.randint(0, 3)))
    return SchemeUnion(tuple(comps))


def synthesize(spec, d, seed=0, height=DEFAULT_HEIGHT):
    """Draw an exact degree-d curve through a general-position realization
    of the singularity schemes from one forward pass (`linalg.forward`) per
    attempt of the degree-d condition matrix.  Its pivots below d(d+1)/2
    count the rank in degree d-1, which must be the union's length (the
    genericity hypothesis that makes the general member irreducible and
    exactly as singular as prescribed); one resample is attempted if the
    seeded draw misses it.

    The curve is the kernel vector with seeded integer free entries, drawn
    again while all are 0.  The pivot entries are solved over Z by back
    substitution, last pivot first: each pivot row gives its entry as a
    quotient, and the solved entries are scaled by its denominator when that
    is not 1.  The integer vector is a nonzero multiple of the rational
    solution, so its primitive form is the same curve.  Returns (PlaneCurve,
    SchemeUnion).  A degree below 3 (every singular curve of degree <= 2
    is reducible) or above `plane_systems.MAX_DEGREE` is a ValueError."""
    if not spec.tacnodes and not spec.cusps:
        raise ValueError("no tacnode or cusp prescribed")
    if d < 3:
        raise ValueError("degree %d below 3: a singular curve of degree <= 2 "
                         "is reducible (a singular conic is a line pair)" % d)
    if d < degree_bound(spec.weight):
        raise ValueError("degree %d below the bound %d"
                         % (d, degree_bound(spec.weight)))
    audit_degree(d)
    last_err = None
    for attempt in (0, 1):
        union = _spec_union(spec, seed + 1000003 * attempt, height)
        mat = condition_matrix(union, d)
        by_lead = linalg.forward(mat.rows)
        pivots = sorted(by_lead)
        if sum(pc < d * (d + 1) // 2 for pc in pivots) != union.total_length:
            last_err = ("conditions dependent in degree %d (attempt %d)"
                        % (d - 1, attempt))
            continue
        free = sorted(set(range(mat.ncols)).difference(pivots))
        if not free:
            raise RuntimeError("empty system in degree %d despite the bound" % d)
        rng = rng_from(seed, "draw", attempt, d)
        vec = dict.fromkeys(free, 0)
        while not any(vec.values()):
            vec = {f: rng.randint(-height, height) for f in free}
        # last pivot first: a pivot row's other columns are free or later
        # pivots, already solved; the vector is kept integral by scaling
        for pc in reversed(pivots):
            row = by_lead[pc]
            num = -sum(v * vec[c] for c, v in row.items() if c != pc)
            g = gcd(num, row[pc])
            scale = row[pc] // g
            if scale != 1:
                vec = {c: scale * v for c, v in vec.items()}
            vec[pc] = num // g
        mons = monomials(d)
        coeffs = p_primitive({mons[i]: vec[i] for i in sorted(vec) if vec[i]})
        return PlaneCurve(d, coeffs), union
    raise RuntimeError("could not reach general position: %s" % last_err)


@record
class SharpnessCertificate:
    """Result of the blowup audit of one curve against one cluster."""

    prescribed: tuple
    attained: tuple
    crossings_ok: bool
    notes: tuple

    @property
    def multiplicities_ok(self):
        return all(e is not None and e == m
                   for e, m in zip(self.attained, self.prescribed))

    @property
    def ok(self):
        return self.multiplicities_ok and self.crossings_ok

    def to_data(self):
        return {"ok": self.ok, "attained": list(self.attained),
                "prescribed": list(self.prescribed), "notes": list(self.notes)}


def _leading_univariate(state, e):
    """Leading form, of degree e, of a one-column integer state as the
    coefficients of L(1, t), plus the multiplicity of the vertical
    direction (the x-valuation of the form)."""
    psi = [0] * (e + 1)
    for (a, b), vec in state.items():
        if a + b == e:
            psi[b] = vec[0]
    u_clean(psi)
    return psi, e - (len(psi) - 1)


def verify_sharp(C, ec):
    """Does the curve go sharply through the embedded cluster?

    Performs the actual blowups: at each point the attained multiplicity of
    the strict transform must equal the prescribed one, every branch leaving
    the cluster must cross the exceptional divisor simply and away from its
    corners, and after the last blowup the strict transform must be smooth
    and transverse to the exceptional axes.

    The audit runs in integers: the curve's translation to the local frame
    (`p_translate_ints`), the strict walk (`local_algebra._strict_walk`)
    and the leading forms, divisions and squarefree tests on integer lists.
    Each state is a positive multiple of the strict transform, and no test
    here changes when a coefficient list is multiplied by a nonzero number.
    """
    coeffs = C.coeffs if isinstance(C, PlaneCurve) else C
    f = p_translate_ints(coeffs, ec.base[0], ec.base[1], ec.shear)[0]
    if not f:
        raise ValueError("curve vanishes identically in the local chart")
    mults = ec.mults
    steps = ec.steps
    attained = []
    notes = []
    crossings_ok = True

    def fail(msg):
        nonlocal crossings_ok
        crossings_ok = False
        notes.append(msg)

    for k, (state, _, e) in enumerate(_strict_walk(ec, f)):
        attained.append(e)
        if e != mults[k]:
            notes.append("multiplicity %s at point %d, prescribed %d"
                         % (e, k, mults[k]))
            continue
        psi, vert_mult = _leading_univariate(state, e)
        # where the tracked branches continue: the next cluster point is
        # the vertical direction when its step exchanges x and y, else the
        # root lam of the leading form (none after the last point)
        swap, lam = steps[k + 1] if k + 1 < ec.r else (False, None)
        # corner with the previous exceptional divisor (vertical direction)
        if not swap:
            if k >= 1 and vert_mult > 0:
                fail("branch through the corner with the previous divisor "
                     "at point %d" % k)
            elif k == 0 and vert_mult > 1:
                fail("non-simple crossing in the unchartable direction at "
                     "the base point")
        res = psi if swap or lam is None else u_divide_out(psi, lam)[1]
        # corner with the older divisor (direction y = 0) at a satellite
        if ec.extras[k] is not None and u_divide_out(res, 0)[0] > 0:
            fail("branch through the corner with the older divisor "
                 "at point %d" % k)
        # every remaining crossing of the exceptional divisor must be simple
        if res and not u_is_squarefree(res):
            fail("non-simple residual crossing of the exceptional divisor "
                 "at point %d" % k)
    return SharpnessCertificate(tuple(mults), tuple(attained), crossings_ok,
                                tuple(notes))


def certify(curve, union):
    """`verify_sharp` on every component of the embedded union and, only if
    all pass, the Tjurina count; returns (certificates, locus_ok), locus_ok
    None after a sharpness failure.

    The count's premise s is read off the union.  A sharp germ through
    double and simple points is an A_k point, so its Tjurina number is its
    Milnor number 2 delta - r + 1, with delta its number of double points
    and r, its branch count, the sum of the excesses; a root of
    multiplicity 0 adds 0.  Above multiplicity 2 tau can fall below mu, so
    such a union is a ValueError, raised before any audit."""
    s = 0
    for ec in union.components:
        if max(ec.mults) > 2:
            raise ValueError("a multiplicity above 2 is outside the "
                             "premise of the Tjurina count")
        if ec.mults[0]:
            s += 2 * ec.mults.count(2) - sum(excesses(ec.weighted)) + 1
    certs = [verify_sharp(curve, ec) for ec in union.components]
    if not all(c.ok for c in certs):
        return certs, None
    return certs, tjurina_certificate(curve.coeffs, s)


def existence_driver(spec, seed=0, height=DEFAULT_HEIGHT, degree=None):
    """Full pipeline: bound, synthesis, then `certify` on each attempt; the
    verdict is ok iff one of the two attempts passes every certificate.
    `locus_ok` records the Tjurina count when it was taken, and a pass lists
    the bases as `singular_points`, sorted by (x, y).

    Irreducibility is certified by hypothesis: the conditions were checked
    independent one degree down and the base scheme is not a single point of
    multiplicity d+1, which makes the general member irreducible; the
    Tjurina count excludes any unprescribed singularity.
    """
    d = degree if degree is not None else min_degree(spec)
    attempts = []
    for attempt in (0, 1):
        curve, union = synthesize(spec, d, seed + 7777 * attempt, height)
        certs, locus_ok = certify(curve, union)
        entry = {"attempt": attempt, "degree": d,
                 "certificates": [c.to_data() for c in certs]}
        if locus_ok:
            # a sharp certificate attains the prescribed multiplicity at
            # its base, which the sheared local frame does not change
            entry["singular_points"] = [
                {"point": [str(x), str(y)], "multiplicity": m}
                for (x, y), m in sorted(
                    (ec.base, c.attained[0])
                    for ec, c in zip(union.components, certs))]
        if locus_ok is not None:
            entry["locus_ok"] = locus_ok
        entry["ok"] = ok = bool(locus_ok)
        attempts.append(entry)
        if ok:
            break
    # each read of total_length unloads every component
    total = union.total_length
    return {
        "spec": {"tacnodes": list(spec.tacnodes), "cusps": list(spec.cusps)},
        "weight": spec.weight,
        "degree": d,
        "total_length": total,
        "length_check": total == 3 * spec.weight,
        "irreducibility_hypotheses": {
            "independent_in_lower_degree": True,
            # every component has root multiplicity 2 < d + 1, as d >= 3
            "not_a_single_full_multiplicity_point": True,
        },
        "attempts": attempts,
        "verdict": "ok" if ok else "fail",
        "curve": {"degree": curve.d,
                  "coefficients": {monomial_key(e): str(c)
                                   for e, c in sorted(curve.coeffs.items())}},
        "bases": [[str(v) for v in ec.base] for ec in union.components],
    }
