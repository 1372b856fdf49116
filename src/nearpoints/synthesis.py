"""Plane curves with prescribed tacnodes and higher-order cusps.

Constructors build the singularity schemes (tacnode, cusp, D-type), a degree
bound decides where interpolation is possible, and `synthesize` draws an
explicit exact curve through the union.  Certification is by actual blowup
and then by a global count.  `verify_sharp` recomputes the multiplicities of
the strict transforms along the cluster and audits every crossing with the
exceptional configuration; a sharp pass fixes each prescribed germ as an A_k
point with Tjurina number k.  Once every sharpness certificate has passed,
the Tjurina-count certificate (`tjurina_certificate`, from `locus`) shows
that the curve is reduced and singular nowhere else, at infinity included.
The resultant locus (`singular_locus`) is the fallback: it solves for all
singular points exactly whenever a sharpness certificate or the count
fails.  This module does not import sympy; `locus` does, on the first
resultant locus.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .clusters import WeightedCluster, free_chain, single_chain
from .local_algebra import embed, strict_transforms, to_local
from .locus import singular_locus, tjurina_certificate
from .plane_systems import SchemeUnion, condition_matrix
from . import linalg
from .polyops import (monomial_key, monomials, p_clean, p_form, p_min_deg,
                      p_primitive, u_divide_out, u_is_squarefree)
from .sampling import DEFAULT_HEIGHT, distinct_points, rng_from


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    SchemeUnion).  A degree below 3 is a ValueError: every singular curve
    of degree <= 2 is reducible."""
    if not spec.tacnodes and not spec.cusps:
        raise ValueError("no tacnode or cusp prescribed")
    if d < 3:
        raise ValueError("degree %d below 3: a singular curve of degree <= 2 "
                         "is reducible (a singular conic is a line pair)" % d)
    if d < degree_bound(spec.weight):
        raise ValueError("degree %d below the bound %d"
                         % (d, degree_bound(spec.weight)))
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


@dataclass(frozen=True)
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


def _leading_univariate(g):
    """Leading form of g as coefficients of L(1, t), plus the multiplicity
    of the vertical direction (the x-valuation of the form)."""
    e = p_min_deg(g)
    form = p_form(g, e)
    psi = [Fraction(0)] * (e + 1)
    for (a, b), c in form.items():
        psi[b] = Fraction(c)
    while psi and not psi[-1]:
        psi.pop()
    return psi, e - (len(psi) - 1)


def verify_sharp(C, ec):
    """Does the curve go sharply through the embedded cluster?

    Performs the actual blowups: at each point the attained multiplicity of
    the strict transform must equal the prescribed one, every branch leaving
    the cluster must cross the exceptional divisor simply and away from its
    corners, and after the last blowup the strict transform must be smooth
    and transverse to the exceptional axes.
    """
    coeffs = C.coeffs if isinstance(C, PlaneCurve) else C
    f = to_local(coeffs, ec)
    if not f:
        raise ValueError("curve vanishes identically in the local chart")
    polys, attained = strict_transforms(ec, f)
    mults = ec.mults
    steps = ec.steps
    notes = []
    crossings_ok = True

    def fail(msg):
        nonlocal crossings_ok
        crossings_ok = False
        notes.append(msg)

    for k in range(ec.r):
        if attained[k] is None or attained[k] != mults[k]:
            notes.append("multiplicity %s at point %d, prescribed %d"
                         % (attained[k], k, mults[k]))
            continue
        g = polys[k]
        if not g:
            continue
        psi, vert_mult = _leading_univariate(g)
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


def existence_driver(spec, seed=0, height=DEFAULT_HEIGHT, degree=None):
    """Full pipeline: bound, synthesis, per-cluster sharpness certificates,
    then the singular locus; verdict ok iff every certificate passes and the
    singular points are exactly the prescribed base points.

    The locus is certified by the Tjurina count first, with the resultant
    locus as the fallback.  The count is taken only when every sharpness
    certificate passed, since only then is the Tjurina number at each base
    point known.  A pass proves the curve reduced with no singular point
    besides the bases; otherwise `singular_locus` solves for all singular
    points.  Either way `singular_points` is sorted by (x, y).

    Irreducibility is certified by hypothesis: the conditions were checked
    independent one degree down and the base scheme is not a single point of
    multiplicity d+1, which makes the general member irreducible; the locus
    audit excludes any unprescribed singularity.
    """
    d = degree if degree is not None else min_degree(spec)
    attempts = []
    verdict = False
    curve = union = None
    for attempt in (0, 1):
        curve, union = synthesize(spec, d, seed + 7777 * attempt, height)
        entry = {"attempt": attempt, "degree": d}
        certs = [verify_sharp(curve, ec) for ec in union.components]
        entry["certificates"] = [{"ok": c.ok,
                                  "attained": list(c.attained),
                                  "prescribed": list(c.prescribed),
                                  "notes": list(c.notes)} for c in certs]
        sharp = all(c.ok for c in certs)
        found, clean = None, True
        if sharp and tjurina_certificate(curve.coeffs, spec.tjurina):
            # a sharp certificate attains the prescribed multiplicity at
            # its base, which the sheared local frame does not change
            found = [(ec.base, c.attained[0])
                     for ec, c in zip(union.components, certs)]
        else:
            try:
                locus = singular_locus(curve)
            except ValueError as exc:
                entry["locus_error"] = str(exc)
            else:
                found = [(p["point"], p["multiplicity"])
                         for p in locus["affine"]]
                clean = not (locus["affine_unlocated"] or locus["infinity"]
                             or locus["infinity_unlocated"])
        locus_ok = False
        if found is not None:
            found.sort()                # by (x, y); no point is listed twice
            entry["singular_points"] = [
                {"point": [str(x), str(y)], "multiplicity": m}
                for (x, y), m in found]
            entry["locus_ok"] = locus_ok = clean and (
                [p for p, _ in found]
                == sorted(ec.base for ec in union.components))
        entry["ok"] = locus_ok and sharp
        attempts.append(entry)
        if entry["ok"]:
            verdict = True
            break
    return {
        "spec": {"tacnodes": list(spec.tacnodes), "cusps": list(spec.cusps)},
        "weight": spec.weight,
        "degree": d,
        "total_length": union.total_length,
        "length_check": union.total_length == 3 * spec.weight,
        "irreducibility_hypotheses": {
            "independent_in_lower_degree": True,
            # every component has root multiplicity 2 < d + 1, as d >= 3
            "not_a_single_full_multiplicity_point": True,
        },
        "attempts": attempts,
        "verdict": "ok" if verdict else "fail",
        "curve": {"degree": curve.d,
                  "coefficients": {monomial_key(e): str(Fraction(c))
                                   for e, c in sorted(curve.coeffs.items())}},
        "bases": [[str(v) for v in ec.base] for ec in union.components],
    }
