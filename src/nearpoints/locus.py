"""The singular locus of a plane curve: a Tjurina-count certificate first,
the exact resultant locus as the fallback.

`tjurina_certificate` proves, from one Hilbert-function value of the Jacobian
ideal, that a curve is reduced and has no singular point (at infinity
included) beyond a set whose Tjurina numbers are known to sum to s.  It is
sound only under that premise: in the synthesis pipeline every sharpness
certificate has passed, which fixes each prescribed germ as an A_k point
with Tjurina number k.  It runs one mod-p rank per degree and never touches
sympy.

`singular_locus` finds all singular points exactly, with no premise.  The
synthesis pipeline reaches it only when an attempt fails a sharpness
certificate or the Tjurina count.  It has one path: a squarefree gcd of the
curve with its partials, then the curve's factorization.  Candidate
x-coordinates come from resultant eliminants taken factor by factor, so no
elimination is degenerate.  Every candidate is then checked against
{C = C_x = C_y = 0}: a rational one by substitution, an irrational one by
gcds over the field Q[x]/(q), so nothing spurious survives.  The line at
infinity is audited in the chart X = 1 and at the direction (0:1:0).

The resultant locus runs on sympy's sparse polynomial rings.  The curve, with
its denominators cleared, lives in ZZ[y, x]; y is the first generator, so a
resultant eliminates y.  Univariate work is done in ZZ[x], ZZ[y], QQ[x] and
QQ[y], and the projective audit in ZZ[x, y, w].  A sympy expression is built only
to print an eliminant or a repeated factor that reaches the output.

sympy is imported on the first call of `singular_locus`, not with the
package.
"""

from fractions import Fraction
from functools import lru_cache

from . import linalg
from .polyops import p_min_deg, p_translate, u_clean, u_diff


@lru_cache(maxsize=None)
def _ring(gens, field=False):
    """The sparse polynomial ring over ZZ (or QQ) in the named generators."""
    from sympy.polys.domains import QQ, ZZ
    from sympy.polys.rings import ring
    return ring(gens, QQ if field else ZZ)[0]


def _fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _rational_roots(f):
    """(rational roots, irreducible factors of degree >= 2) of a univariate
    ring element; the factors are primitive with positive leading
    coefficient."""
    roots, others = [], []
    for fac, _ in f.factor_list()[1]:
        if fac.degree() == 1:
            roots.append(-_fraction(fac.coeff(1)) / _fraction(fac.LC))
        else:
            others.append(fac)
    return roots, others


def _ky_reduce(F, q):
    """F in ZZ[y, x] -> y-coefficient list over the field Q[x]/(q)."""
    cols = {}
    for (b, a), c in F.items():
        cols.setdefault(b, {})[(a,)] = c
    Qx = q.ring
    return u_clean([Qx.from_dict(cols.get(b, {})).rem(q)
                    for b in range(max(F.degree(), 0) + 1)])


def _ky_rem(A, B, q):
    A = list(A)
    # B[-1] is nonzero and reduced mod the irreducible q, so invertible
    inv = B[-1].half_gcdex(q)[0]
    dB = len(B) - 1
    while A and len(A) - 1 >= dB:
        f = (A[-1] * inv).rem(q)
        sh = len(A) - 1 - dB
        for i in range(dB + 1):
            A[sh + i] = (A[sh + i] - f * B[i]).rem(q)
        del A[-1]
        A = u_clean(A)
    return A


def _ky_gcd(A, B, q):
    A, B = u_clean(list(A)), u_clean(list(B))
    while B:
        A, B = B, _ky_rem(A, B, q)
    return A


def _count_common_over(q, polys):
    """Number of common zeros of the polys (in ZZ[y, x]) whose x-coordinate
    is a root of the irreducible q (in QQ[x]): deg(q) times the number of
    distinct common y-roots over the extension field.  None when the common
    zero locus over q is not finite."""
    g = []
    for F in polys:
        g = _ky_gcd(g, _ky_reduce(F, q), q)
    if not g:
        return None
    sq = _ky_gcd(g, u_diff(g), q)
    distinct_y = len(g) - len(sq)
    return q.degree() * distinct_y


def tjurina_certificate(coeffs, s):
    """True only if the curve is reduced and its total Tjurina number, over
    all singular points of the projective closure, is at most s.

    Let F in Z[X, Y, Z] be the curve homogenized to its degree d, J the
    ideal of its partials, and h_p(t) = C(t+2, 2) minus the rank mod
    p = 2^31 - 1 of the degree-t Macaulay matrix of J (`linalg._rank_mod`).
    A mod-p rank never exceeds the rank over Q, whatever the prime, so
    h_p(t) is at least the Hilbert function of S/J, which maps onto the
    coordinate ring of the Jacobian scheme.  By Euler's relation F lies in
    J, so that scheme sits on the singular points and has length tau(C),
    infinite when C is not reduced; its Hilbert function rises by at least
    one per degree until it reaches the length.  Hence
    h_p(t) >= min(t+1, tau(C)), and h_p(t) = s at any t >= s proves
    tau(C) <= s.  The degrees tried run from max(s, d-1), where the matrix
    first has rows, to max(s, 3(d-2)), Dimca's stability bound for the
    Jacobian algebra.  The matrix at degree t has 3 C(t-d+3, 2) rows, which
    bound its rank; a degree where C(t+2, 2) minus that count exceeds s
    cannot give h_p(t) <= s, and is skipped without taking the rank.  A
    rank that falls short mod p only raises h_p(t): the scan moves on to
    the next degree, and the caller to the resultant locus, but never
    passes wrongly.

    When the curve is known to carry singular points whose Tjurina numbers
    sum to s, a pass proves that they are all of its singular points.
    """
    ints = linalg.integral(coeffs)[0]
    d = max((a + b for (a, b) in ints), default=-1)
    # the partials, each keyed by its (X, Y) exponents in degree d-1
    grads = ({(a - 1, b): a * c for (a, b), c in ints.items() if a},
             {(a, b - 1): b * c for (a, b), c in ints.items() if b},
             {(a, b): (d - a - b) * c for (a, b), c in ints.items()
              if d - a - b})
    for t in range(max(s, d - 1), max(s, 3 * (d - 2)) + 1):
        e = t - d + 1
        ncols = (t + 1) * (t + 2) // 2
        # the rank is at most the 3 C(e+2, 2) rows, so h > s whatever it is:
        # the same verdict as taking it, without the elimination
        if ncols - 3 * (e + 1) * (e + 2) // 2 > s:
            continue
        rows = [{(i + u, j + v): c for (i, j), c in g.items()}
                for u in range(e + 1) for v in range(e + 1 - u)
                for g in grads]
        h = ncols - len(linalg._rank_mod(rows))
        if h <= s:
            # below s only when the premise on s is wrong
            return h == s
    return False


def _monic_text(f, gens):
    """The polynomial f (a dict of exponents in `gens` order) made monic
    over QQ in the lex order of `gens`, printed as a sympy expression."""
    return str(_ring(gens, True).from_dict(f).monic().as_expr())


def singular_locus(C):
    """All singular points of the curve, exactly.

    C is a PlaneCurve or its coefficient dict.  Returns a dict: `affine`
    lists the rational singular points with their multiplicity; the rest are
    reported in `affine_unlocated` as the irreducible eliminant factors they
    satisfy, counted but not located; `infinity` and `infinity_unlocated` do
    the same for the line at infinity.  A curve with a repeated factor is a
    ValueError.
    """
    coeffs = getattr(C, "coeffs", C)
    deg = max((a + b for (a, b) in coeffs), default=-1)
    if deg <= 0:
        raise ValueError("zero or constant curve")
    ints = linalg.integral(coeffs)[0]
    Z2 = _ring("y,x")
    y, x = Z2.gens
    P = Z2.from_dict({(b, a): c for (a, b), c in ints.items()})
    Px = P.diff(x)
    Py = P.diff(y)

    g = P.gcd(Px).gcd(Py)
    if not g.is_ground:
        raise ValueError(
            "curve is not squarefree: repeated factor %s"
            % _monic_text({(a, b): c for (b, a), c in g.items()}, "x,y"))
    factors = [fac for fac, _ in P.factor_list()[1]]

    xcands = set()
    irr_cands = set()

    def collect(E):
        if not E:
            raise RuntimeError("degenerate eliminant on an irreducible factor")
        roots, others = _rational_roots(E)
        xcands.update(roots)
        irr_cands.update(others)

    for F in factors:
        # factors in x alone are vertical lines and factors in y alone are
        # horizontal ones: smooth on their own, crossings caught pairwise
        if F.degree(y) > 0 and F.diff(x):
            R1 = F.resultant(F.diff(x))
            R2 = F.resultant(F.diff(y))
            if not R1 or not R2:
                raise RuntimeError("degenerate eliminant on an irreducible "
                                   "factor")
            # a singular x annihilates both eliminants, so the gcd already
            # discards the merely-critical values
            collect(R1.gcd(R2))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            Fi, Fj = factors[i], factors[j]
            if Fi.degree(y) > 0 or Fj.degree(y) > 0:
                collect(Fi.resultant(Fj))

    points = []
    unlocated = []
    Q2 = _ring("y,x", True)
    PQ = [F.set_ring(Q2) for F in (P, Px, Py)]
    for x0 in sorted(xcands):
        at = [F.evaluate(Q2.gens[1], Q2.domain(x0.numerator, x0.denominator))
              for F in PQ]
        roots, others = _rational_roots(at[0].gcd(at[1]).gcd(at[2]))
        for y0 in roots:
            local = p_translate(coeffs, x0, y0)
            points.append({"point": (x0, y0), "multiplicity": p_min_deg(local)})
        for fac in others:
            unlocated.append({"where": "affine(x=%s)" % x0,
                              "eliminant": str(fac.as_expr()),
                              "degree": fac.degree(), "count": fac.degree()})
    Qx = _ring("x", True)
    counts = [(q, _count_common_over(q.set_ring(Qx), (P, Px, Py)))
              for q in irr_cands]
    infinite = sorted(str(q.as_expr()) for q, n in counts if n is None)
    if infinite:
        raise RuntimeError("common zero locus over %s is not finite"
                           % infinite[0])
    unlocated += sorted(({"where": "affine", "eliminant": str(q.as_expr()),
                          "degree": q.degree(), "count": n}
                         for q, n in counts if n),
                        key=lambda entry: entry["eliminant"])

    # line at infinity: candidate directions are the roots of the top form,
    # audited in the chart X=1 plus the single leftover direction (0:1:0)
    Z3 = _ring("x,y,w")
    X, Y, W = Z3.gens
    Fh = Z3.from_dict({(a, b, deg - a - b): c for (a, b), c in ints.items()})
    grads = [Fh.diff(v) for v in (X, Y, W)]
    chart = [g.evaluate([(X, 1), (W, 0)]) for g in grads]
    tform = Fh.evaluate([(X, 1), (W, 0)])
    inf_points = []
    inf_unlocated = []
    roots, others = _rational_roots(tform)
    Qy = _ring("y", True)
    for t0 in roots:
        t = Qy.domain(t0.numerator, t0.denominator)
        if all(g.set_ring(Qy)(t) == 0 for g in chart):
            inf_points.append({"direction": (Fraction(1), t0)})
    for sing in others:
        for g in chart:
            sing = sing.gcd(g)
            if sing.is_ground:
                break
        if not sing.is_ground:
            inf_unlocated.append({"eliminant": _monic_text(sing, "y"),
                                  "degree": sing.degree(),
                                  "count": sing.degree()})
    if not coeffs.get((0, deg)):
        if all(g.evaluate([(X, 0), (Y, 1), (W, 0)]) == 0 for g in grads):
            inf_points.append({"direction": (Fraction(0), Fraction(1))})
    return {"affine": points, "affine_unlocated": unlocated,
            "infinity": inf_points, "infinity_unlocated": inf_unlocated}
