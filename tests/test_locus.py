"""The singular-locus certificates against oracles.

The oracle below is the sympy `Expr` implementation that `locus.py`
replaced, kept verbatim: it builds `sympy.Poly` objects from expressions,
substitutes with `subs` and calls `sympy.resultant`, `sympy.gcd` and
`sympy.factor`.  The ring implementation must give the same output dict, or
raise the same exception type with the same message, on every curve.

The Tjurina-count certificate is checked against the resultant locus: on
curves whose given singular points carry at least the claimed Tjurina
numbers, a pass must mean that the locus is exactly those points.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nearpoints import linalg, locus
from nearpoints.polyops import p_min_deg, p_translate
from nearpoints.synthesis import PlaneCurve
from test_linalg import rank_mod_p61


# ------------------------------------------------------------------ oracle

_X, _Y, _W = sympy.symbols("x y w")


def _to_sympy(coeffs):
    expr = sympy.Integer(0)
    for (a, b), c in coeffs.items():
        c = Fraction(c)
        expr += sympy.Rational(c.numerator, c.denominator) * _X ** a * _Y ** b
    return sympy.Poly(expr, _X, _Y, domain="QQ")


def _rational_roots(upoly):
    """(rational roots with multiplicity, nonlinear squarefree factors)."""
    roots = []
    others = []
    if upoly.total_degree() == 0:
        return roots, others
    for fac, mult in upoly.factor_list()[1]:
        if fac.total_degree() == 1:
            cs = fac.all_coeffs()
            roots.append((Fraction(-sympy.Rational(cs[1], cs[0])), mult))
        else:
            others.append((sympy.factor(fac.as_expr()), fac.total_degree(), mult))
    return roots, others


def _ky_trim(L):
    while L and L[-1] == 0:
        L.pop()
    return L


def _ky_reduce(F, q):
    """Bivariate poly -> y-coefficient list over the field Q[x]/(q)."""
    d = F.degree(_Y) if F.degree(_Y) >= 0 else 0
    coeffs = [sympy.Integer(0)] * (d + 1)
    for mon, c in zip(F.monoms(), F.coeffs()):
        a, b = mon
        coeffs[b] += c * _X ** a
    return _ky_trim([sympy.rem(sympy.expand(c), q, _X) for c in coeffs])


def _ky_rem(A, B, q):
    A = list(A)
    inv = sympy.invert(B[-1], q, _X)
    dB = len(B) - 1
    while A and len(A) - 1 >= dB:
        f = sympy.rem(sympy.expand(A[-1] * inv), q, _X)
        sh = len(A) - 1 - dB
        for i in range(dB + 1):
            A[sh + i] = sympy.rem(sympy.expand(A[sh + i] - f * B[i]), q, _X)
        del A[-1]
        A = _ky_trim(A)
    return A


def _ky_gcd(A, B, q):
    A, B = _ky_trim(list(A)), _ky_trim(list(B))
    while B:
        A, B = B, _ky_rem(A, B, q)
    return A


def _ky_diff(A):
    return _ky_trim([i * c for i, c in enumerate(A)][1:])


def _count_common_over(q, polys):
    """Number of common zeros of the bivariate polys whose x-coordinate is a
    root of the irreducible q: deg(q) times the number of distinct common
    y-roots over the extension field."""
    g = None
    for F in polys:
        red = _ky_reduce(F, q)
        g = red if g is None else _ky_gcd(g, red, q)
        if g == []:
            continue
        if len(g) == 1:
            return 0
    if not g:
        raise RuntimeError("common zero locus over %s is not finite" % q)
    sq = _ky_gcd(g, _ky_diff(list(g)), q)
    distinct_y = (len(g) - 1) - (len(sq) - 1 if sq else 0)
    return sympy.Poly(q, _X).degree() * distinct_y


def singular_locus(C, check_squarefree=True):
    """All singular points of the curve, exactly.

    Candidate x-coordinates come from the resultant eliminants taken factor
    by factor of the curve (so the eliminations are never degenerate);
    every candidate is then verified against {C = C_x = C_y = 0}, rational
    ones by substitution and irrational ones by gcds over the extension
    field, so nothing spurious survives.  The line at infinity is audited in
    a second chart.  Rational points are located and carry the local
    multiplicity; the rest are reported as the irreducible eliminant factors
    they satisfy, counted but not located.
    """
    coeffs = C.coeffs if isinstance(C, PlaneCurve) else C
    deg = max((a + b for (a, b) in coeffs), default=-1)
    if deg <= 0:
        raise ValueError("zero or constant curve")
    P = _to_sympy(coeffs)
    Px = P.diff(_X)
    Py = P.diff(_Y)
    if check_squarefree:
        g = sympy.gcd(sympy.gcd(P, Px), sympy.gcd(P, Py))
        if g.total_degree() > 0:
            raise ValueError("curve is not squarefree: repeated factor %s"
                             % g.as_expr())

    factors = [fac for fac, _ in P.factor_list()[1]]
    xcands = set()
    irr_cands = {}

    def collect(expr):
        if isinstance(expr, sympy.Poly):
            expr = expr.as_expr()
        if expr == 0:
            raise RuntimeError("degenerate eliminant on an irreducible factor")
        up = sympy.Poly(expr, _X, domain="QQ")
        if up.total_degree() == 0:
            return
        roots, others = _rational_roots(up)
        for v, _ in roots:
            xcands.add(v)
        for fexpr, _, _ in others:
            irr_cands.setdefault(str(fexpr), fexpr)

    for F in factors:
        # factors in x alone are vertical lines and factors in y alone are
        # horizontal ones: smooth on their own, crossings caught pairwise
        if F.degree(_Y) > 0 and not F.diff(_X).is_zero:
            R1 = sympy.Poly(sympy.resultant(F, F.diff(_X), _Y), _X,
                            domain="QQ")
            R2 = sympy.Poly(sympy.resultant(F, F.diff(_Y), _Y), _X,
                            domain="QQ")
            if R1.is_zero or R2.is_zero:
                raise RuntimeError("degenerate eliminant on an irreducible "
                                   "factor")
            # a singular x annihilates both eliminants, so the gcd already
            # discards the merely-critical values
            collect(sympy.gcd(R1, R2))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            Fi, Fj = factors[i], factors[j]
            if Fi.degree(_Y) > 0 or Fj.degree(_Y) > 0:
                collect(sympy.resultant(Fi, Fj, _Y))

    points = []
    unlocated = []
    for x0 in sorted(xcands):
        x0s = sympy.Rational(x0.numerator, x0.denominator)
        gx = sympy.Poly(P.as_expr().subs(_X, x0s), _Y, domain="QQ")
        hx = sympy.Poly(Px.as_expr().subs(_X, x0s), _Y, domain="QQ")
        kx = sympy.Poly(Py.as_expr().subs(_X, x0s), _Y, domain="QQ")
        g = sympy.gcd(sympy.gcd(gx, hx), kx)
        if g.total_degree() == 0:
            continue
        roots, others = _rational_roots(g)
        for y0, _ in roots:
            local = p_translate(coeffs, x0, y0)
            points.append({"point": (x0, y0), "multiplicity": p_min_deg(local)})
        for expr, dd, _ in others:
            unlocated.append({"where": "affine(x=%s)" % x0,
                              "eliminant": str(expr), "degree": dd,
                              "count": dd})
    for qstr, qexpr in sorted(irr_cands.items()):
        n = _count_common_over(qexpr, (P, Px, Py))
        if n:
            unlocated.append({"where": "affine", "eliminant": qstr,
                              "degree": sympy.Poly(qexpr, _X).degree(),
                              "count": n})

    # line at infinity: candidate directions are the roots of the top form,
    # audited in the chart X=1 plus the single leftover direction (0:1:0)
    top = {e: c for e, c in coeffs.items() if e[0] + e[1] == deg}
    FX = sympy.Integer(0)
    for (a, b), c in coeffs.items():
        c = Fraction(c)
        FX += (sympy.Rational(c.numerator, c.denominator)
               * _X ** a * _Y ** b * _W ** (deg - a - b))
    Fh = sympy.Poly(FX, _X, _Y, _W, domain="QQ")
    grads = [Fh.diff(v) for v in (_X, _Y, _W)]
    grads_chart = [sympy.Poly(g.as_expr().subs({_X: 1, _W: 0}), _Y,
                              domain="QQ") for g in grads]
    inf_points = []
    inf_unlocated = []
    tform = sympy.Poly(sum(sympy.Rational(Fraction(c).numerator,
                                          Fraction(c).denominator) * _Y ** b
                           for (a, b), c in top.items()), _Y, domain="QQ")
    if not tform.is_zero:
        roots, others = _rational_roots(tform)
        for t0, _ in roots:
            t0s = sympy.Rational(t0.numerator, t0.denominator)
            if all(g.as_expr().subs(_Y, t0s) == 0 for g in grads_chart):
                inf_points.append({"direction": (Fraction(1), t0)})
        for expr, dd, _ in others:
            sing = sympy.Poly(expr, _Y, domain="QQ")
            for g in grads_chart:
                sing = sympy.gcd(sing, g)
                if sing.total_degree() == 0:
                    break
            if sing.total_degree() > 0:
                inf_unlocated.append({"eliminant": str(sing.as_expr()),
                                      "degree": sing.total_degree(),
                                      "count": sing.total_degree()})
    if not top.get((0, deg)):
        if all(g.as_expr().subs({_X: 0, _Y: 1, _W: 0}) == 0 for g in grads):
            inf_points.append({"direction": (Fraction(0), Fraction(1))})
    return {"affine": points, "affine_unlocated": unlocated,
            "infinity": inf_points, "infinity_unlocated": inf_unlocated}


# ------------------------------------------------------------------- tests

def outcome(fn, curve):
    """("ok", output dict) or (exception type, message)."""
    try:
        return "ok", fn(curve)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def same_as_oracle(curve):
    """The ring locus of the curve, asserted equal to the oracle's."""
    got = outcome(locus.singular_locus, curve)
    assert got == outcome(singular_locus, curve)
    return got


def curve_of(*factors):
    """PlaneCurve of the product of the given {(a, b): c} factors."""
    prod = {(0, 0): 1}
    for f in factors:
        out = {}
        for (a, b), c in prod.items():
            for (a2, b2), c2 in f.items():
                out[(a + a2, b + b2)] = out.get((a + a2, b + b2), 0) + c * c2
        prod = out
    return PlaneCurve(max((a + b for (a, b), c in prod.items() if c),
                          default=0), prod)


EMPTY = {"affine": [], "affine_unlocated": [], "infinity": [],
         "infinity_unlocated": []}


def test_infinity_unlocated():
    # two hyperbolas y^2 - 2x^2 = 1, 2 touch at the directions y = +-sqrt(2) x
    # and nowhere else
    got = same_as_oracle(curve_of({(0, 2): 1, (2, 0): -2, (0, 0): -1},
                                  {(0, 2): 1, (2, 0): -2, (0, 0): -2}))
    assert got == ("ok", EMPTY | {"infinity_unlocated": [
        {"eliminant": "y**2 - 2", "degree": 2, "count": 2}]})


def test_affine_unlocated_at_rational_x():
    # the parabolas x = y^2 - 2 and x = 2 - y^2 cross at (0, +-sqrt(2)) and
    # are tangent to each other at their common point (1:0:0) at infinity
    got = same_as_oracle(curve_of({(0, 2): 1, (1, 0): -1, (0, 0): -2},
                                  {(0, 2): 1, (1, 0): 1, (0, 0): -2}))
    assert got == ("ok", EMPTY | {
        "affine_unlocated": [{"where": "affine(x=0)", "eliminant": "y**2 - 2",
                              "degree": 2, "count": 2}],
        "infinity": [{"direction": (Fraction(1), Fraction(0))}]})


def test_affine_unlocated_cubic_eliminant():
    # y = x^2 and y = x^2 - x^3 + 2 cross transversally over the three roots
    # of x^3 - 2, counted over Q[x]/(x^3 - 2); both pass through (0:1:0)
    got = same_as_oracle(curve_of({(0, 1): 1, (2, 0): -1},
                                  {(0, 1): 1, (2, 0): -1, (3, 0): 1,
                                   (0, 0): -2}))
    assert got == ("ok", EMPTY | {
        "affine_unlocated": [{"where": "affine", "eliminant": "x**3 - 2",
                              "degree": 3, "count": 3}],
        "infinity": [{"direction": (Fraction(0), Fraction(1))}]})


def test_cuspidal_cubics_and_integer_content():
    # y^2 = x^3 has one singular point, the cusp (0, 0)
    got = same_as_oracle(PlaneCurve(3, {(0, 2): 1, (3, 0): -1}))
    assert got == ("ok", EMPTY | {"affine": [
        {"point": (Fraction(0), Fraction(0)), "multiplicity": 2}]})
    same_as_oracle(PlaneCurve(3, {(0, 2): 1, (3, 0): -1, (0, 0): -2}))
    # the same smooth cubic with integer content 2: the factorization drops
    # the content, which moves no root and no reported factor
    got = same_as_oracle(PlaneCurve(3, {(0, 2): 2, (3, 0): -2, (0, 0): -4}))
    assert got == ("ok", EMPTY)


def test_rational_coefficients():
    # the nodal cubic (y - 1/3)^2 = (x - 1/2)^2 (x + 1/2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    lhs = curve_of({(0, 1): 1, (0, 0): -third}, {(0, 1): 1, (0, 0): -third})
    rhs = curve_of({(1, 0): 1, (0, 0): -half}, {(1, 0): 1, (0, 0): -half},
                   {(1, 0): 1, (0, 0): half})
    coeffs = dict(lhs.coeffs)
    for e, c in rhs.coeffs.items():
        coeffs[e] = coeffs.get(e, 0) - c
    got = same_as_oracle(PlaneCurve(3, coeffs))
    assert got == ("ok", EMPTY | {"affine": [
        {"point": (half, third), "multiplicity": 2}]})


def test_repeated_factor_message():
    got = same_as_oracle(curve_of({(0, 1): 2, (1, 0): -1},
                                  {(0, 1): 2, (1, 0): -1},
                                  {(0, 1): 1, (2, 0): 1, (0, 0): 1}))
    assert got == (ValueError, "curve is not squarefree: repeated factor "
                               "x - 2*y")


def test_pipeline_curves_match_oracle():
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import min_degree, synthesize
    for k, spec in enumerate(PIPELINE_SPECS[:8]):
        curve, _ = synthesize(spec, min_degree(spec), seed=31000 + k)
        kind, out = same_as_oracle(curve)
        assert kind == "ok" and len(out["affine"]) == len(spec.tacnodes
                                                          + spec.cusps)


coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))


def polys(max_deg, max_terms):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)).filter(
        lambda e: e[0] + e[1] <= max_deg)
    return st.dictionaries(exps, coefficients, max_size=max_terms)


curves = st.one_of(
    polys(4, 6).map(curve_of),
    st.lists(polys(2, 3), min_size=2, max_size=3).map(
        lambda fs: curve_of(*fs)),
    polys(2, 3).map(lambda f: curve_of(f, f, {(0, 1): 1, (1, 0): 1})))


@settings(max_examples=80, deadline=None)
@given(curves)
def test_locus_matches_oracle(curve):
    same_as_oracle(curve)


# ------------------------------------------------- Tjurina-count certificate

# Reference: the Tjurina scan as it ran before it skipped the degrees whose
# Macaulay matrix has too few rows to pass, taking a rank at every degree.
# Its ranks come from the 2^61 - 1 reference kernel, not from the kernel
# under test.

def scan_every_degree(coeffs, s):
    ints = linalg.integral(coeffs)[0]
    d = max((a + b for (a, b) in ints), default=-1)
    grads = ({(a - 1, b): a * c for (a, b), c in ints.items() if a},
             {(a, b - 1): b * c for (a, b), c in ints.items() if b},
             {(a, b): (d - a - b) * c for (a, b), c in ints.items()
              if d - a - b})
    for t in range(max(s, d - 1), max(s, 3 * (d - 2)) + 1):
        e = t - d + 1
        rows = [{(i + u, j + v): c for (i, j), c in g.items()}
                for u in range(e + 1) for v in range(e + 1 - u)
                for g in grads]
        h = (t + 1) * (t + 2) // 2 - len(rank_mod_p61(rows))
        if h <= s:
            return h == s
    return False


def certified(coeffs, s):
    """The Tjurina certificate, checked against the every-degree scan."""
    got = locus.tjurina_certificate(coeffs, s)
    assert got == scan_every_degree(coeffs, s), (coeffs, s)
    return got


def locus_is_exactly(curve, points):
    """Does the resultant locus return exactly these affine points, with
    nothing unlocated and nothing at infinity?"""
    loc = locus.singular_locus(curve)
    return (sorted(p["point"] for p in loc["affine"]) == sorted(points)
            and not loc["affine_unlocated"] and not loc["infinity"]
            and not loc["infinity_unlocated"])


def meet(l1, l2):
    """The affine point where two lines {(1,0): a, (0,1): b, (0,0): c} meet,
    or None when they are parallel or equal."""
    a1, b1, c1 = (Fraction(l1.get(e, 0)) for e in ((1, 0), (0, 1), (0, 0)))
    a2, b2, c2 = (Fraction(l2.get(e, 0)) for e in ((1, 0), (0, 1), (0, 0)))
    det = a1 * b2 - a2 * b1
    if not det:
        return None
    return ((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)


def secant(p, q):
    """The line through two distinct points."""
    (x1, y1), (x2, y2) = p, q
    return {(1, 0): y2 - y1, (0, 1): x1 - x2, (0, 0): x2 * y1 - x1 * y2}


small = st.integers(-3, 3)
nonzero = small.filter(bool)
ratios = st.builds(Fraction, small, st.integers(1, 3))


@st.composite
def nodal_unions(draw):
    """(curve, claimed points, s): a product of generic lines, or of a conic
    (parabola or hyperbola) and secants through rational points of it.
    Every claimed point is a singular point of the curve, and s is at most
    the sum of the Tjurina numbers there: one per pair of lines meeting in
    the affine plane, two per secant for the points it cuts on the conic.
    Parallel, equal and concurrent lines are all allowed."""
    conic = draw(st.sampled_from(["none", "parabola", "hyperbola"]))
    if conic == "none":
        lines = draw(st.lists(
            st.fixed_dictionaries({(1, 0): small, (0, 1): small,
                                   (0, 0): small}).filter(
                lambda l: l[(1, 0)] or l[(0, 1)]),
            min_size=2, max_size=4))
        factors, points, s = list(lines), [], 0
    else:
        if conic == "parabola":
            a, b, c = draw(nonzero), draw(small), draw(small)
            factors = [{(0, 1): 1, (2, 0): -a, (1, 0): -b, (0, 0): -c}]
            on_conic = lambda t: (t, a * t * t + b * t + c)
        else:
            c = draw(nonzero)
            factors = [{(1, 1): 1, (0, 0): -c}]
            on_conic = lambda t: (t, c / t)
        ts = draw(st.lists(ratios.filter(bool), min_size=2, max_size=6,
                           unique=True))
        pairs = draw(st.lists(st.tuples(st.sampled_from(ts),
                                        st.sampled_from(ts)).filter(
            lambda p: p[0] != p[1]), min_size=1, max_size=3))
        lines = [secant(on_conic(t1), on_conic(t2)) for t1, t2 in pairs]
        points = [on_conic(t) for pair in pairs for t in pair]
        factors += lines
        s = 2 * len(lines)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = meet(lines[i], lines[j])
            if p is not None:
                points.append(p)
                s += 1
    return curve_of(*factors), sorted(set(points)), s


@st.composite
def ak_curves(draw):
    """(curve, points, s) for a curve whose singular points and Tjurina
    numbers are known exactly, moved by a random affine map: the cusp
    y^2 = x^3 (A_2), the parabola tangent to a line (A_3), and two conics
    y = x^2, y = x^2 - y(alpha x + beta y) with contact 3 at the origin plus
    a node (A_5 + A_1), or contact 4 when alpha = 0 (A_7)."""
    kind = draw(st.sampled_from(["A2", "A3", "A5+A1", "A7"]))
    if kind == "A2":
        f, known = {(0, 2): 1, (3, 0): -1}, [((0, 0), 2)]
    elif kind == "A3":
        f, known = {(0, 2): 1, (2, 1): -1}, [((0, 0), 3)]
    else:
        alpha = 0 if kind == "A7" else draw(ratios.filter(bool))
        beta = draw(ratios.filter(bool))
        f = curve_of({(0, 1): 1, (2, 0): -1},
                     {(0, 1): 1, (2, 0): -1, (1, 1): alpha,
                      (0, 2): beta}).coeffs
        known = ([((0, 0), 7)] if kind == "A7" else
                 [((0, 0), 5), ((-alpha / beta, alpha ** 2 / beta ** 2), 1)])
    # f(x0 + x + shear*y, y0 + y) is singular where f is, moved back
    x0, y0, shear = draw(ratios), draw(ratios), draw(ratios)
    coeffs = p_translate(f, x0, y0, shear)
    points = [(u - x0 - shear * (v - y0), v - y0) for (u, v), _ in known]
    return (PlaneCurve(max(a + b for a, b in coeffs), coeffs),
            sorted(points), sum(tau for _, tau in known))


@settings(max_examples=60, deadline=None)
@given(nodal_unions())
def test_tjurina_certificate_is_sound_on_nodal_unions(case):
    curve, points, s = case
    if locus.tjurina_certificate(curve.coeffs, s):
        assert locus_is_exactly(curve, points)


@settings(max_examples=25, deadline=None)
@given(ak_curves())
def test_tjurina_certificate_on_known_ak_points(case):
    curve, points, s = case
    assert locus.tjurina_certificate(curve.coeffs, s)
    assert locus_is_exactly(curve, points)
    assert not locus.tjurina_certificate(curve.coeffs, s - 1)


def test_tjurina_certificate_positives():
    # four general lines: six nodes
    lines = [{(1, 0): 1, (0, 1): 0, (0, 0): 0}, {(1, 0): 0, (0, 1): 1},
             {(1, 0): 1, (0, 1): 1, (0, 0): -1},
             {(1, 0): 1, (0, 1): -2, (0, 0): 3}]
    assert certified(curve_of(*lines).coeffs, 6)
    # a parabola and two secants: 2 + 2 + 1
    para = lambda t: (Fraction(t), Fraction(t * t))
    curve = curve_of({(0, 1): 1, (2, 0): -1}, secant(para(0), para(1)),
                     secant(para(-1), para(2)))
    assert certified(curve.coeffs, 5)
    # a line is smooth
    assert certified({(1, 0): 1, (0, 0): 2}, 0)


def test_tjurina_certificate_negatives():
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import synthesize
    spec = PIPELINE_SPECS[0]
    quartic, _ = synthesize(spec, 4, seed=31000)
    assert certified(quartic.coeffs, spec.tjurina)
    # one of its three nodes left out of s
    assert not certified(quartic.coeffs, spec.tjurina - 1)
    # not reduced: h_p grows without bound
    assert not certified(
        curve_of({(0, 1): 1, (2, 0): -1}, {(0, 1): 1, (2, 0): -1}).coeffs, 3)
    # singular only at (0:1:0)
    assert not certified({(2, 1): 1, (0, 0): -1}, 0)
    # the double line x^2: h_p(1) = 2, so only the t >= s guard rejects it
    assert not certified({(2, 0): 1}, 2)


def test_tjurina_certificate_agrees_with_every_degree_scan():
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import min_degree, synthesize
    for seed, spec in itertools.product((0, 1, 2), PIPELINE_SPECS):
        curve, _ = synthesize(spec, min_degree(spec), seed=seed)
        assert certified(curve.coeffs, spec.tjurina), (seed, spec)
        if seed == 0:
            # one short of the total scans every degree up to the bound
            assert not certified(curve.coeffs, spec.tjurina - 1), spec


def test_tjurina_certificate_rejects_a_sharp_quintic_below_its_total():
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import synthesize, verify_sharp
    spec = PIPELINE_SPECS[7]
    assert spec.cusps == (1, 1) and spec.tjurina == 4
    curve, union = synthesize(spec, 5, seed=0)
    # two sharp ordinary cusps: A_2 + A_2, so the true total is 4
    assert all(verify_sharp(curve, ec).ok for ec in union.components)
    assert not certified(curve.coeffs, spec.tjurina - 1)


def test_tjurina_certificate_takes_one_rank_on_two_cusps(monkeypatch):
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import synthesize
    spec = PIPELINE_SPECS[7]
    curve, _ = synthesize(spec, 5, seed=0)
    calls = []
    pivots_mod = linalg._pivots_mod
    monkeypatch.setattr(linalg, "_pivots_mod",
                        lambda rows, *args: calls.append(len(rows))
                        or pivots_mod(rows, *args))
    # d = 5, s = 4: t = 4..7 have fewer than C(t+2, 2) - 4 rows; t = 8 passes
    assert locus.tjurina_certificate(curve.coeffs, spec.tjurina)
    assert calls == [45]


# Reference: the Macaulay matrix as the certificate built it before its rows
# were shifts of packed partials: one dict row per (monomial, partial),
# keyed by (X, Y) exponents, ranked by `linalg._rank_mod`.

def dict_row_rank(coeffs, t):
    ints = linalg.integral(coeffs)[0]
    d = max(a + b for (a, b) in ints)
    grads = ({(a - 1, b): a * c for (a, b), c in ints.items() if a},
             {(a, b - 1): b * c for (a, b), c in ints.items() if b},
             {(a, b): (d - a - b) * c for (a, b), c in ints.items()
              if d - a - b})
    e = t - d + 1
    rows = [{(i + u, j + v): c for (i, j), c in g.items()}
            for u in range(e + 1) for v in range(e + 1 - u)
            for g in grads]
    return len(linalg._rank_mod(rows))


def packed_ranks(monkeypatch, coeffs, s):
    """The certificate's verdict and, for each degree t it ranked, its
    count mod p."""
    shifted = linalg._shifted_pivots
    ranks = {}

    def spy(gens, ncols):
        pivots = shifted(gens, ncols)
        t = next(t for t in itertools.count() if (t + 1) * (t + 2) // 2
                 == ncols)
        ranks[t] = len(pivots)
        return pivots
    with monkeypatch.context() as m:
        m.setattr(linalg, "_shifted_pivots", spy)
        verdict = locus.tjurina_certificate(coeffs, s)
    return verdict, ranks


def test_packed_tjurina_count_matches_dict_rows(monkeypatch):
    # every pipeline spec's curve, at its total (one rank) and one below
    # it (every degree up to the bound)
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import min_degree, synthesize
    for k, spec in enumerate(PIPELINE_SPECS):
        curve, _ = synthesize(spec, min_degree(spec), seed=31000 + k)
        for s, want in ((spec.tjurina, True), (spec.tjurina - 1, False)):
            verdict, ranks = packed_ranks(monkeypatch, curve.coeffs, s)
            assert verdict is want and ranks, (spec, s)
            assert verdict == scan_every_degree(curve.coeffs, s), (spec, s)
            for t, rank in ranks.items():
                assert rank == dict_row_rank(curve.coeffs, t), (spec, s, t)


def test_tjurina_certificate_refuses_an_extra_node():
    # two sharp ordinary cusps and a node: tau = 2 + 2 + 1, so a premise of
    # only the two cusps (s = 4) must not certify
    from nearpoints.synthesis import SingularitySpec, synthesize, verify_sharp
    spec = SingularitySpec(tacnodes=(1,), cusps=(1, 1))
    curve, union = synthesize(spec, 5, seed=3)
    assert all(verify_sharp(curve, ec).ok for ec in union.components)
    assert certified(curve.coeffs, spec.tjurina)
    assert not certified(curve.coeffs, spec.tjurina - 1)


def test_tjurina_certificate_refuses_a_non_reduced_curve():
    # a pipeline quartic times the square of a line: its Jacobian scheme
    # is not finite, so no s certifies it
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import synthesize
    spec = PIPELINE_SPECS[0]
    quartic, _ = synthesize(spec, 4, seed=31000)
    line = {(1, 0): 2, (0, 1): -3, (0, 0): 1}
    coeffs = curve_of(quartic.coeffs, line, line).coeffs
    for s in (spec.tjurina, spec.tjurina + 6):
        assert not certified(coeffs, s), s


def test_tjurina_certificate_never_passes_on_a_lost_pivot(monkeypatch):
    # a pivot lost mod p only raises h_p(t), so the scan never passes
    from test_acceptance import PIPELINE_SPECS
    from nearpoints.synthesis import min_degree, synthesize
    curves = [(synthesize(spec, min_degree(spec), seed=31000 + k)[0], spec)
              for k, spec in enumerate(PIPELINE_SPECS[:8])]
    pivots_mod = linalg._pivots_mod
    monkeypatch.setattr(linalg, "_pivots_mod",
                        lambda *args: pivots_mod(*args)[:-1])
    for curve, spec in curves:
        assert not locus.tjurina_certificate(curve.coeffs, spec.tjurina)
