"""The singular-locus certificate against an oracle.

The oracle below is the sympy `Expr` implementation that `locus.py`
replaced, kept verbatim: it builds `sympy.Poly` objects from expressions,
substitutes with `subs` and calls `sympy.resultant`, `sympy.gcd` and
`sympy.factor`.  The ring implementation must give the same output dict, or
raise the same exception type with the same message, on every curve.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nearpoints import locus
from nearpoints.polyops import p_min_deg, p_translate
from nearpoints.synthesis import PlaneCurve


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


def test_specialization_fallback(monkeypatch):
    # y^2 = x^3 is irreducible, but at x0 = 0 it specializes to y^2, so the
    # certificate falls back to the bivariate factorization
    verdicts = []
    test = locus._is_irreducible
    monkeypatch.setattr(locus, "_is_irreducible",
                        lambda P: verdicts.append(test(P)) or verdicts[-1])
    got = same_as_oracle(PlaneCurve(3, {(0, 2): 1, (3, 0): -1}))
    assert verdicts == [False]
    assert got == ("ok", EMPTY | {"affine": [
        {"point": (Fraction(0), Fraction(0)), "multiplicity": 2}]})
    # y^2 = x^3 + 2 specializes at x0 = 0 to the irreducible y^2 - 2
    verdicts.clear()
    same_as_oracle(PlaneCurve(3, {(0, 2): 1, (3, 0): -1, (0, 0): -2}))
    assert verdicts == [True]


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
