"""Bivariate polynomials as {(a, b): coefficient} dictionaries.

Coefficients are exact (int or Fraction).  These are plain helpers; heavier
elimination work (resultants, factorization over Q) goes through sympy's
polynomial rings in `locus`.
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .linalg import integral, primitive, rank


def p_clean(p):
    return {e: c for e, c in p.items() if c}

def p_min_deg(p):
    """Order of vanishing at the origin (multiplicity); -1 for the zero
    polynomial."""
    return min((a + b for (a, b), c in p.items() if c), default=-1)

def p_form(p, d):
    """Homogeneous part of degree d."""
    return {e: c for e, c in p.items() if e[0] + e[1] == d}

def translated_monomials(x0, y0, shear, max_deg, bound=None):
    """Images of the plane monomials X^a Y^b, a + b <= max_deg, under the
    substitution X = x0 + x + shear*y, Y = y0 + y.

    x0, y0 and shear are written by `integral` as integer numerators X0, Y0,
    S over their common denominator D, so that D X = X0 + D x + S y and
    D Y = Y0 + D y are integer linear forms.  In `monomials` order each
    image is one of them times an earlier image:

        D^(a+b) X^a Y^b = (D X) * D^(a+b-1) X^(a-1) Y^b     for a > 0,
        D^b Y^b         = (D Y) * D^(b-1) Y^(b-1).

    Only local monomials of total degree < bound are kept (all of them when
    bound is None).  The cut is exact: a linear form never lowers the
    degree, so the terms of a product below the bound come from the terms
    of its factor below the bound.  Returns (D, images) with images[(a, b)]
    the integer polynomial D^(a+b) X^a Y^b, zero coefficients dropped.
    """
    ints, D = integral({0: x0, 1: y0, 2: shear})
    X0, Y0, S = (ints.get(k, 0) for k in range(3))
    if bound is None:
        bound = max_deg + 1
    # each form as (constant term, {degree-1 shift: coefficient})
    DX = (X0, p_clean({(1, 0): D, (0, 1): S}))
    DY = (Y0, {(0, 1): D})
    images = {(0, 0): {(0, 0): 1} if bound > 0 else {}}
    for a, b in monomials(max_deg)[1:]:
        c0, lin = DX if a else DY
        prev = images[(a - 1, b) if a else (0, b - 1)]
        img = {e: c0 * v for e, v in prev.items()} if c0 else {}
        for (i, j), v in prev.items():
            if i + j + 1 < bound:
                for (di, dj), c in lin.items():
                    e = (i + di, j + dj)
                    img[e] = img.get(e, 0) + c * v
        images[(a, b)] = p_clean(img)
    return D, images

def p_translate(p, x0, y0, shear=0):
    """Rewrite p in coordinates centered at (x0, y0) with an optional shear:
    substitutes X = x0 + x + shear*y, Y = y0 + y."""
    n = max((a + b for (a, b) in p), default=0)
    D, images = translated_monomials(x0, y0, shear, n)
    out = {}
    for (a, b), c in p.items():
        c = c * D ** (n - a - b)
        for e, v in images[(a, b)].items():
            out[e] = out.get(e, 0) + c * v
    if D > 1:
        out = {e: Fraction(v) / D ** n for e, v in out.items()}
    return p_clean(out)

def p_primitive(p):
    """Scale to coprime integer coefficients with positive leading value
    (graded-lex leading)."""
    ints = integral(p)[0]
    return primitive(ints, max(ints, key=lambda e: (e[0] + e[1], e[0]),
                               default=None))


@lru_cache(maxsize=None)
def monomials(max_deg):
    """Monomial order used throughout: graded, then by x-exponent descending;
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...  One shared tuple per
    degree."""
    return tuple((a, d - a) for d in range(max_deg + 1)
                 for a in range(d, -1, -1))


@lru_cache(maxsize=None)
def monomial_key(e):
    """The text key "a,b" of the monomial x^a y^b in curve files and
    reports; one shared string per monomial, however many curves are kept."""
    return "%d,%d" % e


@lru_cache(maxsize=None)
def monomial_index(max_deg):
    """Monomial -> its column in `monomials(max_deg)`, as one shared
    read-only mapping per degree."""
    return MappingProxyType({e: i for i, e in enumerate(monomials(max_deg))})


def vector_of(p, max_deg):
    idx = monomial_index(max_deg)
    vec = [0] * len(idx)
    for e, c in p.items():
        if e[0] + e[1] > max_deg:
            raise ValueError("degree overflow: monomial %r beyond %d" % (e, max_deg))
        vec[idx[e]] = c
    return vec


# univariate helpers (lists of Fractions, index = degree)

def u_clean(u):
    while u and not u[-1]:
        u.pop()
    return u

def u_diff(u):
    return [i * c for i, c in enumerate(u)][1:]

def u_divide_out(u, root):
    """(k, q): the multiplicity k of `root` as a zero of the univariate
    polynomial u, and the quotient q = u / (t - root)^k."""
    u = u_clean([Fraction(c) for c in u])
    k = 0
    while u:
        # synthetic division by (t - root), highest degree first
        res = []
        acc = Fraction(0)
        for c in reversed(u):
            acc = acc * root + c
            res.append(acc)
        if res[-1]:
            break
        u = u_clean(list(reversed(res[:-1])))
        k += 1
    return k, u

def u_is_squarefree(u):
    """True when u has no repeated factor over Q: for n = deg u >= 2, when
    the Sylvester matrix of u and u' (n - 1 shifts of u, n of u') is
    nonsingular, so that gcd(u, u') is a constant.  Degrees 0 and 1 count
    as squarefree."""
    u = u_clean(list(u))
    n = len(u) - 1
    if n < 2:
        return True
    rows = ([dict(enumerate(u, i)) for i in range(n - 1)]
            + [dict(enumerate(u_diff(u), i)) for i in range(n)])
    return rank(rows) == 2 * n - 1
