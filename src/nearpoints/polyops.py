"""Bivariate polynomials as {(a, b): coefficient} dictionaries.

Coefficients are exact (int or Fraction).  These are plain helpers; heavier
elimination work (resultants, factorization over Q) goes through sympy's
polynomial rings in `locus`.  `p_translate_ints` moves one polynomial into a
local frame in integers, as Horner numerators over one denominator, and
`p_translate` is their Fraction rendering; `plane_systems` moves the
monomial basis by its closed form.  The univariate helpers keep integer
input integer: `u_divide_out` divides by the primitive factor of a rational
root, and `u_is_squarefree` decides squarefreeness by one exact Sylvester
rank.
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .linalg import integral, primitive


def p_clean(p):
    return {e: c for e, c in p.items() if c}

def p_min_deg(p):
    """Order of vanishing at the origin (multiplicity); -1 for the zero
    polynomial."""
    return min((a + b for (a, b), c in p.items() if c), default=-1)

def p_form(p, d):
    """Homogeneous part of degree d."""
    return {e: c for e, c in p.items() if e[0] + e[1] == d}

def p_translate_ints(p, x0, y0, shear=0):
    """The translation of `p_translate` in integers: returns (nums, N) with
    nums the nonzero coefficients of p in the local frame times N.

    With p scaled to integers over its denominator and base and shear
    written by `integral` over their common denominator D, the forms
    D X = X0 + D x + S y and D Y = Y0 + D y are integer, and for n = deg p

        D^n p = sum_a (D X)^a Q_a,   Q_a = sum_b c_ab D^(n-a-b) (D Y)^b,

    both sums taken by Horner steps, Q_a as a polynomial in y and the outer
    sum as one in x over polynomials in y.  nums are these Horner
    numerators, not reduced, over N = (denominator of p) * D^n > 0."""
    ints, den = integral(p)
    if not ints:
        return {}, 1
    n = max(a + b for (a, b) in ints)
    shift, D = integral({0: x0, 1: y0, 2: shear})
    X0, Y0, S = (shift.get(k, 0) for k in range(3))
    pw = [1]
    for _ in range(n):
        pw.append(pw[-1] * D)
    rows = [[0] * (n - a + 1) for a in range(n + 1)]
    for (a, b), c in ints.items():
        rows[a][b] = c
    # h[i] lists the y-coefficients of x^i; after row a, h has total degree
    # n - a and h[i] the n - a - i + 1 entries of y-degree up to n - a - i
    h = []
    for a in range(n, -1, -1):
        row, m = rows[a], n - a
        q = [row[m]]
        for b in range(m - 1, -1, -1):
            # q * (Y0 + D y) + c_ab D^(m-b)
            q = [Y0 * v + D * u for u, v in zip([0] + q, q + [0])]
            q[0] += row[b] * pw[m - b]
        # h * (X0 + S y + D x) + q: D x h lands one place up
        up = [q] + [[D * v for v in hi] for hi in h]
        h = [[X0 * v + S * u + w for u, v, w in zip([0] + hi, hi + [0], ui)]
             for hi, ui in zip(h, up)] + [up[-1]]
    return ({(i, j): v for i, hi in enumerate(h) for j, v in enumerate(hi)
             if v}, den * pw[n])

def p_translate(p, x0, y0, shear=0):
    """Rewrite p in coordinates centered at (x0, y0) with an optional shear:
    substitutes X = x0 + x + shear*y, Y = y0 + y.

    The `p_translate_ints` numerators over their denominator N: returns the
    nonzero coefficients, ints when N = 1, else Fractions."""
    nums, N = p_translate_ints(p, x0, y0, shear)
    if N == 1:
        return nums
    return {e: Fraction(v, N) for e, v in nums.items()}

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


# univariate helpers (coefficient lists, index = degree)

def u_clean(u):
    while u and not u[-1]:
        u.pop()
    return u

def u_diff(u):
    return [i * c for i, c in enumerate(u)][1:]

def u_divide_out(u, root):
    """(k, w): the multiplicity k of the rational `root` = p/q (in lowest
    terms, q > 0) as a zero of the integer polynomial u, and the integer
    quotient w = u / (q t - p)^k, which is the quotient by (t - root)^k
    divided by q^k.

    Each division by the primitive factor q t - p is exact in integers
    when it divides at all: by Gauss's lemma a primitive factor of an
    integer polynomial over Q leaves an integer quotient.  So synthetic
    division from the top, q w_(i-1) = u_i + p w_i, stops at the first
    u_i + p w_i that q does not divide, or else when the remainder
    u_0 + p w_0 is nonzero."""
    p, q = root.numerator, root.denominator
    u = u_clean(list(u))
    k = 0
    while u:
        w = []
        acc = 0
        for c in reversed(u[1:]):
            acc, rem = divmod(c + p * acc, q)
            if rem:
                return k, u
            w.append(acc)
        if u[0] + p * acc:
            break
        u = w[::-1]
        k += 1
    return k, u

def u_is_squarefree(u):
    """True when u has no repeated factor over Q: for n = deg u >= 2, when
    the Sylvester matrix of u and u' (n - 1 shifts of u, n of u') is
    nonsingular, so that gcd(u, u') is a constant.  Degrees 0 and 1 count
    as squarefree.

    The rows are shifts of u and u', made integral once, and their rank is
    taken exactly, in one pass of `linalg._rank_bareiss`."""
    u = u_clean(list(u))
    n = len(u) - 1
    if n < 2:
        return True
    ints = integral(dict(enumerate(u)))[0]
    du = {i - 1: i * c for i, c in ints.items() if i}
    rows = ([{i + s: c for i, c in ints.items()} for s in range(n - 1)]
            + [{i + s: c for i, c in du.items()} for s in range(n)])
    return len(linalg._rank_bareiss(rows)) == 2 * n - 1
