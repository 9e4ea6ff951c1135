"""Independent answer checks for the benchmark workloads.

Nothing here imports ``surfmoduli`` or the test suite.  Every verdict is
decided by naive code on plain tuples, integers and Fractions, or rests on
a result proved in the literature:

* Catanese (Amer. J. Math. 122, 2000): the abelian Beauville groups are
  exactly (Z/n)^2 with gcd(n, 6) = 1;
* Fuertes and Gonzalez-Diez (Math. Z. 264, 2010): S_n is Beauville for
  n >= 5 and A_n for n >= 6; S4 and A5 are not (Bauer, Catanese and
  Grunewald);
* Hall: PSL(2, 7) has 19152 generating pairs, so 19152 generating
  triples, all hyperbolic; its automorphism group PGL(2, 7) has order 336.

Permutations are 1-based image tuples composed as maps, ``(p q)(x) =
p(q(x))``, the convention of the library under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

# ------------------------------------------------------------ permutations


def perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(p[x - 1] for x in q)


def perm_identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def perm_order(p: tuple) -> int:
    ident = perm_identity(len(p))
    k, x = 1, p
    while x != ident:
        x = perm_mul(x, p)
        k += 1
    return k


def closure(gens) -> frozenset:
    """All products of the generators, by breadth-first search."""
    gens = [tuple(g) for g in gens]
    start = perm_identity(len(gens[0]))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _conjugates_of_powers(elements, x: tuple) -> set:
    powers = []
    p = x
    ident = perm_identity(len(x))
    while True:
        powers.append(p)
        if p == ident:
            break
        p = perm_mul(p, x)
    out = set()
    for h in elements:
        hi = _inverse(h)
        for p in powers:
            out.add(perm_mul(perm_mul(h, p), hi))
    return out


def _inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p, start=1):
        out[x - 1] = i
    return tuple(out)


def triple_problem(elements: frozenset, triple) -> str | None:
    """Why ``(a, b, c)`` is not a hyperbolic generating triple, or None."""
    a, b, c = (tuple(x) for x in triple)
    for x in (a, b, c):
        if x not in elements:
            return f"{x} is not in the group"
    n = len(a)
    if perm_mul(perm_mul(a, b), c) != perm_identity(n):
        return "a b c is not the identity"
    if len(closure([a, b])) != len(elements):
        return "(a, b) does not generate the group"
    two_g_minus_2 = _euler(len(elements), [perm_order(x) for x in (a, b, c)])
    if two_g_minus_2.denominator != 1 or two_g_minus_2 < 2:
        return f"2g - 2 = {two_g_minus_2}: not a curve of genus >= 2"
    return None


def structure_problem(elements: frozenset, t1, t2) -> str | None:
    """Why ``(t1, t2)`` is not a Beauville structure on ``elements``, or None.

    Each stabilizer set is the union of the conjugates of all powers of
    the three entries; a structure needs them to meet only in 1.
    """
    for t in (t1, t2):
        why = triple_problem(elements, t)
        if why is not None:
            return why
    sigma1 = set().union(*(_conjugates_of_powers(elements, tuple(x)) for x in t1))
    sigma2 = set().union(*(_conjugates_of_powers(elements, tuple(x)) for x in t2))
    common = sigma1 & sigma2
    if common != {perm_identity(len(t1[0]))}:
        return f"stabilizer sets share {len(common) - 1} nontrivial elements"
    return None


def _euler(order: int, branch_orders) -> Fraction:
    """2g - 2 = |G| (1 - sum 1/m_i) for a cover branched over three points."""
    return order * (1 - sum(Fraction(1, m) for m in branch_orders))


def genus(order: int, branch_orders) -> int:
    return int(_euler(order, branch_orders) / 2) + 1


# ------------------------------------------------------- abelian catalogue


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_names(max_order: int) -> list[str]:
    """One name per abelian group of order <= max_order, in the builtin
    naming scheme: cyclic factors of prime-power order, largest first."""
    names = ["C1"]
    for n in range(2, max_order + 1):
        combos = [()]
        for p, e in _prime_powers(n):
            combos = [c + tuple(p**k for k in part) for c in combos for part in _partitions(e)]
        for factors in combos:
            names.append("x".join(f"C{q}" for q in sorted(factors, reverse=True)))
    return names


def abelian_beauville_names(max_order: int) -> set[str]:
    """Catanese: (Z/n)^2 with gcd(n, 6) = 1, n > 1."""
    out = set()
    n = 5
    while n * n <= max_order:
        if gcd(n, 6) == 1:
            factors = sorted(
                (p**e for p, e in _prime_powers(n) for _ in range(2)), reverse=True
            )
            out.add("x".join(f"C{q}" for q in factors))
        n += 1
    return out


# ------------------------------------------------------------------ braids


def exponent_sum(word) -> int:
    return sum(1 if x > 0 else -1 for x in word)


def word_permutation(strands: int, word) -> tuple:
    """Image of a braid word in the symmetric group (sigma_i -> (i i+1))."""
    p = list(range(1, strands + 1))
    for x in word:
        i = abs(x)
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def cycle_type(p: tuple) -> tuple:
    seen, lengths = set(), []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        k, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x - 1]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths))


def factorization_invariants(strands: int, factors) -> tuple:
    """Hurwitz-move invariants: length, the multiset of factor exponent
    sums, the total exponent sum and the cycle type of the product."""
    product = perm_identity(strands)
    for f in factors:
        product = perm_mul(product, word_permutation(strands, f))
    return (
        len(factors),
        tuple(sorted(exponent_sum(f) for f in factors)),
        sum(exponent_sum(f) for f in factors),
        cycle_type(product),
    )


def m_move_invariants(strands: int, factors) -> tuple:
    """Invariants of Hurwitz moves, conjugation and node pairs: the
    length's parity, the total exponent sum and the product's cycle type."""
    length, _, total, ctype = factorization_invariants(strands, factors)
    return (length % 2, total, ctype)


# ----------------------------------------------------------------- Moebius

# points of the projective line: a Fraction, or None for infinity


def apply_moebius(matrix, z):
    a, b, c, d = (Fraction(x) for x in matrix)
    if z is None:
        return None if c == 0 else a / c
    den = c * z + d
    return None if den == 0 else (a * z + b) / den


def _homogeneous(z):
    return (1, 0) if z is None else (Fraction(z), 1)


def cross_ratio(z, p, q, r):
    """Image of z under the map sending (p, q, r) to (0, 1, infinity)."""
    z, p, q, r = (_homogeneous(x) for x in (z, p, q, r))

    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    num = det(z, p) * det(q, r)
    den = det(z, r) * det(q, p)
    return None if den == 0 else Fraction(num) / den


def moebius_equivalent(points1, points2) -> bool:
    """Whether some Moebius map carries one finite point set onto the other.

    A map is fixed by the images of three points and preserves cross
    ratios, so it exists iff for some ordered triple (u, v, w) of the
    second set, the cross ratios over (u, v, w) of the second set equal
    those of the first set over its own fixed triple.
    """
    pts1, pts2 = list(points1), list(points2)
    if len(pts1) != len(pts2):
        return False
    p, q, r = pts1[:3]
    wanted = {cross_ratio(z, p, q, r) for z in pts1[3:]}
    for i, j, k in itertools.permutations(range(len(pts2)), 3):
        u, v, w = pts2[i], pts2[j], pts2[k]
        if all(
            cross_ratio(y, u, v, w) in wanted
            for n, y in enumerate(pts2)
            if n not in (i, j, k)
        ):
            return True
    return False


# ---------------------------------------------------------------- bidouble


def bidouble_chi(a, b, c, d) -> int:
    return 1 + (a - 1) * (b - 1) + (c - 1) * (d - 1) + (a + c - 1) * (b + d - 1)


def bidouble_types(chi: int, ksq: int, bound: int) -> list[tuple]:
    """Types (a, b, c, d) in [3, bound]^4 with the given chi and pullback
    K^2 = 8 (a + c - 2)(b + d - 2), in lexicographic order.

    Loops over (a, c, b) and solves K^2 for d, so it shares no loop with
    the quadruple loop it is compared against.
    """
    if ksq % 8:
        return []
    product = ksq // 8
    out = []
    for a in range(3, bound + 1):
        for c in range(3, bound + 1):
            s = a + c - 2
            if product % s:
                continue
            t = product // s
            for b in range(3, bound + 1):
                d = t + 2 - b
                if 3 <= d <= bound and bidouble_chi(a, b, c, d) == chi:
                    out.append((a, b, c, d))
    return sorted(out)


def diffeo_classes(types) -> list[tuple]:
    """Types with d = b grouped by (b, a + c), sorted by that key."""
    classes: dict[tuple, list] = {}
    for a, b, c, d in types:
        if d == b:
            classes.setdefault((b, a + c), []).append((a, b, c, d))
    return sorted(classes.items())
