"""Invariants and classification predicates for bidouble covers of the
quadric and their simple-type specialization.

A bidouble cover is a (Z/2)^2 Galois cover of P1 x P1 cut out by a pair of
equations of bidegrees (2a, 2b) and (2c, 2d) with a, b, c, d >= 3.  Its
holomorphic Euler characteristic is the sum of the Euler characteristics
of the four character sheaves pushed down to the quadric,

    chi = 1 + (a-1)(b-1) + (c-1)(d-1) + (a+c-1)(b+d-1).

Two conventions for the canonical self-intersection are carried side by
side.  The canonical class pulls back from the class (a+c-2, b+d-2) on the
quadric, whose self-intersection is 2(a+c-2)(b+d-2); through the degree-4
cover this gives

    ksq = 8 (a+c-2)(b+d-2),

which is the primary value here.  The classically printed value without
the covering-degree factor is kept verbatim as ``ksq_paper`` and is always
reported alongside.

The simple-type case d = b gives the three-parameter family whose
diffeomorphism type depends only on b and a+c; the one-step move
(a, b, c) -> (a+1, b, c-1) is a diffeomorphism whenever a, b, c-1 >= 2,
and chains of such steps decide diffeomorphism inside the family.  The
non-deformation predicate certifies, from four integers (a, b, c, k)
subject to arithmetic conditions (I)-(IV), that the simple bidouble types
(2a,2b),(2c,2b) and (2a+2k,2b),(2c-2k,2b) land in different connected
components of their moduli space; its report keeps only the four integers
and derives each clause from them.
"""

from __future__ import annotations

import math

from .invariants import SurfaceInvariants, _Record


class BidoubleType(_Record):
    """Bidegrees ((2a, 2b), (2c, 2d)) of a bidouble cover, a..d >= 3."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        super().__init__(a, b, c, d)
        if min(a, b, c, d) < 3:
            raise ValueError("bidouble types need a, b, c, d >= 3")


class AbcType(_Record):
    """A simple-type cover (d = b), entries positive.

    Entries below 3 are admitted because the one-step diffeomorphism
    theorem applies down to a, b, c-1 >= 2 and its hypotheses must be
    checkable on out-of-bound neighbours; invariants computed for such
    types carry the sub-bound flag.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        super().__init__(a, b, c)
        if min(a, b, c) < 1:
            raise ValueError("abc types need positive entries")

    @property
    def below_standard_bound(self) -> bool:
        return min(self.a, self.b, self.c) < 3


class BidoubleInvariants(_Record):
    """Surface invariants plus the second ksq convention."""

    __slots__ = ("invariants", "ksq_paper", "below_standard_bound")

    def __init__(self, invariants: SurfaceInvariants, ksq_paper: int,
                 below_standard_bound: bool = False):
        super().__init__(invariants, ksq_paper, below_standard_bound)

    @property
    def chi(self) -> int:
        return self.invariants.chi

    @property
    def ksq(self) -> int:
        return self.invariants.ksq

    def as_dict(self) -> dict:
        inv = self.invariants
        out = {"chi": inv.chi, "ksq": inv.ksq, "ksq_paper": self.ksq_paper,
               "e": inv.e, "tau": inv.tau}
        if self.below_standard_bound:
            out["below_standard_bound"] = True
        return out


def _invariants(a: int, b: int, c: int, d: int,
                below_standard_bound: bool = False) -> BidoubleInvariants:
    chi = 1 + (a - 1) * (b - 1) + (c - 1) * (d - 1) + (a + c - 1) * (b + d - 1)
    printed = (a + c - 2) * (b + d - 2)
    return BidoubleInvariants(
        invariants=SurfaceInvariants.from_chi_ksq(chi, 8 * printed),
        ksq_paper=printed,
        below_standard_bound=below_standard_bound,
    )


def bidouble_invariants(t: BidoubleType) -> BidoubleInvariants:
    """chi, both ksq conventions, and the Noether-derived e and tau."""
    return _invariants(t.a, t.b, t.c, t.d)


def abc_invariants(t: AbcType) -> BidoubleInvariants:
    """Invariants of the simple-type cover with d = b.

    These depend on (a, b, c) only through b and a+c.  Types with an entry
    equal to 2 use the same formulas and carry the sub-bound flag.
    """
    return _invariants(t.a, t.b, t.c, t.b, t.below_standard_bound)


def _step_allowed(s: AbcType) -> bool:
    # hypotheses for the move (a, b, c) -> (a+1, b, c-1)
    return s.a >= 2 and s.b >= 2 and s.c - 1 >= 2


def diffeo_step(s: AbcType, s2: AbcType) -> bool:
    """True iff ``s2`` is one elementary diffeomorphism step from ``s``.

    A step transfers one unit between a and c; the hypotheses
    a, b, c-1 >= 2 must hold in the direction actually applied.
    """
    if (s2.a, s2.b, s2.c) == (s.a + 1, s.b, s.c - 1):
        return _step_allowed(s)
    if (s2.a, s2.b, s2.c) == (s.a - 1, s.b, s.c + 1):
        return _step_allowed(s2)
    return False


def diffeo_equivalent(s: AbcType, s2: AbcType) -> list[AbcType] | None:
    """Chain of elementary steps from ``s`` to ``s2``, or ``None``.

    Equivalence requires equal b and equal a+c; the witness chain lists
    every intermediate type, each consecutive pair being a valid step.
    """
    if s.b != s2.b or s.a + s.c != s2.a + s2.c:
        return None
    # the types with this b and a + c form a path, one step apart, so the
    # only possible chain is the straight walk from s toward s2
    chain = [s]
    step = 1 if s2.a > s.a else -1
    while chain[-1] != s2:
        cur = chain[-1]
        nxt = AbcType(cur.a + step, cur.b, cur.c - step)
        if not diffeo_step(cur, nxt):
            return None
        chain.append(nxt)
    return chain


_CONDITION_TEXT = {
    "I": "a, b, c, k strictly positive even integers with a, b, c-k >= 4",
    "II": "a >= 2c + 1",
    "III": "b >= c + 2",
    "IV1": "b >= 2a + 2k - 1",
    "IV2": "a >= b + 2",
}


class NondefReport(_Record):
    """The non-deformation criterion for (a, b, c, k).

    The four integers are the only fields: the truth value of each clause
    is derived from them, so equal integers give equal reports.
    """

    __slots__ = ("a", "b", "c", "k")

    def __init__(self, a: int, b: int, c: int, k: int):
        super().__init__(a, b, c, k)

    @property
    def conditions(self) -> dict:
        """Truth value of each clause, (I) to (IV2) in order."""
        a, b, c, k = self.a, self.b, self.c, self.k
        all_even_positive = all(v > 0 and v % 2 == 0 for v in (a, b, c, k))
        return {
            "I": all_even_positive and a >= 4 and b >= 4 and c - k >= 4,
            "II": a >= 2 * c + 1,
            "III": b >= c + 2,
            "IV1": b >= 2 * a + 2 * k - 1,
            "IV2": a >= b + 2,
        }

    @property
    def verdict(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        conditions = self.conditions
        out = [name for name in ("I", "II", "III") if not conditions[name]]
        if not (conditions["IV1"] or conditions["IV2"]):
            out.append("IV1/IV2")
        return out

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "k": self.k,
            "verdict": self.verdict,
            "conditions": self.conditions,
            "failing": self.failing(),
        }

    @staticmethod
    def condition_text(name: str) -> str:
        return _CONDITION_TEXT[name]


def nondef_predicate(a: int, b: int, c: int, k: int) -> NondefReport:
    """Decide the non-deformation criterion for the pair of simple types
    (2a,2b),(2c,2b) versus (2a+2k,2b),(2c-2k,2b).

    A true verdict certifies the two types are not deformation
    equivalent; since they share b and a+c they always have equal chi and
    ksq, so the certificate separates surfaces with matching invariants.
    """
    return NondefReport(a, b, c, k)


class TypeClassification(_Record):
    """Bidouble types matching target invariants, with diffeo grouping:
    ``diffeo_classes`` holds ((b, a+c), types-with-d-equal-b) pairs of
    tuples, so a classification hashes by value."""

    __slots__ = ("chi", "ksq", "convention", "bound", "types", "diffeo_classes")

    def __init__(self, chi: int, ksq: int, convention: str, bound: int,
                 types: tuple, diffeo_classes: tuple):
        super().__init__(chi, ksq, convention, bound, types, diffeo_classes)

    def as_dict(self) -> dict:
        return {
            "chi": self.chi,
            "ksq": self.ksq,
            "convention": self.convention,
            "bound": self.bound,
            "types": [[t.a, t.b, t.c, t.d] for t in self.types],
            "diffeo_classes": [
                {
                    "b": key[0],
                    "a_plus_c": key[1],
                    "types": [[t.a, t.b, t.c, t.d] for t in members],
                }
                for key, members in self.diffeo_classes
            ],
        }


def enumerate_types(
    chi: int, ksq: int, bound: int, paper_convention: bool = False
) -> TypeClassification:
    """All bidouble types with entries in [3, bound] matching (chi, ksq).

    ``ksq`` is compared in the pullback convention unless
    ``paper_convention`` is set.  Types with d = b are additionally grouped
    into diffeomorphism classes by their (b, a+c) invariant.

    The printed ksq is s t with s = a+c-2 and t = b+d-2, so s runs over
    its divisors.  With x = a-1, y = b-1 and R = chi-1-(s+1)(t+1), chi
    reads (2x-s)(2y-t) = 2R-st, which gives b from a unless a = c; then
    every b fits when 2R = st.  Trial division stops at min(sqrt(printed),
    2 bound - 2), as s, t <= 2 bound - 2, and no type fits when
    printed >= chi - 1, as chi - 1 > (s+1)(t+1) > printed.
    """
    printed, rem = (ksq, 0) if paper_convention else divmod(ksq, 8)
    fits = rem == 0 and 0 < printed < chi - 1
    root = min(math.isqrt(printed), 2 * bound - 2) if fits else 0
    small = [s for s in range(1, root + 1) if printed % s == 0]
    matches = []
    for s in {*small, *(printed // s for s in small)}:
        t = printed // s
        rhs = 2 * (chi - 1 - (s + 1) * (t + 1)) - s * t
        bs = range(max(3, t + 2 - bound), min(bound, t - 1) + 1)  # b, d in [3, bound]
        for a in range(max(3, s + 2 - bound), min(bound, s - 1) + 1):
            u = 2 * a - 2 - s  # 2x - s, zero iff a = c
            if u == 0:
                found = bs if rhs == 0 else ()
            else:
                y2, r = divmod(rhs, u)  # y2 = 2y - t, so b = (y2 + t) / 2 + 1
                found = () if r or (y2 + t) % 2 else [(y2 + t) // 2 + 1]
            matches += [
                BidoubleType(a, b, s + 2 - a, t + 2 - b) for b in found if b in bs
            ]
    matches.sort(key=lambda m: (m.a, m.b, m.c))
    classes: dict[tuple[int, int], list[BidoubleType]] = {}
    for t in matches:
        if t.d == t.b:
            classes.setdefault((t.b, t.a + t.c), []).append(t)
    return TypeClassification(
        chi=chi,
        ksq=ksq,
        convention="paper" if paper_convention else "pullback",
        bound=bound,
        types=tuple(matches),
        diffeo_classes=tuple((key, tuple(ts)) for key, ts in sorted(classes.items())),
    )
