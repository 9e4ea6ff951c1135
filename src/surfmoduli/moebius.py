"""Exact Moebius equivalence of finite branch sets on the projective line.

Everything is rational: points are exact fractions or the point at
infinity, maps are 2x2 rational matrices in a projective canonical form,
and no floating point is used anywhere.  A map is determined by the images
of three points, so equivalence of two n-point sets is decidable by fixing
one ordered triple inside the first set and trying every ordered triple of
the second as its image.  A map preserves cross-ratios, so each candidate
is first tested by where it must send a fourth point, computed from the
cross-ratio in integer homogeneous coordinates; a map is built only for
the few candidates that pass.  A ``None`` verdict therefore means "no
rational equivalence"; equivalence over larger fields is out of scope.

The built-in one-parameter family is the branch set of the genus-g
hyperelliptic curve

    w^2 = (z - a)(z + 2g) * prod_{i=0}^{2g-1} (z - i),

namely {a, -2g, 0, 1, ..., 2g-1}, of size 2g + 2, defined for g >= 3 and
any rational parameter a avoiding the fixed roots.  Genera above
``GENUS_CAP`` (10^6, read at call time) are refused before a point is
built.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import BudgetExceeded, ExcludedParameter, SizeMismatch

GENUS_CAP = 1_000_000

RationalLike = int | str | Fraction


class ProjPoint:
    """A point of the rational projective line: a fraction or infinity.

    Finite values are stored as :class:`fractions.Fraction`, which keeps
    them in lowest terms with positive denominator.
    """

    __slots__ = ("value",)

    def __init__(self, value: RationalLike | None):
        if value is not None and type(value) is not Fraction:
            value = Fraction(value)
        self.value = value

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def sort_key(self) -> tuple:
        # finite points by value, infinity last
        if self.value is None:
            return (1, Fraction(0))
        return (0, self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjPoint) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    @staticmethod
    def parse(token: str) -> "ProjPoint":
        token = token.strip()
        if token in ("inf", "oo", "infinity"):
            return ProjPoint.infinity()
        return ProjPoint(Fraction(token))


class BranchSet:
    """A finite set of at least three distinct projective points."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[ProjPoint]):
        points = list(points)
        unique = frozenset(points)
        if len(unique) != len(points):
            raise ValueError("branch points must be distinct")
        if len(unique) < 3:
            raise ValueError("a branch set needs at least three points")
        self.points = unique

    def sorted_points(self) -> list[ProjPoint]:
        return sorted(self.points, key=ProjPoint.sort_key)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: ProjPoint) -> bool:
        return p in self.points

    def __eq__(self, other) -> bool:
        return isinstance(other, BranchSet) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.sorted_points())
        return f"BranchSet({{{inner}}})"


class MoebiusMap:
    """An invertible rational map z -> (a z + b) / (c z + d).

    Stored projectively: entries are scaled so that the first nonzero
    entry in the order (a, b, c, d) equals 1, making equality of maps
    equality of matrices.  Points are mapped by the same matrix scaled to
    integer entries (found on first use), so each point costs integer
    arithmetic and one fraction.
    """

    __slots__ = ("a", "b", "c", "d", "_integral")

    def __init__(self, a: RationalLike, b: RationalLike,
                 c: RationalLike, d: RationalLike):
        a, b, c, d = (Fraction(x) for x in (a, b, c, d))
        if a * d - b * c == 0:
            raise ValueError("degenerate matrix: determinant is zero")
        for pivot in (a, b, c, d):
            if pivot != 0:
                a, b, c, d = a / pivot, b / pivot, c / pivot, d / pivot
                break
        self.a, self.b, self.c, self.d = a, b, c, d
        self._integral = None

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1)

    def __call__(self, p: ProjPoint) -> ProjPoint:
        if self._integral is None:
            entries = (self.a, self.b, self.c, self.d)
            scale = math.lcm(*(x.denominator for x in entries))
            self._integral = tuple(x.numerator * (scale // x.denominator) for x in entries)
        a, b, c, d = self._integral
        n, m = _homogeneous(p)
        den = c * n + d * m
        return ProjPoint(None if den == 0 else Fraction(a * n + b * m, den))

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product: apply ``other`` first."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def matrix(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    def __eq__(self, other) -> bool:
        return isinstance(other, MoebiusMap) and self.matrix() == other.matrix()

    def __hash__(self) -> int:
        return hash(self.matrix())

    def __repr__(self) -> str:
        return f"MoebiusMap({self.a}, {self.b}, {self.c}, {self.d})"

    @staticmethod
    def to_zero_one_inf(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> "MoebiusMap":
        """The unique map sending (p1, p2, p3) to (0, 1, inf): with
        det(u, v) = u_n v_d - u_d v_n on :func:`_homogeneous` coordinates,
        z -> [det(z, p1) det(p2, p3) : det(z, p3) det(p2, p1)], inf included.
        """
        if len({p1, p2, p3}) != 3:
            raise ValueError("the three points must be distinct")
        (n1, d1), (n2, d2), (n3, d3) = map(_homogeneous, (p1, p2, p3))
        s = n2 * d3 - d2 * n3
        t = n2 * d1 - d2 * n1
        return MoebiusMap(d1 * s, -n1 * s, d3 * t, -n3 * t)

    @staticmethod
    def through_triples(
        source: tuple[ProjPoint, ProjPoint, ProjPoint],
        target: tuple[ProjPoint, ProjPoint, ProjPoint],
    ) -> "MoebiusMap":
        """The unique map sending the source triple to the target triple."""
        fwd = MoebiusMap.to_zero_one_inf(*source)
        back = MoebiusMap.to_zero_one_inf(*target).inverse()
        return back.compose(fwd)


def apply_map(m: MoebiusMap, branch: BranchSet) -> BranchSet:
    """Image of a branch set; cardinality is preserved."""
    return BranchSet([m(p) for p in branch])


def family_branch_set(genus: int, param: RationalLike) -> BranchSet:
    """Branch set {a, -2g, 0, 1, ..., 2g-1} of the one-parameter family.

    Raises :class:`ExcludedParameter` when the parameter collides with one
    of the fixed roots, and :class:`BudgetExceeded` above ``GENUS_CAP``
    (read at call time) before any point is built.
    """
    if genus < 3:
        raise ValueError("the family is defined for genus >= 3")
    if genus > GENUS_CAP:
        raise BudgetExceeded(
            f"genus {genus} exceeds GENUS_CAP = {GENUS_CAP};"
            " set surfmoduli.moebius.GENUS_CAP = N to raise it"
        )
    a = Fraction(param)
    fixed = [Fraction(-2 * genus)] + [Fraction(i) for i in range(2 * genus)]
    if a in fixed:
        raise ExcludedParameter(
            f"parameter {a} is one of the fixed roots of the genus-{genus} family"
        )
    return BranchSet([ProjPoint(a)] + [ProjPoint(v) for v in fixed])


def _homogeneous(p: ProjPoint) -> tuple[int, int]:
    """Coordinates (n, d) of ``p`` in lowest terms with d > 0; inf is (1, 0)."""
    if p.is_infinite:
        return (1, 0)
    return (p.value.numerator, p.value.denominator)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """The coordinates of [n : d] in the form :func:`_homogeneous` gives."""
    g = math.gcd(n, d)
    if d < 0 or (d == 0 and n < 0):
        g = -g
    return (n // g, d // g)


def _fourth_images(cross_ratio: Fraction, targets: list[ProjPoint]):
    """For each ordered triple (q1, q2, q3) of ``targets``, in
    lexicographic order: the triple and the point z with
    [q1, q2, q3 -> 0, 1, inf](z) = ``cross_ratio``, in the coordinates
    :func:`_homogeneous` gives.

    With det as in :meth:`MoebiusMap.to_zero_one_inf` and
    cross_ratio = l_n / l_d, the vector

        z = l_n det(q2, q1) q3 - l_d det(q2, q3) q1

    solves it; the formula holds unchanged when some q_i is inf = (1, 0).
    ``cross_ratio`` must be finite and not 0 or 1, so z is never the zero
    vector.
    """
    ln, ld = cross_ratio.numerator, cross_ratio.denominator
    coords = [_homogeneous(q) for q in targets]
    for (q1, (n1, d1)), (q2, (n2, d2)), (q3, (n3, d3)) in itertools.permutations(
        zip(targets, coords), 3
    ):
        la = ln * (n2 * d1 - d2 * n1)
        lb = ld * (n2 * d3 - d2 * n3)
        yield (q1, q2, q3), _reduced(la * n3 - lb * n1, la * d3 - lb * d1)


def moebius_equivalent(b1: BranchSet, b2: BranchSet) -> MoebiusMap | None:
    """A rational map carrying ``b1`` onto ``b2``, or ``None``.

    Any map with ``m(b1) = b2`` is determined by where it sends one fixed
    ordered triple (p1, p2, p3) of ``b1``, so trying every ordered triple
    of ``b2`` as the image is a complete decision procedure over the
    rationals.  Target triples are tried in lexicographic order of the
    sorted points and the first certificate is returned.

    A candidate map sends a fourth point p4 of ``b1`` to the point with the
    same cross-ratio: writing lambda = [p1, p2, p3 -> 0, 1, inf](p4), which
    is finite and not 0 or 1, the image of p4 under the candidate for
    (q1, q2, q3) is the z with [q1, q2, q3 -> 0, 1, inf](z) = lambda.  That
    z is computed in integer arithmetic from lambda, which is found once,
    and only a candidate whose z lies in ``b2`` is built as a map and
    applied to the whole set.  Three-point sets have no fourth point, and
    their first candidate is the certificate.
    """
    if len(b1) != len(b2):
        raise SizeMismatch(f"branch sets of sizes {len(b1)} and {len(b2)}")
    points = b1.sorted_points()
    targets = b2.sorted_points()
    source = tuple(points[:3])
    if len(points) == 3:
        candidates = itertools.permutations(targets, 3)
    else:
        cross_ratio = MoebiusMap.to_zero_one_inf(*source)(points[3]).value
        on_b2 = {_homogeneous(q) for q in targets}
        candidates = (
            target for target, z in _fourth_images(cross_ratio, targets) if z in on_b2
        )
    for target in candidates:
        m = MoebiusMap.through_triples(source, target)
        if apply_map(m, b1) == b2:
            return m
    return None
