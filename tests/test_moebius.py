"""Branch sets and exact rational Moebius equivalence."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from surfmoduli import moebius
from surfmoduli.errors import BudgetExceeded, ExcludedParameter, SizeMismatch
from surfmoduli.moebius import (
    BranchSet,
    MoebiusMap,
    ProjPoint,
    apply_map,
    family_branch_set,
    moebius_equivalent,
)

INF = ProjPoint.infinity()


def pts(*values):
    return BranchSet([INF if v == "inf" else ProjPoint(v) for v in values])


def cross_ratio(p1, p2, p3, z):
    """Value at z of the map sending (p1, p2, p3) to (0, 1, inf), computed
    directly from the rational formula with infinity conventions.  This is
    the arithmetic backbone of the second, independent equivalence test."""
    def sub(u, v):  # u - v with one possibly infinite operand flagged
        return u.value - v.value

    if z == p1:
        return ProjPoint(0)
    if z == p2:
        return ProjPoint(1)
    if z == p3:
        return INF
    # generic case: (z - p1)(p2 - p3) / ((z - p3)(p2 - p1)), with any
    # infinite entry cancelling its two occurrences
    if z.is_infinite:
        num, den = sub(p2, p3), sub(p2, p1)
    elif p1.is_infinite:
        num, den = sub(p2, p3), sub(z, p3)
    elif p2.is_infinite:
        num, den = sub(z, p1), sub(z, p3)
    elif p3.is_infinite:
        num, den = sub(z, p1), sub(p2, p1)
    else:
        num = sub(z, p1) * sub(p2, p3)
        den = sub(z, p3) * sub(p2, p1)
    return INF if den == 0 else ProjPoint(num / den)


def cross_ratio_equivalent(b1, b2):
    """Independent decision procedure via cross-ratio multisets."""
    if len(b1) != len(b2):
        raise SizeMismatch("sizes differ")
    s1 = b1.sorted_points()
    t1 = tuple(s1[:3])
    profile1 = sorted(
        cross_ratio(*t1, z).sort_key() for z in s1[3:]
    )
    for t2 in itertools.permutations(b2.sorted_points(), 3):
        rest = [p for p in b2.sorted_points() if p not in t2]
        profile2 = sorted(cross_ratio(*t2, z).sort_key() for z in rest)
        if profile1 == profile2:
            return True
    return False


def random_point(rng, height=10):
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return ProjPoint(Fraction(num, den))


def random_branch_set(rng, size=8, with_inf=False):
    points = set()
    if with_inf:
        points.add(INF)
    while len(points) < size:
        points.add(random_point(rng))
    return BranchSet(points)


def random_map(rng, height=10):
    while True:
        a, b, c, d = (rng.randint(-height, height) for _ in range(4))
        if a * d - b * c != 0:
            return MoebiusMap(a, b, c, d)


class TestPointsAndMaps:
    def test_projpoint_canonical(self):
        assert ProjPoint(Fraction(2, 4)) == ProjPoint(Fraction(1, 2))
        assert ProjPoint.parse("inf") == INF
        assert ProjPoint.parse("-3/6") == ProjPoint(Fraction(-1, 2))

    def test_branch_set_validation(self):
        with pytest.raises(ValueError):
            BranchSet([ProjPoint(0), ProjPoint(0), ProjPoint(1)])
        with pytest.raises(ValueError):
            BranchSet([ProjPoint(0), ProjPoint(1)])

    def test_map_canonical_form(self):
        assert MoebiusMap(2, 4, 0, 2) == MoebiusMap(1, 2, 0, 1)
        with pytest.raises(ValueError):
            MoebiusMap(1, 2, 2, 4)

    def test_identity_apply(self):
        b = pts(0, 1, "inf", 3)
        assert apply_map(MoebiusMap.identity(), b) == b

    def test_inversion_map(self):
        m = MoebiusMap(0, 1, 1, 0)
        assert apply_map(m, pts(1, 2, "inf")) == pts(1, Fraction(1, 2), 0)

    def test_translation_on_family(self):
        m = MoebiusMap(1, 1, 0, 1)
        got = apply_map(m, family_branch_set(3, 7))
        assert got == pts(8, -5, 1, 2, 3, 4, 5, 6)

    def test_integer_matrix_maps_like_the_fractions(self):
        rng = random.Random(11)
        for _ in range(50):
            m = MoebiusMap(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)),
                           Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for p in [INF] + [random_point(rng) for _ in range(8)]:
                if p == INF:
                    want = INF if m.c == 0 else ProjPoint(m.a / m.c)
                elif m.c * p.value + m.d == 0:
                    want = INF
                else:
                    want = ProjPoint((m.a * p.value + m.b) / (m.c * p.value + m.d))
                got = m(p)
                assert got == want and type(got.value) in (type(None), Fraction)

    def test_compose_and_inverse(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_map(rng)
            w = random_map(rng)
            p = random_point(rng)
            assert m.compose(w)(p) == m(w(p))
            assert m.inverse()(m(p)) == p

    def test_through_triples(self):
        src = (ProjPoint(0), ProjPoint(1), INF)
        dst = (ProjPoint(5), INF, ProjPoint(-1))
        m = MoebiusMap.through_triples(src, dst)
        assert tuple(m(p) for p in src) == dst


class TestInfinityAsAnOrdinaryPoint:
    POINTS = [ProjPoint(0), ProjPoint(1), ProjPoint(-1), ProjPoint("1/2"), INF]
    # SHA-256 of the normalised matrices of to_zero_one_inf over every
    # ordered triple of POINTS, in permutation order; computed before the
    # map was written in homogeneous coordinates
    PINNED = "a6b18200eaa63764a97de8e047d4c731930b68650ce70a19e0d3e6cf3b1a0dda"

    def test_to_zero_one_inf_matches_the_cross_ratio(self):
        triples = list(itertools.permutations(self.POINTS, 3))
        for position in range(3):
            assert any(t[position] == INF for t in triples)
        matrices = []
        for t in triples:
            m = MoebiusMap.to_zero_one_inf(*t)
            for z in self.POINTS:
                assert m(z) == cross_ratio(*t, z), (t, z)
            matrices.append([str(x) for row in m.matrix() for x in row])
        digest = hashlib.sha256(repr(matrices).encode()).hexdigest()
        assert digest == self.PINNED

    def test_matrices_with_inf_in_each_position(self):
        half = Fraction(1, 2)
        pinned = {
            (INF, ProjPoint(1), ProjPoint(-1)): ((0, 1), (half, half)),
            (ProjPoint(0), INF, ProjPoint(half)): ((1, 0), (1, -half)),
            (ProjPoint(half), ProjPoint(-1), INF): ((1, -half), (0, Fraction(-3, 2))),
        }
        for t, matrix in pinned.items():
            assert MoebiusMap.to_zero_one_inf(*t).matrix() == matrix

    def test_repeated_points_are_rejected(self):
        for p, q in itertools.permutations(self.POINTS, 2):
            for t in ((p, p, q), (p, q, p), (q, p, p)):
                with pytest.raises(ValueError):
                    MoebiusMap.to_zero_one_inf(*t)

    def test_pole_goes_to_inf_and_inf_to_a_over_c(self):
        rng = random.Random(11)
        maps = [random_map(rng) for _ in range(40)]
        maps += [MoebiusMap(2, 3, 0, 5), MoebiusMap(0, 1, 1, 0)]
        assert any(m.c == 0 for m in maps) and any(m.c != 0 for m in maps)
        for m in maps:
            if m.c == 0:
                assert m(INF) == INF
            else:
                assert m(ProjPoint(-m.d / m.c)) == INF
                assert m(INF) == ProjPoint(m.a / m.c)


class TestFamilyBranchSet:
    def test_g3_a7(self):
        assert family_branch_set(3, 7) == pts(7, -6, 0, 1, 2, 3, 4, 5)

    def test_excluded_parameter(self):
        with pytest.raises(ExcludedParameter):
            family_branch_set(3, 2)
        with pytest.raises(ExcludedParameter):
            family_branch_set(3, -6)

    def test_g4_fractional(self):
        b = family_branch_set(4, Fraction(-1, 2))
        assert len(b) == 10
        assert ProjPoint(-8) in b and ProjPoint(Fraction(-1, 2)) in b

    def test_size_is_2g_plus_2(self):
        for g in (3, 4, 5, 6):
            for a in (Fraction(101, 7), -17, Fraction(-1, 3)):
                assert len(family_branch_set(g, a)) == 2 * g + 2

    def test_genus_bound(self):
        with pytest.raises(ValueError):
            family_branch_set(2, 99)

    def test_genus_cap_refuses_before_a_point_is_built(self, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(
                BudgetExceeded,
                match=r"^genus 1000001 exceeds GENUS_CAP = 1000000;"
                r" set surfmoduli.moebius.GENUS_CAP = N to raise it$",
            ):
                family_branch_set(moebius.GENUS_CAP + 1, Fraction(1, 2))
            # 2 * 10^6 points would take hundreds of megabytes
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(moebius, "GENUS_CAP", 4)
        assert len(family_branch_set(4, 99)) == 10
        with pytest.raises(BudgetExceeded, match=r"GENUS_CAP = 4;"):
            family_branch_set(5, 99)


class TestEquivalence:
    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            moebius_equivalent(pts(0, 1, 2), pts(0, 1, 2, 3))

    def test_four_point_negative(self):
        assert moebius_equivalent(pts(0, 1, "inf", 3), pts(0, 1, "inf", 4)) is None
        assert not cross_ratio_equivalent(pts(0, 1, "inf", 3), pts(0, 1, "inf", 4))

    def test_family_members_not_equivalent(self):
        b1 = family_branch_set(3, 7)
        b2 = family_branch_set(3, 8)
        assert moebius_equivalent(b1, b2) is None
        assert not cross_ratio_equivalent(b1, b2)

    def test_round_trip_returns_valid_certificate(self):
        rng = random.Random(20240612)
        for _ in range(30):
            b = random_branch_set(rng, size=6, with_inf=rng.random() < 0.3)
            m = random_map(rng)
            target = apply_map(m, b)
            cert = moebius_equivalent(b, target)
            assert cert is not None
            assert apply_map(cert, b) == target

    def test_reflexive_and_symmetric(self):
        rng = random.Random(99)
        for _ in range(10):
            b = random_branch_set(rng, size=5)
            assert moebius_equivalent(b, b) is not None
            c = apply_map(random_map(rng), b)
            fwd = moebius_equivalent(b, c)
            back = moebius_equivalent(c, b)
            assert fwd is not None and back is not None
            assert apply_map(back, c) == b

    def test_certificate_is_the_first_in_target_order(self):
        # brute force: every ordered target triple in order, full image check
        def first_certificate(b1, b2):
            source = tuple(b1.sorted_points()[:3])
            for target in itertools.permutations(b2.sorted_points(), 3):
                m = MoebiusMap.through_triples(source, target)
                if {m(p) for p in b1} == set(b2):
                    return m
            return None

        rng = random.Random(31)
        pairs = [(pts(0, 1, 2), pts(5, "inf", -1))]  # no fourth point
        for _ in range(12):
            b = random_branch_set(
                rng, size=rng.choice([3, 4, 5, 7]), with_inf=rng.random() < 0.3
            )
            pairs.append((b, apply_map(random_map(rng), b)))
            pairs.append((b, random_branch_set(rng, size=len(b))))
        found = 0
        for b1, b2 in pairs:
            expected = first_certificate(b1, b2)
            assert moebius_equivalent(b1, b2) == expected, (b1, b2)
            found += expected is not None
        assert 13 <= found < len(pairs)

    def test_agrees_with_cross_ratio_implementation(self):
        rng = random.Random(4242)
        agree_cases = 0
        for _ in range(40):
            b = random_branch_set(rng, size=rng.choice([4, 5, 6]))
            if rng.random() < 0.5:
                other = apply_map(random_map(rng), b)
            else:
                other = random_branch_set(rng, size=len(b))
            got = moebius_equivalent(b, other) is not None
            assert got == cross_ratio_equivalent(b, other)
            agree_cases += 1
        assert agree_cases == 40


class TestFourthPointFilter:
    """moebius_equivalent against a brute-force loop that finds each
    candidate's fourth-point image by searching b2 for a point of equal
    cross-ratio (the test's own ``cross_ratio``), not by the library's
    closed form."""

    @staticmethod
    def brute_force(b1, b2):
        """(first certificate or None, targets up to it that pass the
        fourth-point test, how many of those send the fourth point to inf)."""
        points = b1.sorted_points()
        source = tuple(points[:3])
        lam = cross_ratio(*source, points[3]) if len(points) > 3 else None
        passing, to_inf = [], 0
        for target in itertools.permutations(b2.sorted_points(), 3):
            if lam is not None:
                images = [z for z in b2 if cross_ratio(*target, z) == lam]
                if not images:
                    continue
                to_inf += images == [INF]
            passing.append(target)
            m = MoebiusMap.through_triples(source, target)
            if {m(p) for p in b1} == set(b2):
                return m, passing, to_inf
        return None, passing, to_inf

    @staticmethod
    def pairs():
        rng = random.Random(6006)
        out = [
            (pts(0, 1, 2), pts(5, "inf", -1)),  # n = 3, inf as a target
            (pts(0, 1, "inf"), pts(7, 8, 9)),  # n = 3, inf in b1 only
            (pts(0, 1, 2, 3), pts(0, 1, 2, "inf")),  # fourth image at inf
            (pts(0, 1, "inf", 3), pts(0, 1, "inf", 4)),  # n = 4, inequivalent
            (pts(0, 1, "inf", 3), pts(0, 1, "inf", Fraction(3, 2))),  # inf in both
            (pts(0, 1, 2, 3), pts(0, 1, 2, 4)),  # n = 4, no inf
        ]
        # the fourth point of b1 goes to inf, inf elsewhere in b1 or not
        for with_inf in (False, True):
            b = random_branch_set(rng, size=6, with_inf=with_inf)
            p4 = b.sorted_points()[3]
            out.append((b, apply_map(MoebiusMap(1, 0, 1, -p4.value), b)))
        for _ in range(6):  # seeded n = 10 pairs
            b = random_branch_set(rng, size=10, with_inf=rng.random() < 0.4)
            out.append((b, apply_map(random_map(rng), b)))
            out.append((b, random_branch_set(rng, size=10, with_inf=rng.random() < 0.4)))
        for _ in range(6):  # seeded n = 4 pairs
            b = random_branch_set(rng, size=4, with_inf=rng.random() < 0.5)
            out.append((b, apply_map(random_map(rng), b)))
            out.append((b, random_branch_set(rng, size=4, with_inf=rng.random() < 0.5)))
        return out

    def test_same_first_certificate_and_maps_only_for_passing_targets(self, monkeypatch):
        built = []
        real = MoebiusMap.through_triples

        def recording(source, target):
            built.append(target)
            return real(source, target)

        pairs = self.pairs()
        found = infinite_fourth = 0
        for b1, b2 in pairs:
            expected, passing, to_inf = self.brute_force(b1, b2)
            built.clear()
            monkeypatch.setattr(MoebiusMap, "through_triples", staticmethod(recording))
            got = moebius_equivalent(b1, b2)
            monkeypatch.undo()
            assert got == expected, (b1, b2)
            assert built == passing, (b1, b2)
            found += expected is not None
            infinite_fourth += to_inf
        assert 14 <= found < len(pairs)
        assert infinite_fourth >= 3
