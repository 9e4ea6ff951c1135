"""Bidouble/abc invariants, diffeomorphism chains, non-deformation tests."""

import itertools
import pickle
import time

import pytest

from surfmoduli.bidouble import (
    AbcType,
    BidoubleInvariants,
    BidoubleType,
    NondefReport,
    TypeClassification,
    abc_invariants,
    bidouble_invariants,
    diffeo_equivalent,
    diffeo_step,
    enumerate_types,
    nondef_predicate,
)
from surfmoduli.invariants import SurfaceInvariants


def direct_image_chi(a, b, c, d):
    """Oracle: sum the Euler characteristics of the four character sheaves
    O_Q(-p, -q) for (p, q) in {(0,0), (a,b), (c,d), (a+c, b+d)}, using
    chi(O_Q(-p, -q)) = (p-1)(q-1) for p, q >= 1 and 1 for (0, 0)."""
    total = 0
    for p, q in ((0, 0), (a, b), (c, d), (a + c, b + d)):
        total += 1 if (p, q) == (0, 0) else (p - 1) * (q - 1)
    return total


def _printed(a, b, c, d):
    return (a + c - 2) * (b + d - 2)


class TestTypes:
    def test_bidouble_bound(self):
        with pytest.raises(ValueError):
            BidoubleType(2, 3, 3, 3)

    def test_abc_accepts_small_entries_with_flag(self):
        assert AbcType(2, 3, 3).below_standard_bound
        assert not AbcType(3, 3, 3).below_standard_bound
        with pytest.raises(ValueError):
            AbcType(0, 3, 3)


class TestRecords:
    """Each record built by keyword equals the library's own, is immutable
    and survives pickling."""

    CASES = [
        (BidoubleType(a=3, b=4, c=5, d=6), BidoubleType(3, 4, 5, 6)),
        (AbcType(a=2, b=3, c=3), AbcType(2, 3, 3)),
        (
            BidoubleInvariants(
                invariants=SurfaceInvariants.from_chi_ksq(34, 128), ksq_paper=16
            ),
            bidouble_invariants(BidoubleType(3, 3, 3, 3)),
        ),
        (NondefReport(a=16, b=40, c=6, k=2), nondef_predicate(16, 40, 6, 2)),
        (
            TypeClassification(
                chi=34, ksq=128, convention="pullback", bound=12,
                types=(BidoubleType(3, 3, 3, 3),),
                diffeo_classes=(((3, 6), (BidoubleType(3, 3, 3, 3),)),),
            ),
            enumerate_types(34, 128, 12),
        ),
    ]

    @pytest.mark.parametrize("record, library", CASES, ids=lambda r: type(r).__name__)
    def test_keyword_construction_assignment_and_pickle(self, record, library):
        assert record == library
        with pytest.raises(AttributeError):
            setattr(record, record.__slots__[0], 7)
        assert pickle.loads(pickle.dumps(record)) == record

    def test_type_classification_hashes_by_value(self):
        first, second = enumerate_types(34, 128, 12), enumerate_types(34, 128, 12)
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert {first: "found"}[second] == "found"

    def test_default_flag(self):
        inv = BidoubleInvariants(SurfaceInvariants.from_chi_ksq(34, 128), 16)
        assert inv.below_standard_bound is False
        assert "below_standard_bound" not in inv.as_dict()

    def test_nondef_report_equality_and_hash_by_its_four_integers(self):
        report = nondef_predicate(14, 8, 6, 2)
        assert report == NondefReport(14, 8, 6, 2)
        assert hash(report) == hash(NondefReport(a=14, b=8, c=6, k=2))
        assert report != NondefReport(14, 8, 6, 4)
        assert len({report, NondefReport(14, 8, 6, 2), NondefReport(14, 8, 6, 4)}) == 2
        assert repr(report) == "NondefReport(a=14, b=8, c=6, k=2)"
        assert list(report.conditions) == ["I", "II", "III", "IV1", "IV2"]


class TestInvariants:
    def test_3333(self):
        inv = bidouble_invariants(BidoubleType(3, 3, 3, 3))
        assert direct_image_chi(3, 3, 3, 3) == 34  # oracle: 1 + 4 + 4 + 25
        assert inv.chi == 34
        assert inv.ksq == 128
        assert inv.ksq_paper == 16

    def test_3456(self):
        inv = bidouble_invariants(BidoubleType(3, 4, 5, 6))
        assert direct_image_chi(3, 4, 5, 6) == 90
        assert inv.chi == 90 and inv.ksq == 384 and inv.ksq_paper == 48

    def test_chi_oracle_exhaustive(self):
        for a, b, c, d in itertools.product(range(3, 13), repeat=4):
            inv = bidouble_invariants(BidoubleType(a, b, c, d))
            assert inv.chi == direct_image_chi(a, b, c, d)

    def test_abc_matches_bidouble_with_d_equal_b(self):
        assert (
            abc_invariants(AbcType(3, 3, 3)).as_dict()
            == bidouble_invariants(BidoubleType(3, 3, 3, 3)).as_dict()
        )

    def test_abc_233_relaxed(self):
        inv = abc_invariants(AbcType(2, 3, 3))
        assert inv.chi == 1 + 2 + 4 + 4 * 5 == 27
        assert inv.below_standard_bound

    def test_abc_depends_only_on_b_and_a_plus_c(self):
        a = abc_invariants(AbcType(3, 4, 5)).as_dict()
        b = abc_invariants(AbcType(5, 4, 3)).as_dict()
        c = abc_invariants(AbcType(4, 4, 4)).as_dict()
        assert a == b == c

    def test_noether_relations(self):
        inv = bidouble_invariants(BidoubleType(4, 5, 6, 7)).invariants
        assert inv.e == 12 * inv.chi - inv.ksq
        assert inv.tau == inv.ksq - 8 * inv.chi


class TestDiffeoStep:
    def test_233_to_332(self):
        assert diffeo_step(AbcType(2, 3, 3), AbcType(3, 3, 2))

    def test_232_to_331_blocked(self):
        assert not diffeo_step(AbcType(2, 3, 2), AbcType(3, 3, 1))

    def test_self_is_not_a_step(self):
        s = AbcType(3, 3, 3)
        assert not diffeo_step(s, s)

    def test_step_preserves_invariants(self):
        for a, b, c in itertools.product(range(2, 7), repeat=3):
            s = AbcType(a, b, c)
            s2 = AbcType(a + 1, b, c - 1) if c - 1 >= 1 else None
            if s2 and diffeo_step(s, s2):
                assert abc_invariants(s).chi == abc_invariants(s2).chi
                assert abc_invariants(s).ksq == abc_invariants(s2).ksq

    def test_symmetry_of_step(self):
        for a, b, c in itertools.product(range(2, 7), repeat=3):
            s = AbcType(a, b, c)
            if c - 1 >= 1:
                s2 = AbcType(a + 1, b, c - 1)
                assert diffeo_step(s, s2) == diffeo_step(s2, s)


class TestDiffeoEquivalent:
    def test_235_to_532_three_steps(self):
        chain = diffeo_equivalent(AbcType(2, 3, 5), AbcType(5, 3, 2))
        assert chain is not None
        assert [(t.a, t.b, t.c) for t in chain] == [
            (2, 3, 5),
            (3, 3, 4),
            (4, 3, 3),
            (5, 3, 2),
        ]
        for s, s2 in zip(chain, chain[1:]):
            assert diffeo_step(s, s2)

    def test_different_b_rejected(self):
        assert diffeo_equivalent(AbcType(3, 4, 5), AbcType(3, 5, 4)) is None

    def test_different_sum_rejected(self):
        assert diffeo_equivalent(AbcType(3, 4, 5), AbcType(4, 4, 5)) is None

    def test_equivalence_relation_axioms_up_to_8(self):
        types = [
            AbcType(a, b, c)
            for a, b, c in itertools.product(range(2, 9), repeat=3)
        ]
        by_line = {}
        for t in types:
            by_line.setdefault((t.b, t.a + t.c), []).append(t)
        for t in types:
            assert diffeo_equivalent(t, t) is not None  # reflexive
        for members in by_line.values():
            for s in members:
                for s2 in members:
                    fwd = diffeo_equivalent(s, s2) is not None
                    back = diffeo_equivalent(s2, s) is not None
                    assert fwd == back  # symmetric
        for members in by_line.values():
            for s in members:
                reach = {
                    s2
                    for s2 in members
                    if diffeo_equivalent(s, s2) is not None
                }
                for s2 in reach:
                    reach2 = {
                        s3
                        for s3 in members
                        if diffeo_equivalent(s2, s3) is not None
                    }
                    assert reach2 <= reach  # transitive

    def test_matches_flood_fill_with_blocked_steps(self):
        # entries 1 and 2 block steps; oracle: reachability over diffeo_step
        types = [
            AbcType(a, b, c)
            for a, b, c in itertools.product(range(1, 8), range(1, 4), range(1, 8))
        ]
        for s in types:
            reach, work = {s}, [s]
            while work:
                x = work.pop()
                for y in types:
                    if y not in reach and diffeo_step(x, y):
                        reach.add(y)
                        work.append(y)
            for s2 in types:
                chain = diffeo_equivalent(s, s2)
                assert (chain is not None) == (s2 in reach), (s, s2)
                if chain is not None:
                    assert chain[0] == s and chain[-1] == s2
                    assert len(chain) == abs(s2.a - s.a) + 1
                    for x, y in zip(chain, chain[1:]):
                        assert diffeo_step(x, y)

    def test_chain_invariants_constant(self):
        chain = diffeo_equivalent(AbcType(2, 5, 8), AbcType(8, 5, 2))
        assert chain
        chis = {abc_invariants(t).chi for t in chain}
        assert len(chis) == 1


class TestNondef:
    def test_positive_case(self):
        assert nondef_predicate(14, 8, 6, 2).verdict

    def test_odd_k_fails_I(self):
        rep = nondef_predicate(14, 8, 6, 3)
        assert not rep.verdict
        assert not rep.conditions["I"]
        assert "I" in rep.failing()

    def test_small_a_fails_II(self):
        rep = nondef_predicate(8, 8, 6, 2)
        assert not rep.verdict
        assert not rep.conditions["II"]
        assert "II" in rep.failing()

    def test_odd_b_fails_I(self):
        rep = nondef_predicate(14, 7, 6, 2)
        assert not rep.verdict
        assert not rep.conditions["I"]

    def test_true_verdict_implies_matching_invariants(self):
        cases = [
            (a, b, c, k)
            for a in range(4, 20, 2)
            for b in range(4, 20, 2)
            for c in range(4, 12, 2)
            for k in range(2, 6, 2)
        ]
        hits = 0
        for a, b, c, k in cases:
            if not nondef_predicate(a, b, c, k).verdict:
                continue
            hits += 1
            s = bidouble_invariants(BidoubleType(a, b, c, b))
            s2 = bidouble_invariants(BidoubleType(a + k, b, c - k, b))
            assert s.chi == s2.chi and s.ksq == s2.ksq
        assert hits > 0


class TestEnumerateTypes:
    def test_finds_3333(self):
        result = enumerate_types(34, 128, 12)
        assert BidoubleType(3, 3, 3, 3) in result.types
        assert ((3, 6), (BidoubleType(3, 3, 3, 3),)) in [
            (k, tuple(v)) for k, v in result.diffeo_classes
        ]

    def test_chi_2_is_empty(self):
        # exhaustive check of the minimum: chi(3,3,3,3) = 34 is least
        result = enumerate_types(2, 8, 12)
        assert result.types == ()
        lows = [
            bidouble_invariants(BidoubleType(a, b, c, d)).chi
            for a, b, c, d in itertools.product(range(3, 7), repeat=4)
        ]
        assert min(lows) == 34

    def test_bound_zero_empty(self):
        assert enumerate_types(34, 128, 0).types == ()

    def test_paper_convention_flag(self):
        assert enumerate_types(34, 16, 12, paper_convention=True).types == (
            BidoubleType(3, 3, 3, 3),
        )

    @pytest.mark.parametrize("paper", [False, True], ids=["pullback", "paper"])
    def test_matches_the_four_loop(self, paper):
        bound = 10
        # (chi, printed ksq) of a few types, some with an entry at the bound,
        # plus chi off by one, so targets with and without matches
        targets = []
        for t in ((3, 3, 3, 3), (3, 4, 5, 6), (4, 3, 4, 5), (5, 5, 3, 3),
                  (9, 10, 10, 4), (10, 10, 10, 10)):
            chi = direct_image_chi(*t)
            printed = (t[0] + t[2] - 2) * (t[1] + t[3] - 2)
            ksq = printed if paper else 8 * printed
            targets += [(chi, ksq), (chi + 1, ksq)]
        # a target not divisible by 8, and nonpositive targets
        targets += [(34, 132), (34, 0), (34, -8), (0, 0), (-5, -128)]
        for chi, ksq in targets:
            expected = tuple(
                BidoubleType(a, b, c, d)
                for a, b, c, d in itertools.product(range(3, bound + 1), repeat=4)
                if direct_image_chi(a, b, c, d) == chi
                and (a + c - 2) * (b + d - 2) * (1 if paper else 8) == ksq
            )
            got = enumerate_types(chi, ksq, bound, paper_convention=paper)
            assert got.types == expected, (chi, ksq)
        assert any(
            enumerate_types(chi, ksq, bound, paper_convention=paper).types
            for chi, ksq in targets
        )

    def test_time_does_not_grow_with_the_bound(self):
        # (chi, ksq) of types with small and large entries; a bound of the
        # printed ksq already admits every entry, since a < a + c - 2
        targets = [(10, 80)]
        for t in ((3, 3, 3, 3), (3, 4, 5, 6), (7, 3, 12, 40), (30, 9, 4, 61)):
            targets.append((direct_image_chi(*t), 8 * _printed(*t)))
        started = time.perf_counter()
        for chi, ksq in targets:
            huge = enumerate_types(chi, ksq, 10**8)
            assert huge.types == enumerate_types(chi, ksq, ksq // 8).types
            for t in huge.types:
                assert direct_image_chi(t.a, t.b, t.c, t.d) == chi
                assert 8 * _printed(t.a, t.b, t.c, t.d) == ksq
        assert time.perf_counter() - started < 1
        assert enumerate_types(*targets[3], 10**8).types

    def test_huge_ksq_is_cut_at_once(self):
        # s = a+c-2 <= 2 bound - 2 caps the trial division, and
        # chi - 1 > (a+c-1)(b+d-1) > printed ksq rules out the third target
        started = time.perf_counter()
        for chi, bound in ((34, 12), (10**19, 12), (34, 10**9)):
            assert enumerate_types(chi, 8 * 10**18, bound).types == ()
        assert time.perf_counter() - started < 1

    def test_a_equal_to_c_admits_every_b(self):
        # with a = c, chi depends on b only through b + d, so every split
        # of b + d inside the bound matches
        bound = 10
        for t in ((4, 5, 4, 7), (3, 3, 3, 9), (6, 4, 6, 4)):
            chi, ksq = direct_image_chi(*t), 8 * _printed(*t)
            expected = tuple(
                BidoubleType(a, b, c, d)
                for a, b, c, d in itertools.product(range(3, bound + 1), repeat=4)
                if direct_image_chi(a, b, c, d) == chi
                and 8 * _printed(a, b, c, d) == ksq
            )
            got = enumerate_types(chi, ksq, bound).types
            assert got == expected
            splits = [b for b in range(3, bound + 1) if 3 <= t[1] + t[3] - b <= bound]
            assert len(splits) > 1
            assert [u.b for u in got if (u.a, u.c) == (t[0], t[2])] == splits
