"""Braid word problem, factorization moves, orbit enumeration."""

import random
import time
import tracemalloc

import pytest

from conftest import artin_images, naive_orbit
from surfmoduli import braids
from surfmoduli.braids import (
    BraidWord,
    Factorization,
    braid_equal,
    canonical_key,
    hurwitz_move,
    hurwitz_move_inverse,
    hurwitz_orbit,
    m_equivalence_orbit,
    node_pair_move,
    product,
    simultaneous_conjugation,
)
from surfmoduli.errors import (
    BudgetExceeded,
    CancelMismatch,
    PositionOutOfRange,
    StrandMismatch,
)

W = BraidWord.from_ints
F = Factorization.from_ints

# the orbits of the benchmark's braids workload:
# (strands, factors, budget, full move set)
BENCHMARK_ORBITS = [
    (3, [[1], [1], [2], [2]], 200, False),
    (4, [[1], [2], [3]], 10_000, False),
    (3, [[1], [2], [1], [2]], 10_000, False),
    (3, [[1], [2]], 3000, True),
]


def random_word(rng, strands, max_len=8):
    length = rng.randint(0, max_len)
    return BraidWord(
        strands,
        [
            (rng.randint(1, strands - 1), rng.choice([1, -1]))
            for _ in range(length)
        ],
    )


def random_factorization(rng, strands, max_factors=4, max_len=4):
    k = rng.randint(2, max_factors)
    return Factorization(
        strands, [random_word(rng, strands, max_len) for _ in range(k)]
    )


def node_pair_of(u):
    """The factorization (u s1^2 u^-1, u s1^-2 u^-1)."""
    n, ui = u.strands, u.inverse()
    return Factorization(n, [u * W(n, [1, 1]) * ui, u * W(n, [-1, -1]) * ui])


def factorwise_equal(f, g):
    return len(f) == len(g) and all(
        braid_equal(a, b) for a, b in zip(f.factors, g.factors)
    )


class TestBraidEqual:
    def test_braid_relation_all_n(self):
        for n in range(3, 6):
            for i in range(1, n - 1):
                lhs = BraidWord(n, [(i, 1), (i + 1, 1), (i, 1)])
                rhs = BraidWord(n, [(i + 1, 1), (i, 1), (i + 1, 1)])
                assert braid_equal(lhs, rhs)

    def test_far_commutation_all_n(self):
        for n in range(4, 6):
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    lhs = BraidWord(n, [(i, 1), (j, 1)])
                    rhs = BraidWord(n, [(j, 1), (i, 1)])
                    assert braid_equal(lhs, rhs)

    def test_sigma_vs_inverse_differ(self):
        # faithfulness smoke test
        for n in range(2, 6):
            assert not braid_equal(W(n, [1]), W(n, [-1]))
            assert canonical_key(F(n, [[1]])) != canonical_key(F(n, [[-1]]))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            braid_equal(W(2, [1]), W(3, [1]))

    def test_equivalence_and_congruence_random(self):
        rng = random.Random(12345)
        for _ in range(60):
            n = rng.randint(2, 4)
            u = random_word(rng, n)
            # v: a word equal to u in the group (insert cancelling pair)
            spot = rng.randint(0, len(u.letters))
            i = rng.randint(1, n - 1)
            letters = (
                u.letters[:spot] + ((i, 1), (i, -1)) + u.letters[spot:]
            )
            v = BraidWord(n, letters)
            assert braid_equal(u, v)
            w = random_word(rng, n)
            assert braid_equal(u * w, v * w)
            assert braid_equal(w * u, w * v)

    def test_word_cap(self, monkeypatch):
        # s1^200 in B3 has one simple factor per letter
        w = W(3, [1] * 200)
        monkeypatch.setattr(braids, "WORD_CAP", 200)
        assert canonical_key(F(3, [[1] * 200]))[0] == (0, ((1, 0, 2),) * 200)
        monkeypatch.setattr(braids, "WORD_CAP", 199)
        with pytest.raises(BudgetExceeded):
            braid_equal(w, w)
        # the Delta power is counted: s1^-3 s2^-3 is Delta^-5 times 5 factors
        v = W(3, [-1] * 3 + [-2] * 3)
        k, factors = canonical_key(Factorization(3, [v]))[0]
        assert (k, len(factors)) == (-5, 5)
        monkeypatch.setattr(braids, "WORD_CAP", 10)
        assert braid_equal(v, v)
        monkeypatch.setattr(braids, "WORD_CAP", 9)
        with pytest.raises(BudgetExceeded):
            braid_equal(v, v)

    def test_word_cap_message_names_the_cap_and_how_to_raise_it(self, monkeypatch):
        w = W(3, [1] * 10_001)
        with pytest.raises(
            BudgetExceeded,
            match=r"^normal form exceeded WORD_CAP = 10000 simple factors;"
            r" set surfmoduli\.braids\.WORD_CAP = N to raise it$",
        ):
            braid_equal(w, w)
        w = W(3, [1] * 200)
        monkeypatch.setattr(braids, "WORD_CAP", 199)
        with pytest.raises(
            BudgetExceeded,
            match=r"^normal form exceeded WORD_CAP = 199 simple factors;"
            r" set surfmoduli\.braids\.WORD_CAP = N to raise it$",
        ):
            braid_equal(w, w)

    def test_module_word_cap_is_read_at_call_time(self, monkeypatch):
        # (s1 s2^-1)^6 is Delta^-6 times 12 simple factors
        w = W(3, [1, -2] * 6)
        k, factors = canonical_key(Factorization(3, [w]))[0]
        assert abs(k) + len(factors) == 18
        monkeypatch.setattr(braids, "WORD_CAP", 17)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 17 simple factors"):
            braid_equal(w, w)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 17 simple factors"):
            hurwitz_orbit(Factorization(3, [w, W(3, [1])]), budget=10)
        monkeypatch.setattr(braids, "WORD_CAP", 18)
        assert braid_equal(w, w)
        monkeypatch.setattr(braids, "WORD_CAP", 10**4)
        assert len(hurwitz_orbit(Factorization(3, [w, W(3, [1])]), budget=10)) == 10

    def test_strand_cap_refuses_before_a_factor_is_built(self, monkeypatch):
        n = braids.STRAND_CAP + 1
        w = W(n, [1, n - 1])
        tracemalloc.start()
        try:
            for call in (
                lambda: braid_equal(w, w),
                lambda: canonical_key(Factorization(n, [w])),
                lambda: hurwitz_orbit(Factorization(n, [w, w]), budget=10),
            ):
                with pytest.raises(
                    BudgetExceeded,
                    match=r"^B_1000001 exceeds STRAND_CAP = 1000000 strands;"
                    r" set surfmoduli.braids.STRAND_CAP = N to raise it$",
                ):
                    call()
            # a factor on n strands would take megabytes
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(braids, "STRAND_CAP", 5)
        assert braid_equal(W(5, [1, 2, 1]), W(5, [2, 1, 2]))
        with pytest.raises(BudgetExceeded, match=r"STRAND_CAP = 5 strands"):
            braid_equal(W(6, [1]), W(6, [1]))

    def test_cap_raises_exactly_above_the_factor_count(self, monkeypatch):
        for w in cancelling_corpus(607, 200):
            monkeypatch.setattr(braids, "WORD_CAP", 10**6)
            k, factors = canonical_key(Factorization(w.strands, [w]))[0]
            size = abs(k) + len(factors)
            monkeypatch.setattr(braids, "WORD_CAP", size)
            assert braid_equal(w, w)
            monkeypatch.setattr(braids, "WORD_CAP", size - 1)
            with pytest.raises(BudgetExceeded):
                braid_equal(w, w)

    def test_b30_words_are_compared_without_permutation_tables(self):
        # nothing of size 30! may be built: 40-letter words in B_30 and an
        # equal variant with relators spliced in compare at once
        rng = random.Random(30)
        w = BraidWord(30, [(rng.randint(1, 29), rng.choice((1, -1))) for _ in range(40)])
        v = equal_variant(rng, w)
        u = BraidWord(30, w.letters[:-1] + ((w.letters[-1][0], -w.letters[-1][1]),))
        started = time.perf_counter()
        assert braid_equal(w, v)
        assert not braid_equal(w, u)
        assert time.perf_counter() - started < 0.5
        # the oracle agrees that the variant is the same braid
        assert artin_images(30, w.letters) == artin_images(30, v.letters)


def equal_variant(rng, w):
    """A word equal to ``w`` in the braid group: a cancelling pair, a braid
    relator or a far-commutation relator, conjugated by a random word,
    spliced in at a random place."""
    n = w.strands
    i = rng.randint(1, n - 1)
    e = rng.choice((1, -1))
    kinds = [((i, e), (i, -e))]
    if i + 1 < n:
        # s_i s_{i+1} s_i (s_{i+1} s_i s_{i+1})^-1
        kinds.append(((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)))
    if i + 2 < n:
        j = rng.randint(i + 2, n - 1)
        kinds.append(((i, e), (j, 1), (i, -e), (j, -1)))
    relator = rng.choice(kinds)
    u = random_word(rng, n, max_len=3).letters
    spot = rng.randint(0, len(w.letters))
    inner = u + relator + BraidWord(n, u).inverse().letters
    return BraidWord(n, w.letters[:spot] + inner + w.letters[spot:])


def cancelling_corpus(seed, count):
    """Seeded B2-B5 words: plain words, conjugates u w u^-1, and words
    followed by their own inverse, whose images cancel heavily."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.choice((2, 3, 4, 5))
        w = random_word(rng, n, max_len=10)
        if k % 3 == 1:
            u = random_word(rng, n, max_len=8)
            w = u * w * u.inverse()
        elif k % 3 == 2:
            w = w * random_word(rng, n, max_len=4) * w.inverse()
        out.append(w)
    return out


class TestArtinAction:
    """Normal-form equality against the free-group action of conftest."""

    def test_matches_letter_by_letter_reference(self):
        rng = random.Random(606)
        equal = unequal = 0
        for w in cancelling_corpus(606, 300):
            n = w.strands
            for v in (equal_variant(rng, w), random_word(rng, n, max_len=10), w * W(n, [1])):
                want = artin_images(n, w.letters) == artin_images(n, v.letters)
                assert braid_equal(w, v) is want, (w, v)
                equal += want
                unequal += not want
        # both answers occur often, and the equal pairs are not literal copies
        assert equal >= 300 and unequal >= 300

    def test_delta_path_matches_the_artin_action(self):
        # products and conjugates w v w^-1 of up to 40 mixed-sign letters
        # free many Deltas, at the right end of a left-weighting pass and
        # deeper in it; the forms multiplied must be the forms of the
        # concatenations
        rng = random.Random(4040)
        equal = unequal = 0
        for _ in range(200):
            n = rng.choice((2, 3, 4, 5, 7))
            w, v = random_word(rng, n, max_len=10), random_word(rng, n, max_len=20)
            wv, conj = w * v, w * v * w.inverse()
            algebra = braids._LeftNormalForms(n)
            fw, fv = braids._normal_form(w), braids._normal_form(v)
            assert algebra.mul(fw, fv) == braids._normal_form(wv)
            assert algebra.mul(algebra.mul(fw, fv), algebra.inv(fw)) == braids._normal_form(conj)
            for x, y in ((wv, v), (conj, v), (conj, wv), (wv, equal_variant(rng, wv)),
                         (conj, equal_variant(rng, conj))):
                want = artin_images(n, x.letters) == artin_images(n, y.letters)
                assert braid_equal(x, y) is want, (x, y)
                equal += want
                unequal += not want
        assert equal >= 400 and unequal >= 400


class TestValidation:
    def test_public_construction_is_checked(self):
        with pytest.raises(ValueError):
            BraidWord(3, [(3, 1)])
        with pytest.raises(ValueError):
            BraidWord(3, [(1, 2)])
        with pytest.raises(ValueError):
            W(3, [0])
        with pytest.raises(ValueError, match="at least 2 strands"):
            BraidWord(1, ())

    def test_strand_counts_must_agree(self):
        f3 = F(3, [[1], [2]])
        with pytest.raises(StrandMismatch, match=r"B_3 vs B_4"):
            W(3, [1]) * W(4, [1])
        with pytest.raises(StrandMismatch, match="factor on 4 strands in a B_3"):
            Factorization(3, [W(3, [1]), W(4, [1])])
        with pytest.raises(StrandMismatch, match=r"B_4 vs B_3"):
            simultaneous_conjugation(f3, W(4, [1]))
        with pytest.raises(StrandMismatch, match=r"B_4 vs B_3"):
            node_pair_move(f3, 1, W(4, []), "create")

    def test_unknown_node_pair_direction_is_refused(self):
        with pytest.raises(ValueError, match="unknown direction 'swap'"):
            node_pair_move(F(3, [[1], [2]]), 1, W(3, []), "swap")

    def test_orbit_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            hurwitz_orbit(F(3, [[1], [2]]), budget=0)


class TestProduct:
    def test_empty_is_identity(self):
        f = Factorization(3, [])
        assert braid_equal(product(f), BraidWord.identity(3))

    def test_cancelling_pair(self):
        f = Factorization.from_ints(2, [[1], [-1]])
        assert braid_equal(product(f), BraidWord.identity(2))

    def test_concatenation(self):
        f = Factorization.from_ints(3, [[1], [2]])
        assert product(f).to_ints() == [1, 2]


class TestHurwitzMoves:
    def test_definition(self):
        f = Factorization.from_ints(3, [[1], [2]])
        assert hurwitz_move(f, 1).to_ints() == [[1, 2, -1], [1]]

    def test_identical_commuting_factors(self):
        f = Factorization.from_ints(2, [[1], [1]])
        assert factorwise_equal(hurwitz_move(f, 1), f)

    def test_move_inverse_round_trip(self):
        f = Factorization.from_ints(3, [[1, 2, -1], [1]])
        assert factorwise_equal(hurwitz_move_inverse(f, 1),
                                Factorization.from_ints(3, [[1], [2]]))

    def test_position_out_of_range(self):
        f = Factorization(3, [])
        with pytest.raises(PositionOutOfRange):
            hurwitz_move_inverse(f, 1)
        f2 = Factorization.from_ints(3, [[1], [2]])
        with pytest.raises(PositionOutOfRange):
            hurwitz_move(f2, 2)

    def test_random_corpus_round_trips_and_products(self):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(2, 4)
            f = random_factorization(rng, n)
            i = rng.randint(1, len(f) - 1)
            moved = hurwitz_move(f, i)
            assert factorwise_equal(hurwitz_move_inverse(moved, i), f)
            assert factorwise_equal(hurwitz_move(hurwitz_move_inverse(f, i), i), f)
            assert braid_equal(product(moved), product(f))

    def test_canonical_forms_compose_to_identity(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_factorization(rng, 3)
            i = rng.randint(1, len(f) - 1)
            back = hurwitz_move_inverse(hurwitz_move(f, i), i)
            assert canonical_key(back) == canonical_key(f)


class TestSimultaneousConjugation:
    def test_identity_conjugator(self):
        f = Factorization.from_ints(3, [[1], [2]])
        assert simultaneous_conjugation(f, BraidWord.identity(3)) == f

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(15):
            f = random_factorization(rng, 3)
            w = random_word(rng, 3, 4)
            back = simultaneous_conjugation(
                simultaneous_conjugation(f, w), w.inverse()
            )
            assert factorwise_equal(back, f)

    def test_product_conjugated(self):
        rng = random.Random(6)
        for _ in range(15):
            f = random_factorization(rng, 3)
            w = random_word(rng, 3, 4)
            lhs = product(simultaneous_conjugation(f, w))
            rhs = w * product(f) * w.inverse()
            assert braid_equal(lhs, rhs)


class TestNodePairs:
    def test_create_cancel_round_trip(self):
        f = Factorization.from_ints(3, [[1], [2]])
        for i in (1, 2, 3):
            made = node_pair_move(f, i, BraidWord.identity(3), "create")
            assert len(made) == 4
            back = node_pair_move(made, i, BraidWord.identity(3), "cancel")
            assert back == f

    def test_product_invariance_random_conjugators(self):
        rng = random.Random(8)
        f = Factorization.from_ints(3, [[1], [2]])
        for _ in range(20):
            u = random_word(rng, 3, 4)
            made = node_pair_move(f, 2, u, "create")
            assert braid_equal(product(made), product(f))

    def test_cancel_wrong_signs(self):
        f = Factorization.from_ints(2, [[1, 1], [1, 1]])
        with pytest.raises(CancelMismatch):
            node_pair_move(f, 1, BraidWord.identity(2), "cancel")

    def test_cancel_check_reads_the_word_cap(self, monkeypatch):
        # the node pair of u = (s1 s2^-1)^2 has 13 and 14 simple factors
        monkeypatch.setattr(braids, "WORD_CAP", 12)
        f = node_pair_of(W(3, [1, -2, 1, -2]))
        e = BraidWord.identity(3)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 12 simple factors"):
            node_pair_move(f, 1, e, "cancel")
        monkeypatch.setattr(braids, "WORD_CAP", 10**4)
        with pytest.raises(CancelMismatch):
            node_pair_move(f, 1, e, "cancel")


class TestOrbits:
    def test_sigma1_sigma1_in_b2(self):
        f = Factorization.from_ints(2, [[1], [1]])
        orbit = hurwitz_orbit(f, budget=100)
        assert len(orbit) == 1 and orbit.exhausted

    def test_sigma1_sigma2_orbit_size_pinned(self):
        # pinned by the breadth-first oracle: exactly these three states
        #   (s1, s2), (s1 s2 s1^-1, s1), (s2, s2^-1 s1 s2)
        f = Factorization.from_ints(3, [[1], [2]])
        orbit = hurwitz_orbit(f, budget=100)
        assert len(orbit) == 3 and orbit.exhausted
        keys = set(orbit.keys)
        for states in (
            [[1], [2]],
            [[1, 2, -1], [1]],
            [[2], [-2, 1, 2]],
        ):
            g = Factorization.from_ints(3, states)
            assert canonical_key(g) in keys

    def test_budget_one(self):
        f = Factorization.from_ints(3, [[1], [2]])
        orbit = hurwitz_orbit(f, budget=1)
        assert len(orbit) == 1 and not orbit.exhausted
        trivial = Factorization.from_ints(2, [[1], [1]])
        orbit2 = hurwitz_orbit(trivial, budget=1)
        assert len(orbit2) == 1 and orbit2.exhausted

    def test_independent_of_move_order(self, monkeypatch):
        forward, calls = braids._hurwitz_moves, []

        def reversed_moves(cur, forms):
            calls.append(cur)
            return forward(cur, forms)[::-1]

        for states in ([[1], [2]], [[1], [2], [1]], [[1, 1], [2]]):
            f = Factorization.from_ints(3, states)
            fwd = hurwitz_orbit(f, budget=500)
            with monkeypatch.context() as m:
                m.setattr(braids, "_hurwitz_moves", reversed_moves)
                rev = hurwitz_orbit(f, budget=500)
            assert fwd.keys == rev.keys
        assert calls

    def test_m_equivalence_orbit_reads_the_word_cap_in_cancellation(self, monkeypatch):
        monkeypatch.setattr(braids, "WORD_CAP", 12)
        f = node_pair_of(W(3, [1, -2, 1, -2]))
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 12 "):
            m_equivalence_orbit(f, budget=5)
        monkeypatch.setattr(braids, "WORD_CAP", 10**4)
        orbit = m_equivalence_orbit(f, budget=5)
        assert len(orbit) == 5

    def test_m_equivalence_orbit_bounded(self):
        f = Factorization.from_ints(2, [[1]])
        orbit = m_equivalence_orbit(f, budget=10, conjugator_cap=1)
        assert len(orbit) == 10 and not orbit.exhausted

    def test_node_pair_cap_refuses_before_a_pair_is_built(self, monkeypatch):
        # B3 has 4 generators: conjugators of length <= 3 give 1 + 4 + 16 + 64 pairs
        def no_pairs(*args):
            raise AssertionError("a level of node pairs was built")

        f = F(3, [[1], [2]])
        with monkeypatch.context() as m:
            m.setattr(braids, "NODE_PAIR_CAP", 84)
            m.setattr(braids, "_conjugate", no_pairs)
            with pytest.raises(
                BudgetExceeded,
                match=r"^conjugator_cap = 3 on B_3 needs more than NODE_PAIR_CAP = 84"
                r" node pairs; set surfmoduli\.braids\.NODE_PAIR_CAP = N to raise it$",
            ):
                m_equivalence_orbit(f, budget=5, conjugator_cap=3)
        monkeypatch.setattr(braids, "NODE_PAIR_CAP", 85)
        assert len(m_equivalence_orbit(f, budget=5, conjugator_cap=3)) == 5

    def test_a_hurwitz_move_frees_each_delta_in_constant_work(self, monkeypatch):
        # the longest adjacent factors of the budget-600 orbit, each about
        # 90 simple factors with the Delta power; carrying each freed Delta
        # to the front of the form took 1881 left-weightings
        orbit = hurwitz_orbit(F(3, [[1], [1], [2], [2]]), budget=600)

        def size(form):
            return abs(form[0]) + len(form[1])

        key = max(orbit.keys, key=lambda key: max(map(size, key)))
        i = max(range(1, len(key)), key=lambda i: size(key[i - 1]) + size(key[i]))
        a, b = key[i - 1], key[i]
        weight, calls = braids._LeftNormalForms._weight, []

        def counted(self, x, y):
            calls.append((x, y))
            return weight(self, x, y)

        monkeypatch.setattr(braids._LeftNormalForms, "_weight", counted)
        algebra = braids._LeftNormalForms(3)
        moved = braids._hurwitz((a, b), 1, algebra.mul, algebra.inv)
        assert size(a) + size(b) > 150
        assert len(calls) <= 2 * (size(a) + size(b))
        assert moved[1] == a

    @pytest.mark.parametrize("strands, factors, budget, full_moves", BENCHMARK_ORBITS)
    def test_benchmark_orbits_match_the_oracle(self, strands, factors, budget, full_moves):
        f = F(strands, factors)
        if full_moves:
            orbit = m_equivalence_orbit(f, budget=budget)
        else:
            orbit = hurwitz_orbit(f, budget=budget)
        want, exhausted = naive_orbit(strands, factors, budget, full_moves)
        got = {
            tuple(artin_images(strands, w.letters) for w in g.factors)
            for g in orbit.factorizations
        }
        assert got == want
        assert len(orbit) == len(want) and orbit.exhausted is exhausted

    def test_cap_2_m_orbit_matches_the_oracle(self):
        # the node pairs of length-2 conjugators are built by conjugating
        # those of length 1; the oracle spells every conjugator out
        orbit = m_equivalence_orbit(F(3, [[1], [2]]), budget=300, conjugator_cap=2)
        want, exhausted = naive_orbit(3, [[1], [2]], 300, full_moves=True, conjugator_cap=2)
        got = {
            tuple(artin_images(3, w.letters) for w in g.factors)
            for g in orbit.factorizations
        }
        assert got == want
        assert len(orbit) == len(want) and orbit.exhausted is exhausted

    def test_b3_orbit_passes_budget_500_under_the_default_cap(self):
        orbit = hurwitz_orbit(F(3, [[1], [1], [2], [2]]), budget=500)
        assert len(orbit) == 500 and not orbit.exhausted

    @pytest.mark.parametrize(
        "strands, factors, budget, full_moves, cap",
        [case + (1,) for case in BENCHMARK_ORBITS] + [(3, [[1], [2]], 300, True, 2)],
    )
    def test_representatives_are_spelled_from_their_keys(
        self, strands, factors, budget, full_moves, cap
    ):
        f = F(strands, factors)
        if full_moves:
            orbit = m_equivalence_orbit(f, budget=budget, conjugator_cap=cap)
        else:
            orbit = hurwitz_orbit(f, budget=budget)
        # each representative reads back as its key, in sorted order
        got = [canonical_key(g) for g in orbit.factorizations]
        assert orbit.keys == got == sorted(got)
        words = {}
        for key, g in zip(orbit.keys, orbit.factorizations):
            built = Factorization(strands, g.factors)
            assert g == built and hash(g) == hash(built)
            for form, w in zip(key, g.factors):
                # one shared word per distinct normal form
                assert words.setdefault(form, w) is w

    def test_negative_delta_power_is_absorbed_into_the_factors(self):
        # s1 s2 s1^-1 is Delta^-1 A1 A2, spelled as (A1^-1 Delta)^-1 A2
        orbit = hurwitz_orbit(F(3, [[1], [2]]), budget=10)
        lengths = sorted(len(w) for g in orbit.factorizations for w in g.factors)
        assert lengths == [1, 1, 1, 1, 3, 3]
