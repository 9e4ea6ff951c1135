"""Braid word problem, factorization moves, orbit enumeration."""

import random

import pytest

from surfmoduli import braids
from surfmoduli.braids import (
    BraidWord,
    Factorization,
    artin_images,
    braid_equal,
    canonical_key,
    free_inv,
    free_mul,
    free_reduce,
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


class TestFreeWords:
    def test_reduction(self):
        assert free_reduce([(1, 1), (1, -1)]) == ()
        assert free_reduce([(1, 1), (2, 1), (2, -1), (1, 1)]) == ((1, 1), (1, 1))

    def test_mul_inv(self):
        w = ((1, 1), (2, -1))
        assert free_mul(w, free_inv(w)) == ()


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
            assert artin_images(W(n, [1])) != artin_images(W(n, [-1]))

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

    def test_word_cap(self):
        # powers of s1 s2^-1 have exponentially growing images
        w = W(3, [1, -2] * 20)
        with pytest.raises(BudgetExceeded):
            artin_images(w, cap=100)

    def test_word_cap_message_names_the_cap_and_how_to_raise_it(self):
        w = W(3, [1, -2] * 20)
        with pytest.raises(BudgetExceeded, match=r"exceeded cap = 100 letters; pass cap=N "):
            artin_images(w, cap=100)
        with pytest.raises(BudgetExceeded, match=r"exceeded WORD_CAP = 10000 letters; pass cap=N "):
            artin_images(w)

    def test_module_word_cap_is_read_at_call_time(self, monkeypatch):
        w = W(3, [1, -2] * 6)
        images = artin_images(w)
        assert max(len(x) for x in images) == 465
        monkeypatch.setattr(braids, "WORD_CAP", 100)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 100 letters"):
            artin_images(w)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 100 letters"):
            hurwitz_orbit(Factorization(3, [w, W(3, [1])]), budget=10)
        assert artin_images(w, cap=465) == images


def reference_images(word, cap):
    """Artin images letter by letter, each product reduced from scratch by
    free_reduce; None when some image passes ``cap`` after some letter."""
    def inv(u):
        return tuple((g, -e) for g, e in reversed(u))

    images = [((j, 1),) for j in range(1, word.strands + 1)]
    for i, s in word.letters:
        a, b = images[i - 1], images[i]
        if s == 1:
            images[i - 1], images[i] = free_reduce(a + b + inv(a)), a
        else:
            images[i - 1], images[i] = b, free_reduce(inv(b) + a + b)
        if len(images[i - 1]) > cap or len(images[i]) > cap:
            return None
    return tuple(images)


def cancelling_corpus(seed, count):
    """Seeded B3/B4 words: plain words, conjugates u w u^-1, and words
    followed by their own inverse, whose images cancel heavily."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.choice((3, 4))
        w = random_word(rng, n, max_len=10)
        if k % 3 == 1:
            u = random_word(rng, n, max_len=8)
            w = u * w * u.inverse()
        elif k % 3 == 2:
            w = w * random_word(rng, n, max_len=4) * w.inverse()
        out.append(w)
    return out


class TestArtinAction:
    def test_matches_letter_by_letter_reference(self):
        corpus = cancelling_corpus(606, 300)
        longest = 0
        for w in corpus:
            want = reference_images(w, cap=10**9)
            assert artin_images(w) == want, w
            longest = max(longest, max(len(x) for x in want))
        # the corpus reaches long images, not only short ones
        assert longest > 200

    def test_cap_raises_on_the_same_inputs_as_the_reference(self):
        corpus = cancelling_corpus(607, 200)
        raised = 0
        for w in corpus:
            for cap in (8, 40):
                want = reference_images(w, cap)
                if want is None:
                    raised += 1
                    with pytest.raises(BudgetExceeded):
                        artin_images(w, cap=cap)
                else:
                    assert artin_images(w, cap=cap) == want
        assert 0 < raised < 2 * len(corpus)


class TestValidation:
    def test_public_construction_is_checked(self):
        with pytest.raises(ValueError):
            BraidWord(3, [(3, 1)])
        with pytest.raises(ValueError):
            BraidWord(3, [(1, 2)])
        with pytest.raises(ValueError):
            W(3, [0])


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

    def test_cancel_check_takes_the_cap(self, monkeypatch):
        # the images of the node pair of u = (s1 s2^-1)^2 pass 20 letters
        monkeypatch.setattr(braids, "WORD_CAP", 20)
        f = node_pair_of(W(3, [1, -2, 1, -2]))
        e = BraidWord.identity(3)
        with pytest.raises(BudgetExceeded, match=r"WORD_CAP = 20 letters"):
            node_pair_move(f, 1, e, "cancel")
        with pytest.raises(CancelMismatch):
            node_pair_move(f, 1, e, "cancel", cap=10**4)


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

    def test_independent_of_move_order(self):
        for states in ([[1], [2]], [[1], [2], [1]], [[1, 1], [2]]):
            f = Factorization.from_ints(3, states)
            fwd = hurwitz_orbit(f, budget=500)
            rev = hurwitz_orbit(f, budget=500, reverse_moves=True)
            assert fwd.keys == rev.keys

    def test_m_equivalence_orbit_passes_its_cap_to_cancellation(self, monkeypatch):
        monkeypatch.setattr(braids, "WORD_CAP", 20)
        f = node_pair_of(W(3, [1, -2, 1, -2]))
        orbit = m_equivalence_orbit(f, budget=5, cap=10**4)
        assert len(orbit) == 5

    def test_m_equivalence_orbit_bounded(self):
        f = Factorization.from_ints(2, [[1]])
        orbit = m_equivalence_orbit(f, budget=10, conjugator_cap=1)
        assert len(orbit) == 10 and not orbit.exhausted
