"""Triangle-curve combinatorics: genus, enumeration, stabilizer sets,
marked and unmarked equivalence."""

import random
import time
from fractions import Fraction

import pytest
from conftest import (
    heisenberg_mod5,
    naive_genus,
    naive_sigma,
    naive_triples,
    verdict_relabelled_a6,
)

from surfmoduli import catalog
from surfmoduli.beauville import search
from surfmoduli.errors import GroupMismatch
from surfmoduli.groups import GroupMap, PermGroup, Permutation
from surfmoduli.triangles import (
    SphericalTriple,
    TripleType,
    _hyperbolic_orders,
    _orbit_candidates,
    branch_permutation_orbit,
    enumerate_triples,
    genus,
    is_hyperbolic,
    sigma_class_indices,
    sigma_set,
    triples_equivalent,
)


def first_triple_of_type(G, orders):
    ts = enumerate_triples(G, triple_type=TripleType(*orders))
    assert ts
    return ts[0]


class TestConstruction:
    def test_validates_product(self, small_catalog):
        G = small_catalog["S3"]
        a = Permutation.from_cycles(3, [1, 2])
        with pytest.raises(ValueError, match=r"^a \* b \* c is not the identity$"):
            SphericalTriple(G, a, a, a)

    def test_validates_membership(self, small_catalog):
        G = small_catalog["A4"]
        a = Permutation.from_cycles(4, [1, 2])  # odd, so not in A4
        b = Permutation.from_cycles(4, [1, 2, 3])
        with pytest.raises(ValueError, match=r"^\(1 2\) is not an element of <A4: degree 4"):
            SphericalTriple(G, b, a, (b * a).inverse())

    def test_branching_orders_must_be_positive(self):
        with pytest.raises(ValueError, match="branching orders must be positive"):
            TripleType(0, 2, 3)

    def test_validates_generation(self, small_catalog):
        G = small_catalog["S4"]
        a = Permutation.from_cycles(4, [1, 2], [3, 4])
        b = Permutation.from_cycles(4, [1, 3], [2, 4])
        c = (a * b).inverse()
        with pytest.raises(ValueError, match=r"^the pair \(a, b\) does not generate the group$"):
            SphericalTriple(G, a, b, c)


class TestGenus:
    def test_ea5x5_type_555_genus_6(self, small_catalog):
        t = first_triple_of_type(small_catalog["EA5x5"], (5, 5, 5))
        # 2g - 2 = 25 * (-2 + 3 * 4/5) = 10
        assert genus(t) == 6

    def test_s3_type_223_genus_0(self, small_catalog):
        G = small_catalog["S3"]
        a = Permutation.from_cycles(3, [1, 2])
        b = Permutation.from_cycles(3, [2, 3])
        t = SphericalTriple(G, a, b, (a * b).inverse())
        assert t.triple_type == TripleType(2, 2, 3)
        # 2g - 2 = 6 * (-2 + 1/2 + 1/2 + 2/3) = -2
        assert genus(t) == 0

    def test_trivial_group(self):
        G = catalog.cyclic(1)
        e = G.identity
        t = SphericalTriple(G, e, e, e)
        assert genus(t) == 0
        assert not is_hyperbolic(t)

    def test_matches_naive_formula_everywhere(self, small_catalog):
        for name in ("S4", "A4", "D5"):
            G = small_catalog[name]
            for t in enumerate_triples(G):
                assert genus(t) == naive_genus(G, (t.a, t.b, t.c))

    def test_hyperbolic_iff_rhs_at_least_2(self, small_catalog):
        # exact equivalence: g >= 2  <=>  |G| * (sum(1 - 1/m_i) - 2) >= 2
        for name in ("S4", "A5", "EA5x5", "C6"):
            G = small_catalog[name]
            for t in enumerate_triples(G):
                n = G.order
                rhs = -2 * n + sum(
                    n - n // G.element_order(x) for x in (t.a, t.b, t.c)
                )
                assert is_hyperbolic(t) == (rhs >= 2)

    def test_order_predicate_is_the_reciprocal_sum_test(self):
        # valid for any three orders, generating or not, unlike the genus
        for m1 in range(1, 61):
            for m2 in range(1, 61):
                for m3 in range(1, 61):
                    expected = Fraction(1, m1) + Fraction(1, m2) + Fraction(1, m3) < 1
                    assert _hyperbolic_orders(m1, m2, m3) == expected, (m1, m2, m3)


class TestEnumeration:
    def test_c2_has_exactly_three_triples(self, small_catalog):
        G = small_catalog["C2"]
        x = Permutation.from_cycles(2, [1, 2])
        e = Permutation.identity(2)
        got = {(t.a, t.b, t.c) for t in enumerate_triples(G)}
        assert got == {(x, x, e), (x, e, x), (e, x, x)}

    def test_ea5x5_555_nonempty(self, small_catalog):
        assert enumerate_triples(
            small_catalog["EA5x5"], triple_type=TripleType(5, 5, 5)
        )

    def test_s3_has_no_222(self, small_catalog):
        assert (
            enumerate_triples(small_catalog["S3"], triple_type=TripleType(2, 2, 2))
            == []
        )

    def test_agrees_with_naive_double_loop(self, small_catalog):
        # C3xS3 and D6 have a centre of order 3 and 2: central first entries
        # other than the identity, and a proper centre transversal
        for name in ("C6", "S3", "A4", "S4", "D4", "EA3x3", "EA5x5", "C3xS3", "D6"):
            G = small_catalog.get(name) or catalog.builtin(name)
            # the documented order: class of a, then index of a, then of b
            oracle = sorted(
                naive_triples(G),
                key=lambda t: (
                    G.class_index_of(t[0]), G.index_of(t[0]), G.index_of(t[1])
                ),
            )
            got = [(t.a, t.b, t.c) for t in enumerate_triples(G)]
            assert got == oracle, name

    @pytest.mark.parametrize(
        "name", ["S5", "PSL2_7", "A6", "relabelled A6", "Heis5", "EA7x7", "C3xS3"]
    )
    def test_hyperbolic_listing_strictly_increases_in_the_documented_order(self, name):
        # beauville.search bisects on this order: each class representative's
        # triples, and each first entry's block, are one run of the listing
        G = {"relabelled A6": verdict_relabelled_a6, "Heis5": heisenberg_mod5}.get(
            name, lambda: catalog.builtin(name)
        )()
        keys = [(G._class_of[t.ia], t.ia, t.ib) for t in enumerate_triples(G, hyperbolic_only=True)]
        assert keys
        assert all(x < y for x, y in zip(keys, keys[1:]))

    def test_deterministic_order(self, small_catalog):
        G = small_catalog["S4"]
        first = [t.key() for t in enumerate_triples(G)]
        second = [t.key() for t in enumerate_triples(G)]
        assert first == second

    def test_type_filter(self, small_catalog):
        G = small_catalog["S4"]
        for t in enumerate_triples(G, triple_type=TripleType(2, 3, 4)):
            assert t.triple_type == TripleType(2, 3, 4)

    def test_hyperbolic_only_flag(self, small_catalog):
        G = small_catalog["A5"]
        hyp = enumerate_triples(G, hyperbolic_only=True)
        assert hyp
        assert all(is_hyperbolic(t) for t in hyp)
        assert len(hyp) < len(enumerate_triples(G))


class TestSigma:
    def test_trivial_group(self):
        G = catalog.cyclic(1)
        e = G.identity
        assert sigma_set(SphericalTriple(G, e, e, e)) == {e}

    def test_ea5x5_sigma_has_13_elements(self, small_catalog):
        t = first_triple_of_type(small_catalog["EA5x5"], (5, 5, 5))
        assert len(sigma_set(t)) == 13

    def test_cyclic_sigma_is_whole_group(self, small_catalog):
        G = small_catalog["C6"]
        for t in enumerate_triples(G):
            if G.element_order(t.a) == 6:
                assert sigma_set(t) == set(G.elements)
                break
        else:
            pytest.fail("no triple with a of full order")

    def test_matches_naive_sigma(self, small_catalog):
        for name in ("S4", "D5", "EA3x3"):
            G = small_catalog[name]
            for t in enumerate_triples(G)[:40]:
                assert sigma_set(t) == naive_sigma(G, (t.a, t.b, t.c))

    def test_class_mask_expands_to_naive_sigma(self, small_catalog):
        for name in ("S4", "D5", "EA3x3", "C12"):
            G = small_catalog[name]
            classes = G.conjugacy_classes()
            for t in enumerate_triples(G)[:40]:
                mask = sigma_class_indices(t)
                assert mask & 1
                expanded = set()
                for i, cls in enumerate(classes):
                    if mask >> i & 1:
                        expanded |= cls.elements
                assert expanded == naive_sigma(G, (t.a, t.b, t.c))

    def test_closed_under_conjugation_and_inversion(self, small_catalog):
        G = small_catalog["S4"]
        t = enumerate_triples(G)[0]
        sig = sigma_set(t)
        assert G.identity in sig
        for g in sig:
            assert g.inverse() in sig
            for h in G.generators:
                assert g.conjugated_by(h) in sig


class TestEquivalence:
    def test_conjugate_is_marked_equivalent(self, small_catalog):
        G = small_catalog["S4"]
        t = enumerate_triples(G, hyperbolic_only=True)[0]
        for h in list(G.elements)[:8]:
            assert triples_equivalent(t, t.conjugated_by(h), mode="marked")

    @pytest.mark.parametrize("name", ["D4", "S4", "A4", "D6", "S3xC3", "C12", "EA3x3"])
    def test_marked_matches_conjugation_by_every_element(self, name):
        G = catalog.builtin(name)  # D4, D6 and S3xC3 have a nontrivial centre
        triples = enumerate_triples(G)
        for t1 in triples:
            conjugates = {t1.conjugated_by(h) for h in G.elements}
            for t2 in triples:
                assert triples_equivalent(t1, t2, mode="marked") == (t2 in conjugates)

    @pytest.mark.parametrize(
        "name",
        ["S4", "D4", "A4", "D6", "S3xC3", "EA3x3", "EA5x5", "A5", "PSL2_7", "A6", "S6",
         "A4xS3"],
    )
    def test_unmarked_matches_a_scan_of_every_automorphism(self, name, monkeypatch):
        # A6 and S6 have outer automorphisms that swap classes of equal
        # element order and class size; A4xS3 has generating triples alike
        # in their entries' orders but not in their class sizes
        G = catalog.builtin(name)
        auts = G.automorphisms()
        kind = {}  # element -> (order, class size), by brute-force conjugation
        for x in G.elements:
            if x not in kind:
                cls = {x.conjugated_by(h) for h in G.elements}
                kind.update(dict.fromkeys(cls, (x.order(), len(cls))))
        order = {x: k[0] for x, k in kind.items()}
        walks = []
        extend = PermGroup._extend
        monkeypatch.setattr(
            PermGroup, "_extend", lambda *args: walks.append(1) or extend(*args)
        )
        rng = random.Random(name)
        triples = []
        while len(triples) < 12:
            a, b = rng.choice(G.elements), rng.choice(G.elements)
            if G.generates_pair(a, b):
                triples.append(SphericalTriple(G, a, b, (a * b).inverse()))
        decided = {"reject": 0, "walk": 0, "equivalent": 0}
        for i in range(120):
            t1 = rng.choice(triples)
            if i % 4 == 1:  # an automorphic image, now and then conjugated too
                phi = rng.choice(auts)
                a, b = phi(t1.a), phi(t1.b)
                t2 = SphericalTriple(G, a, b, (a * b).inverse())
                if rng.random() < 0.5:
                    t2 = t2.conjugated_by(rng.choice(G.elements))
            elif i % 4 > 1:  # entries alike t1's in order and class size, or in order
                like = kind if i % 4 == 2 else order
                alike_a = [x for x in G.elements if like[x] == like[t1.a]]
                alike_b = [x for x in G.elements if like[x] == like[t1.b]]
                while True:
                    a, b = rng.choice(alike_a), rng.choice(alike_b)
                    c = (a * b).inverse()
                    if like[c] == like[t1.c] and G.generates_pair(a, b):
                        break
                t2 = SphericalTriple(G, a, b, c)
            else:
                t2 = rng.choice(triples)
            expected = any(phi(t1.a) == t2.a and phi(t1.b) == t2.b for phi in auts)
            pairs = ((t1.a, t2.a), (t1.b, t2.b), (t1.c, t2.c))
            agree = all(kind[x] == kind[y] for x, y in pairs)
            walks.clear()
            assert triples_equivalent(t1, t2, mode="unmarked") == expected
            # the walk runs exactly when every entry pair agrees in order and class size
            assert bool(walks) == agree
            decided["equivalent"] += expected
            decided["reject"] += not agree
            decided["walk"] += agree and not expected
        assert decided["equivalent"] >= 30
        if name in ("A5", "PSL2_7", "A6", "S6"):  # each decision path answers some pairs
            assert decided["reject"] > 0 and decided["walk"] > 0

    def test_neither_mode_needs_the_automorphism_group(self, monkeypatch):
        def refuse(self):
            raise AssertionError("automorphisms() called")

        monkeypatch.setattr(PermGroup, "automorphisms", refuse)
        G = catalog.builtin("S4")
        t = enumerate_triples(G, hyperbolic_only=True)[0]
        u = t.conjugated_by(G.generators[0])
        assert triples_equivalent(t, u, mode="marked")
        assert triples_equivalent(t, u, mode="unmarked")
        G = catalog.builtin("EA5x5")
        x, y = G.generators
        t1 = SphericalTriple(G, x, y, (x * y).inverse())
        t2 = SphericalTriple(G, y, x, (y * x).inverse())
        assert triples_equivalent(t1, t2, mode="unmarked")
        assert not triples_equivalent(t1, t2, mode="marked")

    def test_listing_flag_ignores_the_automorphism_bound(self, monkeypatch):
        monkeypatch.setattr("surfmoduli.groups.AUT_BOUND", 20)
        structure = search(catalog.builtin("EA5x5"), stop_at_first=True)[0]
        assert structure.as_dict()["triples_unmarked_equivalent"] is True

    def test_abelian_swap_is_unmarked_only(self, small_catalog):
        G = small_catalog["EA5x5"]
        x = G.generators[0]
        y = G.generators[1]
        t1 = SphericalTriple(G, x, y, (x * y).inverse())
        t2 = SphericalTriple(G, y, x, (y * x).inverse())
        assert triples_equivalent(t1, t2, mode="unmarked")
        assert not triples_equivalent(t1, t2, mode="marked")

    def test_different_types_never_equivalent(self, small_catalog):
        G = small_catalog["S4"]
        ts = enumerate_triples(G)
        t234 = next(t for t in ts if t.triple_type == TripleType(2, 3, 4))
        t344 = next(t for t in ts if t.triple_type == TripleType(3, 4, 4))
        assert not triples_equivalent(t234, t344, mode="marked")
        assert not triples_equivalent(t234, t344, mode="unmarked")

    def test_unknown_mode_is_refused_whatever_the_types(self, small_catalog):
        G = small_catalog["S4"]
        ts = enumerate_triples(G)
        t234 = next(t for t in ts if t.triple_type == TripleType(2, 3, 4))
        t344 = next(t for t in ts if t.triple_type == TripleType(3, 4, 4))
        for t2 in (t234.conjugated_by(G.generators[0]), t344):
            with pytest.raises(ValueError, match="unknown mode 'bogus'"):
                triples_equivalent(t234, t2, mode="bogus")

    def test_group_mismatch(self, small_catalog):
        t1 = enumerate_triples(small_catalog["S4"])[0]
        t2 = enumerate_triples(small_catalog["A4"])[0]
        with pytest.raises(GroupMismatch):
            triples_equivalent(t1, t2)

    def test_genus_invariant_under_equivalence(self, small_catalog):
        G = small_catalog["S4"]
        ts = enumerate_triples(G, hyperbolic_only=True)
        base = ts[0]
        for t in ts:
            if triples_equivalent(base, t, mode="unmarked"):
                assert genus(t) == genus(base)


def test_branch_permutation_orbit_members_are_valid(small_catalog):
    G = small_catalog["S4"]
    t = enumerate_triples(G, hyperbolic_only=True)[0]
    orbit = branch_permutation_orbit(t)
    assert 1 <= len(orbit) <= 6
    for x in orbit:
        assert (x.a * x.b * x.c).is_identity()
        assert G.generates([x.a, x.b])


def _inverse_images(images):
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[j - 1] = i + 1
    return tuple(out)


def _six_images(key):
    """The rotations of (a, b, c) and their reversals, on image tuples."""
    def rot(t):
        return (t[1], t[2], t[0])

    def rev(t):
        return tuple(_inverse_images(x) for x in reversed(t))

    rotations = [key, rot(key), rot(rot(key))]
    return rotations + [rev(t) for t in rotations]


def test_branch_permutation_orbit_lists_the_six_images(small_catalog):
    for name in ("S4", "A4"):
        G = small_catalog[name]
        triples = enumerate_triples(G)
        assert triples
        for t in triples:
            orbit = branch_permutation_orbit(t)
            assert all(x.group is G for x in orbit)
            assert [x.key() for x in orbit] == sorted(set(_six_images(t.key())))


class TestCentralFirstEntries:
    """With r central, (r, b) generates an abelian group, so in a
    non-abelian group no candidate is led by a central r."""

    @pytest.mark.parametrize("name", ["C3xS3", "D6", "D4"])
    def test_no_candidate_is_led_by_a_central_element(self, name):
        G = catalog.builtin(name)
        sizes = [len(cls) for cls in G.conjugacy_classes()]
        central = {x for x, ci in enumerate(G._class_of) if sizes[ci] == 1}
        assert len(central) > 1  # a centre beyond the identity
        firsts = {ir for ir, _, _, _ in _orbit_candidates(G)}
        assert firsts and not firsts & central

    @pytest.mark.parametrize("name, tests", [
        ("C3xS3", 72), ("S3xC3", 72), ("D6", 32), ("D4", 18), ("D4xC2", 72),
        ("A6", 393), ("PSL2_13", 1154),
    ])
    def test_enumeration_tests_no_pair_led_by_a_central_element(
        self, monkeypatch, name, tests
    ):
        # which candidates are tested depends on their orders only, not on
        # the outcome of earlier tests, so a stub that answers no counts them
        G = catalog.builtin(name)
        calls = []
        monkeypatch.setattr(PermGroup, "generates_pair", lambda self, a, b: calls.append(a))
        assert enumerate_triples(G) == []
        assert len(calls) == tests
        assert all(len(G.conjugacy_classes()[G.class_index_of(a)]) > 1 for a in calls)


class TestOneObjectPerElement:
    """Triples and maps hold the group's own element objects, not copies."""

    @staticmethod
    def assert_own(G, *entries):
        for x in entries:
            assert x is G.elements[G.index_of(x)], x

    def test_triples_and_map_images_are_the_groups_elements(self, small_catalog):
        for G in (small_catalog["S4"], small_catalog["D5"], small_catalog["EA5x5"],
                  catalog.builtin("S5")):
            triples = enumerate_triples(G)
            for s in search(G, stop_at_first=True) + search(G)[:50]:
                triples += [s.t1, s.t2]
            triples += [u for t in triples[:30] for u in branch_permutation_orbit(t)]
            t = triples[0]
            triples.append(
                SphericalTriple(G, *(Permutation(x.images) for x in (t.a, t.b, t.c)))
            )
            for t in triples:
                self.assert_own(G, t.a, t.b, t.c)
            for phi in G.automorphisms()[:20]:
                copy = GroupMap(G, G, [Permutation(x.images) for x in phi.images])
                self.assert_own(G, *phi.images, *copy.images)
                self.assert_own(G, *(copy(g) for g in G.elements))

    @pytest.mark.parametrize("name", ["S4", "A5", "C3xS3", "PSL2_7"])
    def test_checked_copy_equals_the_enumerated_triple(self, name):
        # a triple holds element indices: the checked constructor maps
        # copies of the entries back to the same indices and the same objects
        G = catalog.builtin(name)
        triples = enumerate_triples(G)
        if name == "PSL2_7":
            triples = random.Random(name).sample(triples, 300)
        for t in triples:
            u = SphericalTriple(G, *(Permutation(x.images) for x in (t.a, t.b, t.c)))
            assert u == t and hash(u) == hash(t)
            assert u.key() == t.key() and u.as_dict() == t.as_dict()
            self.assert_own(G, u.a, u.b, u.c)
            assert is_hyperbolic(u) == (genus(u) >= 2)

    def test_generation_tests_share_one_cayley_graph_and_table(self):
        G = catalog.builtin("A6")
        assert G.generates_pair(*G.generators)
        cayley, table = G._table.cayley, G._table
        for a in G.elements[::7]:
            for b in G.elements[::5]:
                G.generates_pair(a, b)
        enumerate_triples(G, triple_type=TripleType(2, 4, 5))
        GroupMap(G, G, G.generators)
        assert G._table.cayley is cayley and G._table is table
        # a lone test fills only the columns on the paths of its two elements
        S8 = catalog.builtin("S8")
        started = time.perf_counter()
        assert S8.generates_pair(*S8.generators)
        assert time.perf_counter() - started < 0.48  # twice the closure it replaced
        assert sum(col is not None for col in S8._table._cols) < 100

    def test_conjugating_out_of_the_group_is_rejected(self, small_catalog):
        G = small_catalog["D5"]  # the rotations and reflections of the pentagon
        t = enumerate_triples(G)[0]
        with pytest.raises(ValueError, match="is not an element of <D5"):
            t.conjugated_by(Permutation.from_cycles(5, [1, 2]))
        # x -> 2x mod 5 normalises D5, so the conjugate is a triple of D5
        u = t.conjugated_by(Permutation.from_cycles(5, [2, 3, 5, 4]))
        self.assert_own(G, u.a, u.b, u.c)
        assert (u.a * u.b * u.c).is_identity() and G.generates([u.a, u.b])
