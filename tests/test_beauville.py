"""Beauville structures: freeness test, search completeness, invariants."""

import random
from collections import Counter

import pytest
from conftest import (
    heisenberg_mod5,
    naive_canonical_pair,
    naive_genus,
    naive_sigma,
    naive_triples,
    verdict_relabelled_a6,
)

from surfmoduli import beauville, catalog
from surfmoduli.beauville import (
    BeauvilleStructure,
    _least_conjugator,
    _records,
    _support_orbits,
    _supports,
    count_structures,
    is_beauville_pair,
    isogenous_invariants,
    scan,
    search,
    structure_invariants,
)
from surfmoduli.errors import GroupMismatch, NonIntegralChi, NonIntegralGenus
from surfmoduli.groups import PermGroup, Permutation
from surfmoduli.triangles import (
    SphericalTriple,
    _genus,
    _hyperbolic_orders,
    _orbit_candidates,
    enumerate_triples,
    is_hyperbolic,
    sigma_class_indices,
)


def quadruple_loop_structures(G):
    """Unpruned oracle: all ordered pairs of naive triples, canonicalized."""
    triples = naive_triples(G)
    sigmas = {t: naive_sigma(G, t) for t in triples}
    hyper = []
    for t in triples:
        rhs = -2 * G.order + sum(G.order - G.order // x.order() for x in t)
        if (rhs + 2) // 2 >= 2:  # genus at least 2
            hyper.append(t)
    out = set()
    for t1 in hyper:
        for t2 in hyper:
            if sigmas[t1] & sigmas[t2] == {G.identity}:
                out.add(naive_canonical_pair(G, t1, t2))
    return out


class TestIsBeauvillePair:
    def test_equal_triples_never_pair(self, small_catalog):
        G = small_catalog["EA5x5"]
        t = enumerate_triples(G, hyperbolic_only=True)[0]
        assert not is_beauville_pair(t, t)

    def test_non_hyperbolic_member_fails(self, small_catalog):
        G = small_catalog["S3"]
        ts = enumerate_triples(G)
        assert all(not is_hyperbolic(t) for t in ts)
        assert not is_beauville_pair(ts[0], ts[1])

    def test_group_mismatch(self, small_catalog):
        t1 = enumerate_triples(small_catalog["EA5x5"], hyperbolic_only=True)[0]
        t2 = enumerate_triples(small_catalog["S4"], hyperbolic_only=True)[0]
        with pytest.raises(GroupMismatch):
            is_beauville_pair(t1, t2)

    def test_symmetry(self, small_catalog):
        G = small_catalog["EA5x5"]
        ts = enumerate_triples(G, hyperbolic_only=True)[:30]
        for t1 in ts[:10]:
            for t2 in ts:
                assert is_beauville_pair(t1, t2) == is_beauville_pair(t2, t1)

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "EA5x5", "A5"])
    def test_matches_the_element_level_check_on_seeded_pairs(self, name):
        # 200 ordered pairs: half of random generating triples, half the two
        # triples of a listed structure with the second conjugated apart.
        # S5, PSL2_7 and EA5x5 have no non-hyperbolic generating triple,
        # so A5, with its (2, 3, 5) triples and no structure, joins them.
        G = catalog.builtin(name)
        rng = random.Random(f"is_beauville_pair:{name}")
        structures = search(G)
        pool = []
        while len(pool) < 24:
            a, b = rng.choice(G.elements), rng.choice(G.elements)
            if G.generates_pair(a, b):
                pool.append(SphericalTriple(G, a, b, (a * b).inverse()))
        pairs = []
        for i in range(200):
            if i % 2 and structures:
                s, h = rng.choice(structures), rng.choice(G.elements)
                t2 = SphericalTriple(G, *(x.conjugated_by(h) for x in (s.t2.a, s.t2.b, s.t2.c)))
                pairs.append((s.t1, t2) if rng.random() < 0.5 else (t2, s.t1))
            else:
                pairs.append((rng.choice(pool), rng.choice(pool)))
        sigmas = {}

        def sigma(t):
            key = (t.a, t.b, t.c)
            if key not in sigmas:
                sigmas[key] = naive_sigma(G, key)
            return sigmas[key]

        kinds = Counter()
        for t1, t2 in pairs:
            if min(naive_genus(G, (t.a, t.b, t.c)) for t in (t1, t2)) < 2:
                kind = "non-hyperbolic"
            elif sigma(t1) & sigma(t2) == {G.identity}:
                kind = "beauville"
            else:
                kind = "incompatible"
            assert is_beauville_pair(t1, t2) == (kind == "beauville"), (t1, t2)
            kinds[kind] += 1
        assert set(kinds) == {"incompatible", "non-hyperbolic" if name == "A5" else "beauville"}

    def test_classical_ea5x5_pair_exists(self, small_catalog):
        G = small_catalog["EA5x5"]
        ts = enumerate_triples(G, hyperbolic_only=True)
        assert any(
            is_beauville_pair(ts[0], t) for t in ts
        )


class TestSearch:
    def test_a5_is_empty(self, small_catalog):
        assert search(small_catalog["A5"]) == []

    def test_ea5x5_nonempty_and_rechecks(self, small_catalog):
        results = search(small_catalog["EA5x5"])
        assert results
        for s in results[:50]:
            assert is_beauville_pair(s.t1, s.t2)

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "EA5x5"])
    def test_search_multiplies_no_permutation(self, name, monkeypatch):
        # both listings run on element indices, and the first structure is
        # conjugated into canonical form by its least conjugator's array
        G = catalog.builtin(name)

        def refuse(*_):
            raise AssertionError("the search multiplied or conjugated permutations")

        monkeypatch.setattr(Permutation, "__mul__", refuse)
        monkeypatch.setattr(Permutation, "conjugated_by", refuse)
        assert len(search(G, stop_at_first=True)) == 1
        assert len(search(G)) == count_structures(G)

    def test_psl27_first_structure(self):
        G = catalog.psl2(7)
        results = search(G, stop_at_first=True)
        assert len(results) == 1
        s = results[0]
        assert is_beauville_pair(s.t1, s.t2)

    def test_matches_quadruple_loop_oracle(self, small_catalog):
        for name in ("S3", "A4", "S4", "D4", "EA3x3", "C12", "EA5x5"):
            G = small_catalog[name]
            oracle = quadruple_loop_structures(G)
            got = {
                naive_canonical_pair(
                    G, (s.t1.a, s.t1.b, s.t1.c), (s.t2.a, s.t2.b, s.t2.c)
                )
                for s in search(G)
            }
            assert got == oracle, name

    def test_aut_invariance(self, small_catalog):
        G = small_catalog["EA5x5"]
        s = search(G, stop_at_first=True)[0]
        for phi in G.automorphisms()[:40]:
            t1 = type(s.t1)(G, phi(s.t1.a), phi(s.t1.b), phi(s.t1.c))
            t2 = type(s.t2)(G, phi(s.t2.a), phi(s.t2.b), phi(s.t2.c))
            assert is_beauville_pair(t1, t2)

    def test_canonical_key_matches_oracle_on_d4(self, small_catalog):
        # Z(D4) has order 2: neither trivial nor the whole group, so the
        # least conjugator ranges over a proper transversal of the centre
        G = small_catalog["D4"]
        triples = enumerate_triples(G)
        assert triples
        for t1 in triples:
            h = G.elements[_least_conjugator(t1)]
            for t2 in triples:
                key = t1.conjugated_by(h).key() + t2.conjugated_by(h).key()
                assert key == naive_canonical_pair(
                    G, (t1.a, t1.b, t1.c), (t2.a, t2.b, t2.c)
                )

    @pytest.mark.parametrize("name", ["S4", "D4", "C3xS3", "PSL2_7"])
    def test_least_conjugator_is_the_least_over_the_whole_transversal(self, name):
        G = catalog.builtin(name)
        transversal = [G.elements[h] for h in G._inner.values()]
        for t in enumerate_triples(G)[:: max(1, G.order // 24)]:
            least = min(transversal, key=lambda h: t.conjugated_by(h).key()[:2])
            assert G.elements[_least_conjugator(t)] is least, (name, t)

    @pytest.mark.parametrize("name", ["A6", "PSL2_7"])
    def test_first_structure_builds_conjugation_arrays_for_centralisers_only(self, name):
        # the triple listing carries each first entry's block along the
        # generator conjugations, and the least conjugator reads two columns,
        # so arrays are built for centraliser elements, not for the whole
        # centre transversal (one array per element of A6 or PSL2_7)
        G = catalog.builtin(name)
        search(G, stop_at_first=True)
        assert sum(c is not None for c in G._table._conj) < G.order // 4

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "D6", "EA5x5"])
    def test_search_supports_equal_sigma_class_indices(self, name):
        # every generating triple, hyperbolic or not: D6 has no hyperbolic one
        G = catalog.builtin(name)
        triples = enumerate_triples(G)
        assert triples
        assert list(_supports(G, triples)) == [sigma_class_indices(t) for t in triples]

    def test_full_s5_listing_is_one_pair_per_orbit(self):
        # S5 is Beauville and non-abelian with trivial centre, so each
        # orbit of admissible pairs has 120 members and the listing keeps
        # exactly the one whose first triple is least among its conjugates
        G = catalog.symmetric(5)
        results = search(G)
        keys = [s.key() for s in results]
        assert keys == sorted(set(keys))
        sizes = Counter(
            sigma_class_indices(t) for t in enumerate_triples(G, hyperbolic_only=True)
        )
        admissible = sum(
            n1 * n2
            for sig1, n1 in sizes.items()
            for sig2, n2 in sizes.items()
            if sig1 & sig2 == 1
        )
        assert len(G._inner) == 120
        assert len(results) * len(G._inner) == admissible
        for s in results[:20] + results[-20:]:
            assert s.key() == naive_canonical_pair(
                G, (s.t1.a, s.t1.b, s.t1.c), (s.t2.a, s.t2.b, s.t2.c)
            )
        # the first admissible pair's first triple is not least among its
        # conjugates, so stop_at_first must conjugate the pair into the list
        assert search(G, stop_at_first=True)[0].key() in set(keys)

    def test_first_structure_is_the_first_admissible_pair(self, small_catalog):
        # stop_at_first returns the canonical form of the first admissible
        # pair in enumeration order: t1 the first hyperbolic triple led by a
        # class representative that has a partner, t2 its first partner.
        # In every group here the partner's first entry lies outside the
        # class that leads the enumeration, and in S5 t1's does too.  Heis5
        # has a proper centre; in S5, PSL2_7, S6 and the relabelled A6 and
        # Heis5 the partner's first entry is not its class representative
        for G in (
            small_catalog["EA5x5"],
            catalog.symmetric(5),
            catalog.psl2(7),
            catalog.alternating(6),
            verdict_relabelled_a6(),
            heisenberg_mod5(),
            catalog.builtin("EA7x7"),
            catalog.symmetric(6),
        ):
            triples = enumerate_triples(G, hyperbolic_only=True)
            sigs = [sigma_class_indices(t) for t in triples]
            reps = {cls.representative for cls in G.conjugacy_classes()}
            realized = set(sigs)
            t1, sig1 = next(
                (t1, sig1)
                for t1, sig1 in zip(triples, sigs)
                if t1.a in reps and any(sig1 & sig2 == 1 for sig2 in realized)
            )
            t2 = next(t2 for t2, sig2 in zip(triples, sigs) if sig1 & sig2 == 1)
            first_class = G._class_of[triples[0].ia]
            assert G._class_of[t2.ia] != first_class, G
            assert (G._class_of[t1.ia] != first_class) == (G.name == "S5"), G
            expected = naive_canonical_pair(
                G, (t1.a, t1.b, t1.c), (t2.a, t2.b, t2.c)
            )
            assert search(G, stop_at_first=True)[0].key() == expected, G

    @pytest.mark.parametrize("name", ["PSL2_7", "A6"])
    def test_first_structure_reads_the_led_triples_and_one_block(self, name, monkeypatch):
        # the led triples and the partner's block are runs of the
        # enumeration order, found by bisection, so supports are read for
        # those alone and not along the whole hyperbolic listing
        G = catalog.builtin(name)
        triples = enumerate_triples(G, hyperbolic_only=True)
        reps = set(G._class_reps)
        led = sum(t.ia in reps for t in triples)
        block = max(Counter(t.ia for t in triples).values())
        read = []
        supports = beauville._supports
        monkeypatch.setattr(
            beauville, "_supports", lambda group, ts: read.append(len(ts)) or supports(group, ts)
        )
        assert search(G, stop_at_first=True)
        assert 0 < sum(read) <= led + block < len(triples), (read, led, block)

    @pytest.mark.parametrize("name", ["EA5x5", "S5", "PSL2_7"])
    def test_structures_built_in_place_equal_checked_ones(self, name):
        # the listing and the first structure skip the constructor's check;
        # each equals the structure the checked constructor builds on its
        # triples.  as_dict renders a structure in full, so on PSL2_7
        # (38 976 structures) it is compared on a seeded sample
        G = catalog.builtin(name)
        listed = search(G) + search(G, stop_at_first=True)
        checked = [BeauvilleStructure(s.t1, s.t2) for s in listed]
        assert listed == checked
        assert list(map(hash, listed)) == list(map(hash, checked))
        assert [s.key() for s in listed] == [u.key() for u in checked]
        pairs = list(zip(listed, checked))
        if len(pairs) > 2000:
            pairs = random.Random(name).sample(pairs[:-1], 2000) + pairs[-1:]
        for s, u in pairs:
            assert s.as_dict() == u.as_dict()

    def test_deterministic(self, small_catalog):
        G = small_catalog["EA5x5"]
        a = [s.key() for s in search(G)]
        b = [s.key() for s in search(G)]
        assert a == b

    def test_structure_constructor_validates(self, small_catalog):
        G = small_catalog["EA5x5"]
        t = enumerate_triples(G, hyperbolic_only=True)[0]
        with pytest.raises(ValueError):
            BeauvilleStructure(t, t)


def listed_group(name):
    return heisenberg_mod5() if name == "Heis5" else catalog.builtin(name)


class TestListingOrder:
    """The full listing comes out in key order as it is built: the
    hyperbolic triples are sorted once, the structures never."""

    @pytest.mark.parametrize("name", ["EA5x5", "S5", "PSL2_7", "Heis5"])
    def test_the_listing_reads_no_structure_key(self, name, monkeypatch):
        G = listed_group(name)
        calls = []
        key = BeauvilleStructure.key
        monkeypatch.setattr(
            BeauvilleStructure, "key", lambda self: calls.append(1) or key(self)
        )
        assert search(G)
        assert calls == []

    @pytest.mark.parametrize("name", ["EA5x5", "S5", "PSL2_7", "Heis5"])
    def test_listing_keys_strictly_increase(self, name):
        keys = [s.key() for s in search(listed_group(name))]
        assert keys
        assert all(x < y for x, y in zip(keys, keys[1:]))


class TestCountStructures:
    def test_equals_the_listing_length(self, small_catalog):
        groups = list(small_catalog.values()) + [
            catalog.symmetric(5),
            catalog.psl2(7),
            catalog.builtin("C7xC7"),
            heisenberg_mod5(),
        ]
        for G in groups:
            for stop_at_first in (True, False):
                expected = len(search(G, stop_at_first=stop_at_first))
                assert count_structures(G, stop_at_first) == expected, (G, stop_at_first)

    @pytest.mark.parametrize("name", ["C4xC4", "C8xC2", "C6xC6", "C15", "C5xC10"])
    def test_abelian_counts_equal_the_listing_length(self, name):
        # cyclic subgroups with several generators, of mixed orders
        G = catalog.builtin(name)
        for stop_at_first in (True, False):
            expected = len(search(G, stop_at_first=stop_at_first))
            assert count_structures(G, stop_at_first) == expected, stop_at_first

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_elementary_abelian_count_has_a_closed_form(self, p):
        # PGL(2, p) is sharply 3-transitive on the p + 1 lines of F_p^2: a
        # generating triple is an ordered triple of distinct lines <a>, <b>,
        # <ab> and one of p - 1 choices of a, and a partner's three lines
        # avoid the first triple's three
        G = catalog.builtin(f"C{p}xC{p}")
        expected = (p * p - 1) * (p * p - p) * (p - 1) * (p - 2) * (p - 3) * (p - 4)
        assert expected == {5: 11520, 7: 725760, 11: 66528000, 13: 311351040}[p]
        assert count_structures(G) == expected
        assert count_structures(G, stop_at_first=True) == 1

    def test_heisenberg_counts_with_a_proper_centre(self):
        G = heisenberg_mod5()
        assert G.order == 125 and len(G._inner) == 25
        assert count_structures(G) == 288000

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "EA5x5"])
    def test_support_orbits_count_the_listed_triples(self, name):
        G = catalog.builtin(name)
        listed = Counter(
            sigma_class_indices(t) for t in enumerate_triples(G, hyperbolic_only=True)
        )
        n = _support_orbits(G)
        # every listed support with a compatible listed partner is counted
        assert set(n) >= {s for s in listed if any(s & t == 1 for t in listed)}
        for s, orbits in n.items():
            assert orbits * len(G._inner) == listed[s], (name, s)

    @pytest.mark.parametrize("name", ["S4", "C6xC6"])
    def test_orders_are_tested_before_generation(self, name, monkeypatch):
        # the genus formula raises on some non-generating candidates, and on
        # C6xC6 some of them even have hyperbolic orders; the count tests
        # orders first and generation only where the support allows a pair
        G = catalog.builtin(name)
        E, order = G.elements, G.element_order
        non_generating = [
            [order(E[i]) for i in candidate[:3]]
            for candidate in _orbit_candidates(G)
            if not G.generates_pair(E[candidate[0]], E[candidate[1]])
        ]
        with pytest.raises(NonIntegralGenus):
            for orders in non_generating:
                _genus(G.order, orders)
        assert any(_hyperbolic_orders(*orders) for orders in non_generating) == (
            name == "C6xC6"
        )
        assert count_structures(G) == count_structures(G, stop_at_first=True) == 0
        # the hyperbolic enumeration tests generation only on candidates
        # whose orders are hyperbolic
        hyperbolic = [
            candidate
            for candidate in _orbit_candidates(G)
            if _hyperbolic_orders(*(order(E[i]) for i in candidate[:3]))
        ]
        calls = []
        generates_pair = PermGroup.generates_pair

        def counted_generates_pair(self, a, b):
            calls.append((G.index_of(a), G.index_of(b)))
            return generates_pair(self, a, b)

        monkeypatch.setattr(PermGroup, "generates_pair", counted_generates_pair)
        enumerate_triples(G, hyperbolic_only=True)
        assert calls == [(ir, ib) for ir, ib, _, _ in hyperbolic]
        assert len(hyperbolic) < len(list(_orbit_candidates(G)))


    def test_counts_build_no_conjugacy_class_objects(self):
        # the candidate walk reads class representatives as element indices
        for G in [*catalog.abelian_catalog(60), *map(catalog.builtin, ("S4", "A5", "PSL2_7"))]:
            count_structures(G)
            assert "_classes" not in G.__dict__, G.name


class TestAbelianRankCut:
    @pytest.mark.parametrize("name", ["C2xC2xC2", "C3xC3xC3xC2", "C5xC5xC5"])
    def test_groups_needing_three_generators_are_not_walked(self, name, monkeypatch):
        from surfmoduli import beauville

        G = catalog.builtin(name)
        expected = {flag: len(search(G, stop_at_first=flag)) for flag in (False, True)}
        calls = Counter()
        generates_pair = PermGroup.generates_pair

        def counted_generates_pair(self, a, b):
            calls["generates_pair"] += 1
            return generates_pair(self, a, b)

        def counted_candidates(group, classes=None):
            for candidate in _orbit_candidates(group, classes):
                calls["candidates"] += 1
                yield candidate

        monkeypatch.setattr(PermGroup, "generates_pair", counted_generates_pair)
        monkeypatch.setattr(beauville, "_orbit_candidates", counted_candidates)
        for flag in (False, True):
            assert count_structures(G, stop_at_first=flag) == expected[flag]
        assert calls == Counter()

    def test_two_generated_groups_are_still_walked(self, monkeypatch):
        # C7xC7xC2 is C7 x C14: 49 elements with x^7 = 1 and 2 with x^2 = 1
        from surfmoduli import beauville

        G = catalog.builtin("C7xC7xC2")
        walked = []

        def counted_candidates(group, classes=None):
            for candidate in _orbit_candidates(group, classes):
                walked.append(candidate)
                yield candidate

        monkeypatch.setattr(beauville, "_orbit_candidates", counted_candidates)
        assert count_structures(G) == len(search(G)) == 0
        assert walked


class TestAbelianLeaders:
    def test_the_walk_leads_with_one_element_per_cyclic_subgroup(self, monkeypatch):
        # C7xC7: the identity and 8 cyclic subgroups of order 7, each with
        # 6 generators, so 9 first entries instead of 49
        from surfmoduli import beauville

        G = catalog.builtin("C7xC7")
        firsts, tests = set(), []
        generates_pair = PermGroup.generates_pair

        def counted_generates_pair(self, a, b):
            tests.append((a, b))
            return generates_pair(self, a, b)

        def counted_candidates(group, classes=None):
            for candidate in _orbit_candidates(group, classes):
                firsts.add(candidate[0])
                yield candidate

        monkeypatch.setattr(PermGroup, "generates_pair", counted_generates_pair)
        monkeypatch.setattr(beauville, "_orbit_candidates", counted_candidates)
        assert count_structures(G) == 725760  # the closed form at p = 7
        assert len(firsts) == 9 and 0 in firsts
        assert {G.element_order(G.elements[x]) for x in firsts} == {1, 7}
        # the unreduced walk tests every hyperbolic candidate: r and b of
        # order 7 with r b != 1, and every support has a compatible partner
        unreduced = [
            (ir, ib)
            for ir, ib, ic, _ in _orbit_candidates(G)
            if _hyperbolic_orders(*(G.element_order(G.elements[i]) for i in (ir, ib, ic)))
        ]
        assert len(unreduced) == 48 * 47
        assert len(tests) * 6 == len(unreduced)


class TestScan:
    def test_cyclic_groups_all_no(self):
        rows = scan([catalog.cyclic(n) for n in (5, 7, 30, 60)])
        assert all(not r.beauville for r in rows)

    def test_empty_family(self):
        assert scan([]) == []

    def test_rows_carry_counts_and_time(self, small_catalog):
        rows = scan([small_catalog["EA5x5"], small_catalog["A5"]])
        assert rows[0].beauville and rows[0].structures_found == 1
        assert not rows[1].beauville and rows[1].structures_found == 0
        assert all(r.elapsed_ms >= 0 for r in rows)

    def test_errors_propagate_without_aborting(self, small_catalog, monkeypatch):
        from surfmoduli import beauville as bv
        from surfmoduli.errors import OrderBoundExceeded

        real_count = bv.count_structures

        def failing_count(G, stop_at_first=False):
            if G.name == "C6":
                raise OrderBoundExceeded("injected failure")
            return real_count(G, stop_at_first=stop_at_first)

        monkeypatch.setattr(bv, "count_structures", failing_count)
        rows = bv.scan(
            [small_catalog["C5"], small_catalog["C6"], small_catalog["EA5x5"]]
        )
        assert len(rows) == 3
        assert rows[1].error == "injected failure"
        assert not rows[1].beauville
        assert rows[2].beauville  # the scan kept going

    def test_row_dict_names_the_error_only_when_there_is_one(self):
        from surfmoduli.beauville import ScanRow

        keys = ["group", "order", "beauville", "structures_found", "elapsed_ms"]
        ok = ScanRow("EA5x5", 25, True, 1, 3).as_dict()
        assert list(ok) == keys
        assert list(ok.values()) == ["EA5x5", 25, True, 1, 3]
        bad = ScanRow("C6", 6, False, 0, 2, "injected failure").as_dict()
        assert list(bad) == keys + ["error"] and bad["error"] == "injected failure"


class TestInvariants:
    def test_ea5x5_surface(self):
        inv = isogenous_invariants(6, 6, 25)
        assert (inv.chi, inv.ksq, inv.e, inv.tau) == (1, 8, 4, 0)

    def test_plain_product_of_genus_2(self):
        inv = isogenous_invariants(2, 2, 1)
        assert (inv.chi, inv.ksq, inv.e) == (1, 8, 4)

    def test_divisibility_failure(self):
        with pytest.raises(NonIntegralChi):
            isogenous_invariants(3, 2, 4)

    def test_genus_bounds(self):
        with pytest.raises(ValueError):
            isogenous_invariants(1, 2, 1)

    def test_group_order_must_be_positive(self):
        with pytest.raises(ValueError, match="group order must be positive"):
            isogenous_invariants(3, 3, 0)

    def test_structure_invariants(self, small_catalog):
        s = search(small_catalog["EA5x5"], stop_at_first=True)[0]
        inv = structure_invariants(s)
        assert inv.chi == 1 and inv.ksq == 8 and inv.q == 0 and inv.pg == 0
        assert inv.e == 4 * inv.chi

    def test_equivalent_structures_share_invariants(self, small_catalog):
        G = small_catalog["EA5x5"]
        results = search(G)[:20]
        phi = G.automorphisms()[3]
        for s in results:
            t1 = type(s.t1)(G, phi(s.t1.a), phi(s.t1.b), phi(s.t1.c))
            t2 = type(s.t2)(G, phi(s.t2.a), phi(s.t2.b), phi(s.t2.c))
            other = BeauvilleStructure(t1, t2)
            assert structure_invariants(other) == structure_invariants(s)

    def test_chi_positive_and_ksq_8chi_everywhere(self, small_catalog):
        for s in search(small_catalog["EA5x5"])[:100]:
            inv = structure_invariants(s)
            assert inv.chi >= 1
            assert inv.ksq == 8 * inv.chi

    def test_records_are_immutable_values_of_their_own_class(self):
        import copy
        import pickle

        from surfmoduli.beauville import ScanRow
        from surfmoduli.bidouble import AbcType, BidoubleType
        from surfmoduli.invariants import SurfaceInvariants

        inv = SurfaceInvariants(chi=2, ksq=16, e=8, tau=0, q=0, pg=1)
        row = ScanRow("C5xC5", 25, True, 3, 7)
        # as_dict gives the fields in __slots__ order, leaving out None
        cases = [
            (inv, (2, 16, 8, 0, 0, 1),
             "SurfaceInvariants(chi=2, ksq=16, e=8, tau=0, q=0, pg=1)",
             {"chi": 2, "ksq": 16, "e": 8, "tau": 0, "q": 0, "pg": 1}),
            (SurfaceInvariants(1, 8, 4, 0), (1, 8, 4, 0, None, None),
             "SurfaceInvariants(chi=1, ksq=8, e=4, tau=0, q=None, pg=None)",
             {"chi": 1, "ksq": 8, "e": 4, "tau": 0}),
            (row, ("C5xC5", 25, True, 3, 7, None),
             "ScanRow(group='C5xC5', order=25, beauville=True, structures_found=3,"
             " elapsed_ms=7, error=None)",
             {"group": "C5xC5", "order": 25, "beauville": True, "structures_found": 3,
              "elapsed_ms": 7}),
            (ScanRow("S3", 6, False, 0, 1, "boom"), ("S3", 6, False, 0, 1, "boom"),
             "ScanRow(group='S3', order=6, beauville=False, structures_found=0,"
             " elapsed_ms=1, error='boom')",
             {"group": "S3", "order": 6, "beauville": False, "structures_found": 0,
              "elapsed_ms": 1, "error": "boom"}),
            (AbcType(2, 3, 5), (2, 3, 5), "AbcType(a=2, b=3, c=5)",
             {"a": 2, "b": 3, "c": 5}),
            (BidoubleType(3, 4, 5, 6), (3, 4, 5, 6), "BidoubleType(a=3, b=4, c=5, d=6)",
             {"a": 3, "b": 4, "c": 5, "d": 6}),
        ]
        for record, values, text, fields in cases:
            assert record == type(record)(*values) and hash(record) == hash(values)
            assert record != values
            assert repr(record) == text
            assert list(record.as_dict().items()) == list(fields.items())
            assert pickle.loads(pickle.dumps(record)) == copy.deepcopy(record) == record
            with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
                record.order = 1
            with pytest.raises(AttributeError, match="cannot delete field 'e'"):
                del record.e
        assert inv == SurfaceInvariants.from_chi_ksq(2, 16, q=0, pg=1)
        assert inv != SurfaceInvariants(2, 16, 8, 0) and row != ScanRow("C5xC5", 25, True, 3, 8)
        for args, message in [
            ((1, 8, 5, 0), "e must equal 12"),
            ((1, 8, 4, 1), "tau must equal"),
            ((1, 8, 4, 0, 0), "q and pg must be given together"),
            ((1, 8, 4, 0, -1, -1), "q and pg must be nonnegative"),
            ((1, 8, 4, 0, 1, 2), "chi must equal 1 - q \\+ pg"),
        ]:
            with pytest.raises(ValueError, match=message):
                SurfaceInvariants(*args)

    def test_unmarked_flag_present(self, small_catalog):
        s = search(small_catalog["EA5x5"], stop_at_first=True)[0]
        assert isinstance(s.triples_unmarked_equivalent, bool)
        d = s.as_dict()
        assert "triples_unmarked_equivalent" in d


def _containers(record):
    """The ids of every dict and list in a record, nested ones included."""
    ids, todo = set(), [record]
    while todo:
        x = todo.pop()
        ids.add(id(x))
        todo += [v for v in (x.values() if isinstance(x, dict) else x) if isinstance(v, (dict, list))]
    return ids


class TestListingRecords:
    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "EA5x5"])
    def test_listing_records_are_each_structures_own(self, name):
        structures = search(catalog.builtin(name))
        assert not hasattr(structures[0], "__dict__")
        assert list(_records(structures)) == [s.as_dict() for s in structures]

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "EA5x5"])
    def test_as_dict_never_hands_out_the_same_container_twice(self, name):
        s, u = search(catalog.builtin(name))[:2]
        assert u.t1 is s.t1  # a listing's consecutive structures share t1
        records = [s.as_dict(), s.as_dict(), u.as_dict()]
        seen = [_containers(r) for r in records]
        assert all(not x & y for i, x in enumerate(seen) for y in seen[i + 1:])
