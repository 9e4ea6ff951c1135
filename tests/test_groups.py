"""Group core: closure, classes, generation, simplicity, automorphisms."""

import itertools
import math
import random

import pytest
from conftest import (
    naive_conjugacy_partition,
    naive_automorphisms,
    naive_conjugate,
    naive_is_simple,
    naive_mulclose,
)

from surfmoduli import catalog
from surfmoduli.errors import AutBoundExceeded, DegreeMismatch, OrderBoundExceeded
from surfmoduli.groups import GroupMap, PermGroup, Permutation, close
from surfmoduli.triangles import SphericalTriple, enumerate_triples


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])

    def test_composition_is_left_action(self):
        p = Permutation.from_cycles(3, [1, 2])
        q = Permutation.from_cycles(3, [2, 3])
        assert (p * q)(2) == p(q(2))

    def test_inverse_and_pow(self):
        p = Permutation.from_cycles(5, [1, 2, 3, 4, 5])
        assert (p * p.inverse()).is_identity()
        assert p**5 == Permutation.identity(5)
        assert p**-2 == (p.inverse()) ** 2

    def test_conjugated_by_matches_products(self):
        p = Permutation.from_cycles(4, [1, 2, 3])
        h = Permutation.from_cycles(4, [2, 4])
        assert p.conjugated_by(h) == h * p * h.inverse()

    def test_order_examples(self):
        assert Permutation.identity(3).order() == 1
        assert Permutation.from_cycles(5, [1, 2, 3, 4, 5]).order() == 5
        assert Permutation.from_cycles(5, [1, 2], [3, 4, 5]).order() == 6


class TestClose:
    def test_identity_gives_trivial_group(self):
        G = close([Permutation.identity(3)])
        assert G.order == 1

    def test_s5_order_matches_naive_closure(self):
        gens = [
            Permutation.from_cycles(5, [1, 2, 3, 4, 5]),
            Permutation.from_cycles(5, [1, 2]),
        ]
        assert len(naive_mulclose(gens)) == 120  # oracle
        assert close(gens).order == 120

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            close([Permutation.identity(3), Permutation.identity(4)])

    def test_order_bound(self, monkeypatch):
        gens = [
            Permutation.from_cycles(5, [1, 2, 3, 4, 5]),
            Permutation.from_cycles(5, [1, 2]),
        ]
        monkeypatch.setattr("surfmoduli.groups.ORDER_BOUND", 50)
        with pytest.raises(
            OrderBoundExceeded,
            match=r"^closure exceeded ORDER_BOUND = 50 elements; "
            r"set surfmoduli\.groups\.ORDER_BOUND = N to raise it$",
        ):
            close(gens)

    def test_elements_closed(self, small_catalog):
        G = small_catalog["S4"]
        els = set(G.elements)
        for g in list(els)[:6]:
            for h in list(els)[:6]:
                assert g * h in els
                assert g.inverse() in els


class TestConjugacyClasses:
    def test_cyclic_all_singletons(self, small_catalog):
        G = small_catalog["C5"]
        assert [len(c) for c in G.conjugacy_classes()] == [1] * 5

    def test_s4_class_sizes(self, small_catalog):
        G = small_catalog["S4"]
        oracle = sorted(len(c) for c in naive_conjugacy_partition(G))
        sizes = sorted(len(c) for c in G.conjugacy_classes())
        assert sizes == oracle == [1, 3, 6, 6, 8]

    def test_trivial_group_one_class(self):
        G = catalog.cyclic(1)
        assert len(G.conjugacy_classes()) == 1

    def test_classes_partition_and_conj_closed(self):
        for name in ("S4", "D5", "A4", "D6", "S3xC3", "D4xC2", "PSL2_7"):
            G = catalog.builtin(name)
            classes = G.conjugacy_classes()
            assert {c.elements for c in classes} == set(naive_conjugacy_partition(G))
            assert sum(len(c) for c in classes) == G.order
            for cls in classes:
                for g in cls:
                    for h in G.generators:
                        assert g.conjugated_by(h) in cls

    def test_representative_is_lex_least(self, small_catalog):
        G = small_catalog["S4"]
        for cls in G.conjugacy_classes():
            assert cls.representative.images == min(
                p.images for p in cls.elements
            )


class TestClassMasks:
    def test_power_signature_bits_name_the_classes_meeting_the_powers(
        self, small_catalog
    ):
        for name in ("S4", "D5", "A4", "EA3x3", "C12"):
            G = small_catalog[name]
            classes = [frozenset(c.elements) for c in G.conjugacy_classes()]
            naive = naive_conjugacy_partition(G)
            for g in G.elements:
                powers, p = {g}, g
                while not p.is_identity():
                    p = p * g
                    powers.add(p)
                mask = G.power_class_signature(g)
                assert mask >> len(classes) == 0
                named = {classes[i] for i in range(len(classes)) if mask >> i & 1}
                assert named == {c for c in naive if c & powers}, (name, g)

    def test_lazy_facts_are_not_built_with_the_group(self):
        G = catalog.builtin("A6")
        facts = ("_class_of", "_power_masks", "_classes", "_inner", "_automorphisms",
                 "_class_reps", "_class_orders", "_class_sizes", "_power_walks",
                 "_rational_leaders", "_element_orders", "_element_masks")
        for fact in facts:
            assert fact not in G.__dict__, fact
        # the closure hands over only the Cayley graph: the generator columns
        table = G._table
        filled = {z for z, col in enumerate(table._cols) if col is not None}
        assert filled == {0, *map(G.index_of, G.generators)}
        assert not any(conj is not None for conj in table._conj)
        assert "conjugators" not in table.__dict__
        G.power_class_signature(G.generators[0])
        assert "_class_of" in G.__dict__ and "_power_masks" in G.__dict__
        assert G._class_sizes == [len(c) for c in G.conjugacy_classes()]

    @pytest.mark.parametrize("name", ["S5", "PSL2_7", "D6", "C5xC4xC3", "EA5x5"])
    def test_power_masks_match_a_permutation_power_walk(self, name):
        G = catalog.builtin(name)
        masks = []
        for g in (G.elements[x] for x in G._class_reps):
            mask, p = 1, g
            while not p.is_identity():
                mask |= 1 << G.class_index_of(p)
                p = p * g
            masks.append(mask)
        assert G._power_masks == masks

    def test_power_masks_fill_only_the_columns_of_the_class_first_elements(self):
        # one power walk per rational class: only the leading classes' first
        # elements (and their tree ancestors) get a column
        G = catalog.builtin("A6")
        table = G._table
        expected = set(map(G.index_of, G.generators))  # the Cayley graph
        leaders = sorted(set(G._rational_leaders))
        assert len(leaders) < len(G._class_reps)  # A6's two 5-classes share one walk
        for z in map(G._class_of.index, leaders):
            expected.add(z)
            while z:
                z = table.parent[z]
                expected.add(z)
        G._power_masks
        filled = {z for z, col in enumerate(table._cols) if col is not None}
        assert filled == expected
        assert len(filled) < G.order

    @pytest.mark.parametrize("name", ["C60", "C5xC4xC3", "D6", "S5", "A6", "PSL2_7"])
    def test_orders_are_power_counts_without_permutation_order(self, name, monkeypatch):
        def refuse(self):
            raise AssertionError("Permutation.order called")

        monkeypatch.setattr(Permutation, "order", refuse)
        G = catalog.builtin(name)
        counts = []
        for g in G.elements:
            count, p = 1, g
            while not p.is_identity():
                count, p = count + 1, p * g
            counts.append(count)
            assert G.element_order(g) == count, g
        assert G._class_orders == [counts[x] for x in G._class_reps]

    @pytest.mark.parametrize("name", ["C12", "C5xC4xC3", "D6", "S5", "A6", "PSL2_7"])
    def test_rational_leaders_are_the_first_class_of_each_cyclic_subgroup_type(self, name):
        # the rational class of x: the classes of the x^k, gcd(k, ord x) = 1
        G = catalog.builtin(name)
        for ci, x in enumerate(G._class_reps):
            g, m = G.elements[x], G._class_orders[ci]
            rational = {G.class_index_of(g**k) for k in range(1, m + 1) if math.gcd(k, m) == 1}
            assert G._rational_leaders[ci] == min(rational), (name, ci)


class TestGenerates:
    def test_s4_examples(self, small_catalog):
        G = small_catalog["S4"]
        a = Permutation.from_cycles(4, [1, 2])
        b = Permutation.from_cycles(4, [1, 2, 3, 4])
        assert len(naive_mulclose([a, b])) == 24  # oracle
        assert G.generates([a, b])
        x = Permutation.from_cycles(4, [1, 2], [3, 4])
        y = Permutation.from_cycles(4, [1, 3], [2, 4])
        assert len(naive_mulclose([x, y])) == 4  # oracle
        assert not G.generates([x, y])
        assert G.generates(list(G.elements))

    def test_pair_fast_path_matches_closure(self, small_catalog):
        groups = [small_catalog[name] for name in ("C12", "EA3x3", "C2xC2")]
        # non-cyclic groups whose cyclic subgroups meet beyond the identity
        groups += [catalog.builtin(name) for name in ("C4xC2", "C6xC2")]
        for G in groups:
            for a in G.elements:
                for b in G.elements:
                    expected = len(naive_mulclose([a, b])) == G.order
                    assert G.generates_pair(a, b) == expected

    @pytest.mark.parametrize("name", ["S4", "A4", "D5", "D4xC2", "S3xC3"])
    def test_non_abelian_pair_matches_closure(self, name):
        G = catalog.builtin(name)
        assert not G.is_abelian
        for a in G.elements:
            for b in G.elements:
                expected = len(naive_mulclose([a, b])) == G.order
                assert G.generates_pair(a, b) == expected, (a, b)

    @pytest.mark.parametrize("cap, value", [("ENTRY_BOUND", 1000), ("ORDER_BOUND", 10)])
    def test_a_built_group_is_not_held_to_lowered_construction_caps(
        self, monkeypatch, cap, value
    ):
        G = catalog.builtin("S6")
        monkeypatch.setattr(f"surfmoduli.groups.{cap}", value)
        a, b = G.generators
        assert G.generates([a, b]) and not G.generates([a])
        t = SphericalTriple(G, a, b, (a * b).inverse())  # checks generation
        assert t.c is G.elements[G.index_of(t.c)]

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "C1", "C2"])
    def test_empty_and_one_element_lists_match_the_closure(self, name):
        G = catalog.builtin(name)
        assert G.generates([]) == (G.order == 1)
        for g in G.elements:
            expected = len(naive_mulclose([g])) == G.order  # oracle
            assert G.generates([g]) == expected, g

    def test_membership_required(self, small_catalog):
        G = small_catalog["C5"]
        with pytest.raises(ValueError):
            G.generates([Permutation.from_cycles(5, [1, 2])])

    def test_element_order_is_permutation_order(self, small_catalog):
        for name in ("S4", "C12", "D5"):
            G = small_catalog[name]
            for g in G.elements:
                assert G.element_order(g) == g.order()


class TestProductTable:
    @pytest.mark.parametrize("name", ["S4", "D5", "D4xC2", "C12", "PSL2_7"])
    def test_entries_and_inverses_match_permutation_products(self, name):
        G = catalog.builtin(name)
        E, table = G.elements, G._table
        for y in range(G.order):
            column = table.column(y)
            for x in range(G.order):
                assert E[column[x]] == E[x] * E[y]
        for x in range(G.order):
            assert E[table.inverse[x]] == E[x].inverse()
            assert (E[x] * E[table.inverse[x]]).is_identity()
        for h in range(0, G.order, 5):
            conj = table.conjugation(h)
            for x in range(G.order):
                assert E[conj[x]] == E[h] * E[x] * E[h].inverse()

    @pytest.mark.parametrize("name", ["S4", "D4", "D6", "C3xS3", "EA3x3", "A5"])
    def test_conjugation_arrays_match_an_image_tuple_oracle(self, name):
        # every h, asked for in a seeded order so that some arrays compose
        # from a kept ancestor and some from the identity
        G = catalog.builtin(name)
        images = [g.images for g in G.elements]
        order = list(range(G.order))
        random.Random(name).shuffle(order)
        for h in order:
            conj = G._table.conjugation(h)
            assert [images[y] for y in conj] == [naive_conjugate(images[h], x) for x in images]
        filled = {z for z, col in enumerate(G._table._cols) if col is not None}
        assert filled == {0, *map(G.index_of, G.generators)}  # no column was filled

    def test_is_abelian_matches_pairwise_generator_products(self, small_catalog, monkeypatch):
        # fresh groups, so that is_abelian is computed below
        groups = [*map(catalog.builtin, small_catalog), *catalog.abelian_catalog(30)]
        expected = [all(a * b == b * a for a, b in itertools.product(G.generators, repeat=2))
                    for G in groups]
        assert any(expected) and not all(expected)

        def refuse(*_):
            raise AssertionError("a built group multiplied permutations")

        monkeypatch.setattr(Permutation, "__mul__", refuse)
        assert [G.is_abelian for G in groups] == expected

    def test_columns_fill_along_the_breadth_first_tree(self):
        G = catalog.builtin("A6")
        table = G._table
        y = G.order - 1
        path = [y]
        while path[-1]:
            path.append(table.parent[path[-1]])
        table.column(y)
        filled = {z for z, col in enumerate(table._cols) if col is not None}
        assert filled == set(path) | set(map(G.index_of, G.generators))
        for z in path[:-1]:
            p = table.parent[z]
            assert G.elements[z] == G.elements[p] * G.generators[table.via[z]]

    def test_triple_enumeration_keeps_one_conjugation_map_per_generator(self):
        # the class walk and the conjugation arrays read the conjugators;
        # the table keeps no inverse copy of them
        G = catalog.builtin("A6")
        enumerate_triples(G)
        table, E = G._table, G.elements
        per_generator = {name for name, value in vars(table).items()
                         if isinstance(value, (list, tuple)) and len(value) == len(G.generators)}
        assert per_generator == {"cayley", "lefts", "conjugators"}
        for s, conj in zip(G.generators, table.conjugators):
            assert [E[y] for y in conj] == [s.inverse() * x * s for x in E]


class TestIsSimple:
    def test_examples(self, small_catalog):
        assert small_catalog["A5"].is_simple()
        assert not small_catalog["C6"].is_simple()
        assert small_catalog["C7"].is_simple()

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            catalog.cyclic(1).is_simple()

    def test_agrees_with_normal_subgroup_enumeration(self, small_catalog):
        for name, G in small_catalog.items():
            if G.order < 2:
                continue
            if len(G.conjugacy_classes()) > 13:
                # the class-union enumeration is exponential in the class
                # count; abelian groups are covered by the prime test below
                continue
            assert G.is_simple() == naive_is_simple(G), name

    def test_normal_closure_size_is_the_least_normal_class_union(self, small_catalog):
        groups = [small_catalog[n] for n in ("S4", "D5", "A4", "C12")]
        for G in groups + [catalog.builtin(n) for n in ("D4xC2", "D6", "S3xC3", "PSL2_7")]:
            classes = naive_conjugacy_partition(G)
            identity_cls = next(c for c in classes if G.identity in c)
            others = [c for c in classes if c is not identity_cls]
            normal = []
            for r in range(len(others) + 1):
                for combo in itertools.combinations(others, r):
                    subset = identity_cls.union(*combo)
                    if all(x * y in subset for x in subset for y in subset):
                        normal.append(subset)
            for g in G.elements:
                least = min(len(n) for n in normal if g in n)
                assert G.normal_closure_size(g) == least, (G, g)

    def test_normal_closure_of_a_non_member_is_rejected(self, small_catalog):
        with pytest.raises(ValueError, match="is not an element of"):
            small_catalog["A4"].normal_closure_size(Permutation.from_cycles(4, [1, 2]))

    def test_abelian_simple_iff_prime_order(self, small_catalog):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
        for name, G in small_catalog.items():
            if G.order < 2 or not G.is_abelian:
                continue
            assert G.is_simple() == (G.order in primes), name


class TestAutomorphisms:
    def test_c5(self, small_catalog):
        auts = small_catalog["C5"].automorphisms()
        assert len(auts) == 4
        assert sum(a.is_inner for a in auts) == 1

    def test_s3(self, small_catalog):
        auts = small_catalog["S3"].automorphisms()
        assert len(auts) == 6
        assert all(a.is_inner for a in auts)

    def test_trivial_group(self):
        auts = catalog.cyclic(1).automorphisms()
        assert len(auts) == 1

    def test_bound(self):
        G = catalog.symmetric(7)  # order 5040 > 2000
        with pytest.raises(
            AutBoundExceeded,
            match=r"^\|G\| = 5040 exceeds AUT_BOUND = 2000; "
            r"set surfmoduli\.groups\.AUT_BOUND = N to raise it$",
        ):
            G.automorphisms()

    def test_group_axioms(self, small_catalog):
        for name in ("C5", "S3", "A4", "C2xC2"):
            G = small_catalog[name]
            auts = G.automorphisms()
            keys = {a.images for a in auts}
            identity = GroupMap(G, G, G.generators)
            assert identity.images in keys
            for a in auts:
                assert a.inverse().images in keys
                for b in auts:
                    assert a.compose(b).images in keys

    def test_ea5x5_aut_count(self, small_catalog):
        # |GL(2, 5)| = (25 - 1)(25 - 5)
        auts = small_catalog["EA5x5"].automorphisms()
        assert len(auts) == 480

    def test_each_call_returns_a_fresh_list(self, small_catalog):
        G = small_catalog["EA5x5"]
        G.automorphisms().clear()
        assert len(G.automorphisms()) == 480

    def test_d4_inner_automorphisms(self, small_catalog):
        # Aut(D4) = D4 and Inn(D4) = D4 / Z(D4) with Z(D4) of order 2
        G = small_catalog["D4"]
        auts = G.automorphisms()
        assert len(auts) == 8
        assert sum(a.is_inner for a in auts) == 4
        inner = {
            tuple(g.conjugated_by(h).images for g in G.generators)
            for h in G.elements
        }
        flagged = {
            tuple(p.images for p in a.images) for a in auts if a.is_inner
        }
        assert flagged == inner

    @pytest.mark.parametrize("name", ["D4", "D6", "D4xC2", "S3xC3", "PSL2_7", "C12"])
    def test_centre_transversal_and_inner_flags_match_conjugation_by_every_element(
        self, name
    ):
        G = catalog.builtin(name)
        first = {}  # generator images of conjugation by h -> first such h
        for h in G.elements:
            first.setdefault(tuple(g.conjugated_by(h) for g in G.generators), h)
        assert [G.elements[h] for h in G._inner.values()] == list(first.values())
        auts = G.automorphisms()
        for a in auts:
            assert a.is_inner == (a.images in first), a
        assert sum(a.is_inner for a in auts) == len(first)

    @pytest.mark.parametrize("name", ["S4", "D4", "D6", "C3xS3", "PSL2_7", "EA5x5"])
    def test_conjugating_elements_match_a_scan_of_the_transversal(self, name):
        G = catalog.builtin(name)
        E, transversal = G.elements, list(G._inner.values())
        classes, reps = G.conjugacy_classes(), G._class_reps

        def scan(x, y):
            return [h for h in transversal if E[x].conjugated_by(E[h]) == E[y]]

        for x in range(G.order):
            ci = G._class_of[x]
            representative = G.index_of(classes[ci].representative)
            outside = reps[(ci + 1) % len(reps)]
            assert G._conjugating(x, x) == scan(x, x)
            assert G._conjugating(x, x)[0] == 0  # the identity centralises x
            assert G._conjugating(x, representative) == scan(x, representative) != []
            assert G._conjugating(x, outside) == scan(x, outside) == []

    @pytest.mark.parametrize(
        "name", ["S3", "D4", "D6", "A4", "S4", "C2xC2xC2", "D4xC2", "C3xS3", "EA3x3", "A5"]
    )
    def test_matches_the_generator_image_oracle(self, name):
        G = catalog.builtin(name)
        listed = [tuple(p.images for p in a.images) for a in G.automorphisms()]
        assert listed == naive_automorphisms(G)

    @pytest.mark.parametrize(
        "name, order, inner",
        [
            ("A6", 1440, 360),  # |Out(A6)| = 4
            ("S6", 1440, 720),  # S6's outer automorphism
            ("S5", 120, 120),
            ("PSL2_11", 1320, 660),  # Aut(PSL(2, p)) = PGL(2, p)
            ("PSL2_13", 2184, 1092),
            ("EA5x5", 480, 1),  # |GL(2, 5)|
            # abelian, so Inn(G) is trivial and every map is its own coset
            ("C2xC2xC2xC2", 20160, 1),  # |GL(4, 2)|
            ("C3xC3xC3", 11232, 1),  # |GL(3, 3)|
            ("EA7x7", 2016, 1),  # |GL(2, 7)|
        ],
    )
    def test_classical_automorphism_group_orders(self, name, order, inner):
        G = catalog.builtin(name)
        auts = G.automorphisms()
        assert len(auts) == order
        assert sum(a.is_inner for a in auts) == len(G._inner) == inner

    @pytest.mark.parametrize("name", ["PSL2_7", "PSL2_11", "S4", "S5"])
    def test_each_found_automorphism_fills_its_coset_of_the_inner_ones(
        self, name, monkeypatch
    ):
        # an assignment is extended only when no coset found so far holds
        # it, so there are fewer extensions than inner automorphisms
        calls = []
        extend = PermGroup._extend

        def counting(self, sources, target, images):
            calls.append(tuple(images))
            return extend(self, sources, target, images)

        monkeypatch.setattr(PermGroup, "_extend", counting)
        G = catalog.builtin(name)
        G.automorphisms()
        assert 0 < len(calls) < len(G._inner), len(calls)

    def test_the_listing_is_capped_by_entry_bound(self, monkeypatch):
        # |Aut(C2^4)| = |GL(4, 2)| = 20160 maps of 16 image entries each;
        # the listing is cached per group, so each bound gets a fresh one
        monkeypatch.setattr("surfmoduli.groups.ENTRY_BOUND", 16 * 1000)
        with pytest.raises(
            AutBoundExceeded,
            match=r"^1001 automorphisms of a group of order 16 exceed ENTRY_BOUND = 16000 "
            r"image entries; set surfmoduli\.groups\.ENTRY_BOUND = N to raise it$",
        ):
            catalog.builtin("C2xC2xC2xC2").automorphisms()
        monkeypatch.setattr("surfmoduli.groups.ENTRY_BOUND", 16 * 20160)
        assert len(catalog.builtin("C2xC2xC2xC2").automorphisms()) == 20160

    @pytest.mark.parametrize("name", ["PSL2_7", "A6", "S6"])
    def test_the_listing_keeps_no_conjugation_array(self, name):
        # each coset of Inn(G) is filled from the generator-image keys of
        # _inner, not from the centre transversal's conjugation arrays
        G = catalog.builtin(name)
        G.automorphisms()
        assert not any(conj is not None for conj in G._table._conj)

    def test_counts_match_brute_force_bijections(self, small_catalog):
        # every bijective generator assignment that extends = automorphism
        for name in ("C6", "S3"):
            G = small_catalog[name]
            count = 0
            for images in itertools.product(G.elements, repeat=len(G.generators)):
                try:
                    m = GroupMap(G, G, images)
                except ValueError:
                    continue
                if m.is_bijective:
                    count += 1
            assert count == len(G.automorphisms())


class TestGroupMap:
    def test_rejects_non_homomorphism(self, small_catalog):
        G = small_catalog["S4"]
        a = Permutation.from_cycles(4, [1, 2])
        b = Permutation.from_cycles(4, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            GroupMap(G, G, [b, a])  # order profile cannot match

    def test_accepts_exactly_the_homomorphisms(self, small_catalog):
        # oracle: spread the assignment over G along products with the
        # generators, then check f(x y) = f(x) f(y) for every pair
        for name in ("C6", "S3", "D4", "A4", "C2xC2"):
            G = small_catalog[name]
            for images in itertools.product(G.elements, repeat=len(G.generators)):
                f = {G.identity: G.identity}
                work = [G.identity]
                while work:
                    x = work.pop()
                    for g, t in zip(G.generators, images):
                        if x * g not in f:
                            f[x * g] = f[x] * t
                            work.append(x * g)
                respects = all(
                    f[x * y] == f[x] * f[y] for x in G.elements for y in G.elements
                )
                try:
                    m = GroupMap(G, G, images)
                except ValueError:
                    assert not respects, (name, images)
                    continue
                assert respects, (name, images)
                assert all(m(x) == f[x] for x in G.elements), (name, images)

    def test_inverse_undoes_the_map(self, small_catalog):
        outside = {
            "S4": Permutation.identity(5),
            "EA3x3": Permutation.from_cycles(6, [1, 2]),
        }
        for name, x in outside.items():
            G = small_catalog[name]
            assert x not in G
            for a in G.automorphisms():
                back = a.inverse()
                assert back.source is G and back.target is G
                for g in G.elements:
                    assert back.compose(a)(g) == g
                    assert a.compose(back)(g) == g
                with pytest.raises(ValueError):
                    a(x)
                with pytest.raises(ValueError):
                    back(x)

    def test_map_between_groups_reads_the_source(self, small_catalog):
        C6, C2 = small_catalog["C6"], small_catalog["C2"]
        m = GroupMap(C6, C2, [C2.generators[0]])
        g = C6.generators[0]
        assert [m(g**k) for k in range(6)] == [C2.generators[0] ** k for k in range(6)]
        with pytest.raises(ValueError):
            m(C2.generators[0])

    def test_refuses_malformed_maps(self, small_catalog):
        C6, C2 = small_catalog["C6"], small_catalog["C2"]
        with pytest.raises(ValueError, match="one image per source generator"):
            GroupMap(C6, C2, [])
        m = GroupMap(C6, C2, [C2.generators[0]])
        with pytest.raises(ValueError, match="codomain/domain mismatch"):
            m.compose(m)
        with pytest.raises(ValueError, match="only bijective maps can be inverted"):
            m.inverse()

    @pytest.mark.parametrize("name", ["S3", "A4", "D4xC2"])
    def test_mapping_respects_products(self, name):
        # a listed map fills its image entries on first use; D4xC2 has
        # three generators
        G = catalog.builtin(name)
        for m in G.automorphisms():
            assert "_full" not in m.__dict__
            assert m.is_bijective
            for x in G.elements:
                for y in G.elements:
                    assert m(x * y) == m(x) * m(y)
