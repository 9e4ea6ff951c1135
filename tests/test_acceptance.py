"""Acceptance suite: the ten primary criteria, one test each.

Every test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or
on failure) and asserts the criterion at its stated tolerance.  All checks
are exact integer/rational comparisons except the two wall-clock bounds.

Criterion 3 asserts the proved classification of abelian Beauville groups
(Catanese, Amer. J. Math. 122, 2000): an abelian group is Beauville iff it
is (Z/n)^2 with gcd(n, 6) = 1.  An exhaustive scan of all abelian groups of
order <= 60 must therefore find exactly C5xC5 and C7xC7, each re-confirmed
with the brute-force oracles of `conftest.py`, and the (Z/7)^2 structure
quoted in the README is verified element by element.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import naive_mulclose, naive_sigma

from surfmoduli import braids, catalog
from surfmoduli.beauville import is_beauville_pair, scan, search, structure_invariants
from surfmoduli.bidouble import (
    AbcType,
    BidoubleType,
    bidouble_invariants,
    diffeo_equivalent,
    diffeo_step,
    nondef_predicate,
)
from surfmoduli.braids import (
    BraidWord,
    Factorization,
    braid_equal,
    hurwitz_move,
    hurwitz_move_inverse,
    hurwitz_orbit,
    node_pair_move,
    product,
)
from surfmoduli.moebius import apply_map, moebius_equivalent
from surfmoduli.triangles import TripleType, enumerate_triples, genus

from test_moebius import cross_ratio_equivalent, random_branch_set, random_map


def check(number, description, condition):
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert condition, f"criterion {number}: {description}"


def test_criterion_1_a5_exhaustive_search_empty():
    started = time.perf_counter()
    results = search(catalog.alternating(5), stop_at_first=False)
    elapsed = time.perf_counter() - started
    check(
        1,
        f"A5 exhaustive search empty in {elapsed:.2f}s (< 60s)",
        results == [] and elapsed < 60.0,
    )


def test_criterion_2_positive_groups_recheck():
    ea = catalog.elementary_abelian(5)
    ea_results = search(ea)
    ea_ok = bool(ea_results) and all(
        is_beauville_pair(s.t1, s.t2) for s in ea_results
    )
    psl = catalog.psl2(7)
    psl_results = search(psl, stop_at_first=True)
    psl_ok = bool(psl_results) and all(
        is_beauville_pair(s.t1, s.t2) for s in psl_results
    )
    check(
        2,
        f"structures found on EA5x5 ({len(ea_results)}) and PSL2_7 "
        f"({len(psl_results)}); all re-pass the freeness test",
        ea_ok and psl_ok,
    )


def oracle_confirms_structure(G, t1, t2):
    """Re-check a Beauville structure with the `conftest.py` oracles only:
    both triples have product 1, generate G and are hyperbolic, and their
    stabilizer sets meet only in the identity."""
    for a, b, c in (t1, t2):
        orders = [len(naive_mulclose([x])) for x in (a, b, c)]
        if not (
            (a * b * c).is_identity()
            and len(naive_mulclose([a, b])) == G.order
            and sum(Fraction(1, n) for n in orders) < 1
        ):
            return False
    return naive_sigma(G, t1) & naive_sigma(G, t2) == {G.identity}


def test_criterion_3_abelian_scan_as_stated():
    # Catanese (Amer. J. Math. 122, 2000): an abelian group is Beauville
    # iff it is (Z/n)^2 with gcd(n, 6) = 1.  Order n^2 <= 60 leaves n = 5, 7.
    expected = sorted(
        f"C{n}xC{n}" for n in range(2, 61) if math.gcd(n, 6) == 1 and n * n <= 60
    )
    rows = scan(catalog.abelian_catalog(60))
    # a row with an error reads beauville=False; it is no proof of a "no"
    errored = [r.group for r in rows if r.error is not None]
    positives = sorted(r.group for r in rows if r.beauville)
    # independent element-level confirmation of every positive verdict
    confirmed = []
    for name in positives:
        G = catalog.builtin(name)
        for s in search(G, stop_at_first=True):
            t1 = (s.t1.a, s.t1.b, s.t1.c)
            t2 = (s.t2.a, s.t2.b, s.t2.c)
            if oracle_confirms_structure(G, t1, t2):
                confirmed.append(name)
    # the README's (Z/7)^2 structure, (x, y) read as g1^x * g2^y
    G = catalog.builtin("C7xC7")
    g1, g2 = G.generators
    t1, t2 = (
        tuple(g1**x * g2**y for x, y in triple)
        for triple in (((0, 1), (1, 0), (6, 6)), ((1, 2), (1, 3), (5, 2)))
    )
    readme_ok = oracle_confirms_structure(G, t1, t2)
    check(
        3,
        f"the {len(rows)} abelian groups of order <= 60 hold exactly the "
        f"Beauville groups (Z/n)^2, gcd(n,6)=1: {expected} (scan "
        f"found {positives}, oracles confirmed {confirmed}, errors "
        f"{errored}); the README's C7xC7 structure passes the oracles",
        positives == confirmed == expected and not errored and readme_ok,
    )


def test_criterion_4_riemann_hurwitz_and_quotient_invariants():
    G = catalog.elementary_abelian(5)
    triples = enumerate_triples(G, triple_type=TripleType(5, 5, 5))
    genera_ok = bool(triples) and all(genus(t) == 6 for t in triples)
    s = search(G, stop_at_first=True)[0]
    inv = structure_invariants(s)
    inv_ok = (inv.chi, inv.ksq, inv.e, inv.tau, inv.q) == (1, 8, 4, 0, 0)
    check(
        4,
        f"all {len(triples)} (5,5,5)-triples on EA5x5 have genus 6; "
        "surface has chi=1 ksq=8 e=4 tau=0 q=0",
        genera_ok and inv_ok,
    )


def test_criterion_5_chi_formula_vs_direct_image_oracle():
    started = time.perf_counter()
    mismatches = 0
    for a, b, c, d in itertools.product(range(3, 13), repeat=4):
        closed = bidouble_invariants(BidoubleType(a, b, c, d)).chi
        oracle = 0
        for p, q in ((0, 0), (a, b), (c, d), (a + c, b + d)):
            oracle += 1 if (p, q) == (0, 0) else (p - 1) * (q - 1)
        if closed != oracle:
            mismatches += 1
    elapsed = time.perf_counter() - started
    check(
        5,
        f"chi closed formula equals the four-summand oracle on 10^4 types "
        f"in {elapsed:.3f}s (< 1s)",
        mismatches == 0 and elapsed < 1.0,
    )


def test_criterion_6_diffeo_classes():
    chain = diffeo_equivalent(AbcType(2, 3, 5), AbcType(5, 3, 2))
    chain_ok = (
        chain is not None
        and len(chain) == 4
        and all(diffeo_step(s, s2) for s, s2 in zip(chain, chain[1:]))
    )
    rejects_ok = (
        diffeo_equivalent(AbcType(3, 4, 5), AbcType(3, 5, 4)) is None
        and diffeo_equivalent(AbcType(3, 4, 5), AbcType(4, 4, 5)) is None
    )
    types = [
        AbcType(a, b, c) for a, b, c in itertools.product(range(2, 9), repeat=3)
    ]
    axioms_ok = all(diffeo_equivalent(t, t) is not None for t in types)
    by_line = {}
    for t in types:
        by_line.setdefault((t.b, t.a + t.c), []).append(t)
    for members in by_line.values():
        related = {
            (s, s2)
            for s in members
            for s2 in members
            if diffeo_equivalent(s, s2) is not None
        }
        if not all((s2, s) in related for (s, s2) in related):
            axioms_ok = False
        if not all(
            (s, s3) in related
            for (s, s2) in related
            for (x, s3) in related
            if x == s2
        ):
            axioms_ok = False
    check(
        6,
        "(2,3,5) ~ (5,3,2) by a 3-step chain; b and a+c mismatches rejected; "
        "equivalence axioms hold for all entries <= 8",
        chain_ok and rejects_ok and axioms_ok,
    )


def test_criterion_7_nondef_predicate():
    pos = nondef_predicate(14, 8, 6, 2)
    neg_k = nondef_predicate(14, 8, 6, 3)
    neg_a = nondef_predicate(8, 8, 6, 2)
    neg_b = nondef_predicate(14, 7, 6, 2)
    ok = (
        pos.verdict
        and not neg_k.verdict and "I" in neg_k.failing()
        and not neg_a.verdict and "II" in neg_a.failing()
        and not neg_b.verdict and "I" in neg_b.failing()
    )
    check(
        7,
        "nondef true on (14,8,6,2); false on (14,8,6,3)/(8,8,6,2)/(14,7,6,2) "
        "with the failing clause named",
        ok,
    )


def test_criterion_8_braid_core():
    relations_ok = True
    for n in range(3, 6):
        for i in range(1, n - 1):
            lhs = BraidWord(n, [(i, 1), (i + 1, 1), (i, 1)])
            rhs = BraidWord(n, [(i + 1, 1), (i, 1), (i + 1, 1)])
            relations_ok &= braid_equal(lhs, rhs)
        for i in range(1, n):
            for j in range(i + 2, n):
                relations_ok &= braid_equal(
                    BraidWord(n, [(i, 1), (j, 1)]),
                    BraidWord(n, [(j, 1), (i, 1)]),
                )
    rng = random.Random(20240101)
    corpus_ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        k = rng.randint(2, 4)
        f = Factorization(
            n,
            [
                BraidWord(
                    n,
                    [
                        (rng.randint(1, n - 1), rng.choice([1, -1]))
                        for _ in range(rng.randint(0, 4))
                    ],
                )
                for _ in range(k)
            ],
        )
        i = rng.randint(1, k - 1)
        back = hurwitz_move_inverse(hurwitz_move(f, i), i)
        corpus_ok &= all(
            braid_equal(x, y) for x, y in zip(back.factors, f.factors)
        )
    nodes_ok = True
    base = Factorization.from_ints(3, [[1], [2]])
    for _ in range(25):
        u = BraidWord(
            3,
            [
                (rng.randint(1, 2), rng.choice([1, -1]))
                for _ in range(rng.randint(0, 4))
            ],
        )
        made = node_pair_move(base, 2, u, "create")
        nodes_ok &= braid_equal(product(made), product(base))
        nodes_ok &= node_pair_move(made, 2, u, "cancel") == base
    check(
        8,
        "braid relations and far commutation hold (n <= 5); 100 Hurwitz "
        "round trips; node create/cancel preserves products",
        relations_ok and corpus_ok and nodes_ok,
    )


def test_criterion_9_orbit_determinism(monkeypatch):
    f = Factorization.from_ints(3, [[1], [2]])
    fwd = hurwitz_orbit(f, budget=100)
    forward = braids._hurwitz_moves

    def reversed_moves(cur, forms):
        return forward(cur, forms)[::-1]

    monkeypatch.setattr(braids, "_hurwitz_moves", reversed_moves)
    rev = hurwitz_orbit(f, budget=100)
    # size 3 was pinned with the breadth-first oracle before freezing
    check(
        9,
        f"orbit of (s1, s2) in B3 has {len(fwd)} states (pinned: 3), "
        "identical under forward and reversed move orders, exhausted",
        fwd.keys == rev.keys and len(fwd) == 3 and fwd.exhausted,
    )


def test_criterion_10_moebius_decision_procedure():
    rng = random.Random(55)
    all_ok = True
    for _ in range(50):
        b = random_branch_set(rng, size=8, with_inf=rng.random() < 0.25)
        m = random_map(rng, height=10)
        target = apply_map(m, b)
        cert = moebius_equivalent(b, target)
        all_ok &= cert is not None and apply_map(cert, b) == target
        all_ok &= cross_ratio_equivalent(b, target)
    # the oracle must also agree on inequivalent instances
    negatives_ok = True
    for _ in range(10):
        b = random_branch_set(rng, size=6)
        other = random_branch_set(rng, size=6)
        got = moebius_equivalent(b, other) is not None
        negatives_ok &= got == cross_ratio_equivalent(b, other)
    check(
        10,
        "50 random (set, map) round trips certified exactly; cross-ratio "
        "implementation agrees on all verdicts",
        all_ok and negatives_ok,
    )
