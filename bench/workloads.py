"""The four benchmark workloads.

A workload is made in three steps:

* ``plan(name, seed)`` draws every seeded choice as plain data (labels,
  sample indices, words, rationals).  It imports nothing from the library,
  so it runs before the set-up timer starts.
* ``build(name, plan)`` turns the plan into library inputs (groups,
  branch sets, factorizations) and returns the queries.  Its time counts
  in ``setup_s``.
* each ``Query`` has a ``run`` that makes one library call, a time budget
  in seconds, and a ``check`` that judges the answer with the independent
  code in :mod:`oracles` (``None`` when the answer is right, else why not).

Queries look library functions up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import oracles

NAMES = ("verdict", "listing", "abelian-scan", "braids-branch")


class Query:
    __slots__ = ("name", "budget_s", "run", "check")

    def __init__(self, name, budget_s, run, check):
        self.name = name
        self.budget_s = budget_s
        self.run = run
        self.check = check


def plan(name: str, seed: int) -> dict:
    return _PLANS[name](random.Random(f"{name}:{seed}"))


def build(name: str, plan_: dict) -> list[Query]:
    return _BUILDS[name](plan_)


def _images(triple) -> tuple:
    return (triple.a.images, triple.b.images, triple.c.images)


# ---------------------------------------------------------------- verdict

# (name, degree, order, Beauville?, budget in seconds)
VERDICT_GROUPS = (
    ("S4", 4, 24, False, 5),
    ("A5", 5, 60, False, 5),
    ("S5", 5, 120, True, 15),
    ("PSL2_7", 8, 168, True, 25),
    ("A6", 6, 360, True, 60),
)


def _plan_verdict(rng) -> dict:
    relabel = {}
    for name, degree, *_ in VERDICT_GROUPS:
        labels = list(range(1, degree + 1))
        rng.shuffle(labels)
        relabel[name] = labels
    return {"relabel": relabel}


def _build_verdict(plan_) -> list[Query]:
    from surfmoduli import beauville, catalog, groups

    queries = []
    for name, _, order, expected, budget_s in VERDICT_GROUPS:
        pi = groups.Permutation(plan_["relabel"][name])
        base = catalog.builtin(name)
        G = groups.close([g.conjugated_by(pi) for g in base.generators], name=name)

        def run(G=G):
            return beauville.search(G, stop_at_first=True)

        def check(answer, G=G, name=name, order=order, expected=expected):
            elements = oracles.closure([g.images for g in G.generators])
            if len(elements) != order:
                return f"{name} was built with order {len(elements)}, not {order}"
            if not expected:
                if answer:
                    return f"{name} is not Beauville, yet {len(answer)} structure(s) came back"
                return None
            if len(answer) != 1:
                return f"{name} is Beauville: expected one structure, got {len(answer)}"
            s = answer[0]
            return oracles.structure_problem(elements, _images(s.t1), _images(s.t2))

        queries.append(Query(f"search {name} stop_at_first", budget_s, run, check))
    return queries


# ---------------------------------------------------------------- listing

EA5X5_STRUCTURES = 480 * 24
PSL2_7_TRIPLES = 19152
PSL2_7_AUTOMORPHISMS = 336


def _plan_listing(rng) -> dict:
    return {
        "structures": rng.sample(range(EA5X5_STRUCTURES), 12),
        "triples": rng.sample(range(PSL2_7_TRIPLES), 16),
    }


def _build_listing(plan_) -> list[Query]:
    from surfmoduli import beauville, catalog, triangles

    ea = catalog.builtin("EA5x5")
    psl = catalog.builtin("PSL2_7")
    picks = plan_["structures"]
    found = {}

    def run_search():
        found["structures"] = beauville.search(ea)
        return found["structures"]

    def check_search(answer):
        if len(answer) != EA5X5_STRUCTURES:
            return f"EA5x5: {len(answer)} structures, expected {EA5X5_STRUCTURES}"
        if len({s.key() for s in answer}) != len(answer):
            return "EA5x5: structures repeat"
        elements = oracles.closure([g.images for g in ea.generators])
        for i in picks:
            why = oracles.structure_problem(elements, _images(answer[i].t1), _images(answer[i].t2))
            if why is not None:
                return f"EA5x5 structure {i}: {why}"
        return None

    def run_flags():
        structures = found["structures"]
        return [structures[i].as_dict() for i in picks]

    def check_flags(answer):
        for d in answer:
            # any two bases of (Z/5)^2 are related by an automorphism
            if d["triples_unmarked_equivalent"] is not True:
                return "EA5x5: a structure's triples are reported unmarked-inequivalent"
            g1, g2 = (
                oracles.genus(25, [oracles.perm_order(tuple(d[t][x])) for x in "abc"])
                for t in ("t1", "t2")
            )
            if d["invariants"]["chi"] != (g1 - 1) * (g2 - 1) // 25:
                return f"EA5x5: chi {d['invariants']['chi']} for genera {g1}, {g2}"
        return None

    def run_triples():
        return triangles.enumerate_triples(psl, hyperbolic_only=True)

    def check_triples(answer):
        if len(answer) != PSL2_7_TRIPLES:
            return f"PSL2_7: {len(answer)} hyperbolic triples, expected {PSL2_7_TRIPLES}"
        if len({_images(t) for t in answer}) != len(answer):
            return "PSL2_7: triples repeat"
        elements = oracles.closure([g.images for g in psl.generators])
        for i in plan_["triples"]:
            why = oracles.triple_problem(elements, _images(answer[i]))
            if why is not None:
                return f"PSL2_7 triple {i}: {why}"
        return None

    def run_automorphisms():
        return psl.automorphisms()

    def check_automorphisms(answer):
        images = {tuple(p.images for p in m.images) for m in answer}
        if len(answer) != PSL2_7_AUTOMORPHISMS or len(images) != len(answer):
            return (
                f"PSL2_7: {len(answer)} automorphisms ({len(images)} distinct), "
                f"expected {PSL2_7_AUTOMORPHISMS}"
            )
        return None

    return [
        Query("search EA5x5", 40, run_search, check_search),
        Query("as_dict 12 EA5x5 structures", 30, run_flags, check_flags),
        Query("enumerate_triples PSL2_7 hyperbolic", 25, run_triples, check_triples),
        Query("automorphisms PSL2_7", 15, run_automorphisms, check_automorphisms),
    ]


# ----------------------------------------------------------- abelian-scan

SCAN_MAX_ORDER = 60


def _plan_scan(rng) -> dict:
    names = oracles.abelian_names(SCAN_MAX_ORDER)
    rng.shuffle(names)
    return {"names": names}


def _build_scan(plan_) -> list[Query]:
    from surfmoduli import cli

    argv = ["beauville", "scan", "--groups", *plan_["names"], "--json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        rows = json.loads(text)
        names = [r["group"] for r in rows]
        if sorted(names) != sorted(plan_["names"]):
            return "the scan's rows do not match the requested groups"
        errors = [r["group"] for r in rows if "error" in r]
        if errors:
            return f"errors on {errors}"
        yes = {r["group"] for r in rows if r["beauville"] is True}
        expected = oracles.abelian_beauville_names(SCAN_MAX_ORDER)
        if yes != expected:
            return f"Beauville groups {sorted(yes)}, expected {sorted(expected)}"
        return None

    return [Query(f"cli beauville scan {len(plan_['names'])} abelian groups", 60, run, check)]


# ---------------------------------------------------------- braids-branch

# (strands, factors, budget, expected size or None when the budget cuts it)
HURWITZ_ORBITS = (
    (3, [[1], [1], [2], [2]], 200, None),
    (4, [[1], [2], [3]], 10_000, 16),
    (3, [[1], [2], [1], [2]], 10_000, 27),
)
M_ORBIT = (3, [[1], [2]], 3000)
BRAID_PAIRS = 300
MOEBIUS_GENUS = 6  # 2g + 2 = 14 points
MOEBIUS_PAIRS = {"equivalent": 2, "inequivalent": 2}
# moebius_equivalent tries the 14 * 13 * 12 ordered target triples in
# lexicographic order and stops at the first certificate.  An equivalent
# pair is drawn so that its certificate starts with the point of this rank,
# so every seed makes it try about as many triples (157 to 312 of 2184).
# Rank 1 is one of the ranks small integer matrices reach most often.
MOEBIUS_FIRST_RANK = 1
BIDOUBLE_BOUND = 40
BIDOUBLE_TARGETS = 2


def _random_word(rng, strands, length) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def _equal_word(rng, strands, word) -> list[int]:
    """Another word for the same braid: insert a cancelling pair, then
    apply far commutations and braid relations at random places.

    Words stay at most 8 letters, so no free-group image can pass
    3^8 = 6561 letters, under the library's 10000-letter cap.
    """
    w = list(word)
    g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
    pos = rng.randint(0, len(w))
    w[pos:pos] = [g, -g]
    for _ in range(4 * len(w)):
        i = rng.randrange(len(w) - 1)
        x, y = w[i], w[i + 1]
        if abs(abs(x) - abs(y)) >= 2:
            w[i], w[i + 1] = y, x
        elif (
            i + 2 < len(w)
            and w[i + 2] == x
            and abs(abs(x) - abs(y)) == 1
            and (x > 0) == (y > 0)
        ):
            w[i : i + 3] = [y, x, y]
    return w


def _proj_key(z) -> tuple:
    """The library's order on projective points: by value, infinity last."""
    return (1, Fraction(0)) if z is None else (0, z)


def _plan_braids(rng) -> dict:
    pairs = []
    for k in range(BRAID_PAIRS):
        strands = rng.choice((3, 4))
        if k % 2 == 0:
            w1 = _random_word(rng, strands, rng.randint(2, 6))
            pairs.append((strands, w1, _equal_word(rng, strands, w1), True))
        else:
            w1 = _random_word(rng, strands, rng.randint(1, 8))
            while True:
                w2 = _random_word(rng, strands, rng.randint(1, 8))
                if oracles.exponent_sum(w2) != oracles.exponent_sum(w1):
                    break
            pairs.append((strands, w1, w2, False))
    rng.shuffle(pairs)

    fixed = [Fraction(-2 * MOEBIUS_GENUS)] + [Fraction(i) for i in range(2 * MOEBIUS_GENUS)]

    def param():
        while True:
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            if a not in fixed:
                return a

    def matrix():
        while True:
            m = [rng.randint(-4, 4) for _ in range(4)]
            if m[0] * m[3] != m[1] * m[2]:
                return m

    def first_rank(points, image, m):
        source = min(points, key=_proj_key)
        return sorted(image, key=_proj_key).index(oracles.apply_moebius(m, source))

    moebius = []
    for kind, count in MOEBIUS_PAIRS.items():
        for _ in range(count):
            while True:
                a1 = param()
                a2 = a1
                while kind == "inequivalent" and a2 == a1:
                    a2 = param()
                m = matrix()
                image = [oracles.apply_moebius(m, z) for z in [a2] + fixed]
                if kind == "inequivalent" or first_rank([a1] + fixed, image, m) == MOEBIUS_FIRST_RANK:
                    break
            moebius.append({"param": a1, "points1": [a1] + fixed, "points2": image, "kind": kind})
    rng.shuffle(moebius)

    targets = []
    for _ in range(BIDOUBLE_TARGETS):
        a, b, c, d = (rng.randint(3, BIDOUBLE_BOUND) for _ in range(4))
        targets.append((oracles.bidouble_chi(a, b, c, d), 8 * (a + c - 2) * (b + d - 2)))
    return {"pairs": pairs, "moebius": moebius, "bidouble": targets}


def _build_braids(plan_) -> list[Query]:
    from surfmoduli import bidouble, braids, moebius

    queries = []

    def orbit_check(strands, start, budget, size, invariants):
        want = invariants(strands, start)

        def check(answer):
            if size is None:
                if answer.exhausted or len(answer) != budget:
                    return f"expected {budget} states cut by the budget, got {answer!r}"
            elif not answer.exhausted or len(answer) != size:
                return f"expected an exhausted orbit of {size} states, got {answer!r}"
            for f in answer.factorizations:
                if invariants(strands, f.to_ints()) != want:
                    return f"state {f!r} breaks a move invariant"
            return None

        return check

    for strands, factors, budget, size in HURWITZ_ORBITS:
        f = braids.Factorization.from_ints(strands, factors)

        def run(f=f, budget=budget):
            return braids.hurwitz_orbit(f, budget=budget)

        queries.append(
            Query(
                f"hurwitz_orbit B{strands} {factors} budget {budget}",
                30 if size is None else 5,
                run,
                orbit_check(strands, factors, budget, size, oracles.factorization_invariants),
            )
        )

    strands, factors, budget = M_ORBIT
    f = braids.Factorization.from_ints(strands, factors)
    queries.append(
        Query(
            f"m_equivalence_orbit B{strands} {factors} budget {budget}",
            15,
            lambda f=f, budget=budget: braids.m_equivalence_orbit(f, budget=budget),
            orbit_check(strands, factors, budget, None, oracles.m_move_invariants),
        )
    )

    for k, (strands, w1, w2, equal) in enumerate(plan_["pairs"]):
        b1 = braids.BraidWord.from_ints(strands, w1)
        b2 = braids.BraidWord.from_ints(strands, w2)

        def check(answer, equal=equal, w1=w1, w2=w2):
            if answer is not equal:
                return f"braid_equal({w1}, {w2}) = {answer}, expected {equal}"
            return None

        queries.append(
            Query(f"braid_equal pair {k}", 5, lambda b1=b1, b2=b2: braids.braid_equal(b1, b2), check)
        )

    for k, item in enumerate(plan_["moebius"]):
        b1 = moebius.family_branch_set(MOEBIUS_GENUS, item["param"])
        b2 = moebius.BranchSet([moebius.ProjPoint(z) for z in item["points2"]])

        def check(answer, item=item):
            p1, p2 = item["points1"], item["points2"]
            if answer is None:
                if oracles.moebius_equivalent(p1, p2):
                    return f"no map found for {item['kind']} pair, but one exists"
                return None
            matrix = (answer.a, answer.b, answer.c, answer.d)
            image = {oracles.apply_moebius(matrix, z) for z in p1}
            if image != set(p2):
                return f"certificate {answer!r} does not carry the first set onto the second"
            return None

        queries.append(
            Query(
                f"moebius_equivalent {item['kind']} pair {k}",
                15,
                lambda b1=b1, b2=b2: moebius.moebius_equivalent(b1, b2),
                check,
            )
        )

    for chi, ksq in plan_["bidouble"]:

        def check(answer, chi=chi, ksq=ksq):
            got = [(t.a, t.b, t.c, t.d) for t in answer.types]
            want = oracles.bidouble_types(chi, ksq, BIDOUBLE_BOUND)
            if got != want:
                return f"enumerate_types({chi}, {ksq}): {len(got)} types, expected {len(want)}"
            classes = [
                (key, [(t.a, t.b, t.c, t.d) for t in members])
                for key, members in answer.diffeo_classes
            ]
            if classes != oracles.diffeo_classes(want):
                return f"enumerate_types({chi}, {ksq}): diffeomorphism classes differ"
            return None

        queries.append(
            Query(
                f"enumerate_types chi {chi} ksq {ksq} bound {BIDOUBLE_BOUND}",
                20,
                lambda chi=chi, ksq=ksq: bidouble.enumerate_types(chi, ksq, BIDOUBLE_BOUND),
                check,
            )
        )
    return queries


_PLANS = {
    "verdict": _plan_verdict,
    "listing": _plan_listing,
    "abelian-scan": _plan_scan,
    "braids-branch": _plan_braids,
}
_BUILDS = {
    "verdict": _build_verdict,
    "listing": _build_listing,
    "abelian-scan": _build_scan,
    "braids-branch": _build_braids,
}
