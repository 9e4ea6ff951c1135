"""Shared brute-force oracles, deliberately independent of the library's
optimized code paths: plain worklist closures, raw double loops, and
element-level stabilizer sets computed by conjugating over the whole group.
Also two groups built by hand, which the Beauville and triangle tests share.
"""

from __future__ import annotations

import itertools
import random

import pytest

from surfmoduli import catalog
from surfmoduli.groups import Permutation, close


def naive_mulclose(perms):
    """Worklist closure under products only; finiteness supplies inverses."""
    elements = set(perms)
    if not elements:
        return elements
    degree = next(iter(elements)).degree
    elements.add(Permutation.identity(degree))
    work = list(elements)
    while work:
        x = work.pop()
        for y in list(elements):
            for z in (x * y, y * x):
                if z not in elements:
                    elements.add(z)
                    work.append(z)
    return elements


def naive_conjugate(h, x):
    """The images of h x h^-1, from plain image tuples of points 1..n:
    h x h^-1 sends h(i) to h(x(i))."""
    out = [0] * len(h)
    for i in range(len(h)):
        out[h[i] - 1] = h[x[i] - 1]
    return tuple(out)


def naive_conjugacy_partition(G):
    """Conjugate every element by every element; no generator tricks."""
    remaining = set(G.elements)
    classes = []
    while remaining:
        x = min(remaining, key=lambda p: p.images)
        cls = {x.conjugated_by(h) for h in G.elements}
        classes.append(frozenset(cls))
        remaining -= cls
    return classes


def naive_is_simple(G):
    """Enumerate all normal subgroups as class unions closed under product."""
    classes = naive_conjugacy_partition(G)
    identity_cls = next(c for c in classes if G.identity in c)
    others = [c for c in classes if c is not identity_cls]
    normal_orders = set()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            subset = set(identity_cls)
            for c in combo:
                subset |= c
            if G.order % len(subset) != 0:
                continue
            if all(x * y in subset for x in subset for y in subset):
                normal_orders.add(len(subset))
    return normal_orders == {1, G.order}


def naive_automorphisms(G):
    """The generator images of every automorphism, sorted: each assignment
    of elements to the generators is spread over G along words in them,
    rejected where one element gets two images, and kept when its values
    are the whole closure of the generators (a surjective endomap of a
    finite group is bijective)."""
    gens = G.generators
    group = naive_mulclose(gens)
    out = []
    for images in itertools.product(G.elements, repeat=len(gens)):
        f = {G.identity: G.identity}
        work = [G.identity]
        while work and f is not None:
            x = work.pop()
            for g, t in zip(gens, images):
                y, fy = x * g, f[x] * t
                if y not in f:
                    f[y] = fy
                    work.append(y)
                elif f[y] != fy:
                    f = None
                    break
        if f is not None and set(f.values()) == group:
            out.append(tuple(t.images for t in images))
    return sorted(out)


def naive_triples(G):
    """All generating triples by the raw |G|^2 double loop."""
    out = []
    for a in G.elements:
        for b in G.elements:
            if len(naive_mulclose([a, b])) != G.order:
                continue
            out.append((a, b, (a * b).inverse()))
    return out


def naive_sigma(G, triple):
    """Element-level stabilizer set: conjugate all powers by everything."""
    out = set()
    for x in triple:
        p = x
        while True:
            for h in G.elements:
                out.add(p.conjugated_by(h))
            if p.is_identity():
                break
            p = p * x
    return out


def naive_genus(G, triple):
    rhs = -2 * G.order
    for x in triple:
        rhs += G.order - G.order // x.order()
    assert (rhs + 2) % 2 == 0
    return (rhs + 2) // 2


def naive_canonical_pair(G, t1, t2):
    """Least simultaneous conjugate of the six image tuples."""
    perms = t1 + t2
    return min(
        tuple(p.conjugated_by(h).images for p in perms) for h in G.elements
    )


def verdict_relabelled_a6():
    """A6 on points relabelled as the benchmark's verdict plan draws them
    for seed 7: one shuffle per verdict group, A6's coming fifth."""
    rng = random.Random("verdict:7")
    for degree in (4, 5, 5, 8, 6):
        labels = list(range(1, degree + 1))
        rng.shuffle(labels)
    pi = Permutation(labels)
    return close([g.conjugated_by(pi) for g in catalog.alternating(6).generators], name="A6")


def heisenberg_mod5():
    """The Heisenberg group mod 5 on the 25 points (a, b): x moves
    (a, b) to (a + 1, b) and y moves it to (a, b + a).  Its centre has
    order 5, so [G:Z(G)] = 25 is neither 1 nor |G| = 125."""
    points = [(a, b) for a in range(5) for b in range(5)]
    label = {p: i + 1 for i, p in enumerate(points)}
    x = Permutation(label[(a + 1) % 5, b] for a, b in points)
    y = Permutation(label[a, (b + a) % 5] for a, b in points)
    return close([x, y], name="Heis5")


@pytest.fixture(scope="session")
def small_catalog():
    return {
        "C2": catalog.cyclic(2),
        "C3": catalog.cyclic(3),
        "C5": catalog.cyclic(5),
        "C6": catalog.cyclic(6),
        "C7": catalog.cyclic(7),
        "C12": catalog.cyclic(12),
        "C2xC2": catalog.builtin("C2xC2"),
        "S3": catalog.symmetric(3),
        "S4": catalog.symmetric(4),
        "A4": catalog.alternating(4),
        "A5": catalog.alternating(5),
        "D4": catalog.dihedral(4),
        "D5": catalog.dihedral(5),
        "EA3x3": catalog.elementary_abelian(3),
        "EA5x5": catalog.elementary_abelian(5),
    }


@pytest.fixture
def no_large_closure(monkeypatch):
    """Make a builtin that would close a group of degree above 1000 fail at
    once: such a closure holds order x degree entries, and a builtin that
    misses its order check would exhaust memory instead of failing."""
    close = catalog.close

    def guarded(generators, name=None):
        generators = list(generators)
        assert generators[0].degree <= 1000, f"{name} reached the closure"
        return close(generators, name=name)

    monkeypatch.setattr(catalog, "close", guarded)


# ------------------------------------------------------------------ braids


def _free_reduce(letters):
    stack = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def _free_inverse(word):
    return tuple((gen, -sign) for gen, sign in reversed(word))


def artin_images(strands, letters):
    """The faithful Artin action on the free group of rank ``strands``,

        sigma_i :  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i,

    read letter by letter, each image reduced from scratch: the images of
    x_1 .. x_n, equal for two words exactly when the braids are equal."""
    images = [((j, 1),) for j in range(1, strands + 1)]
    for i, s in letters:
        a, b = images[i - 1], images[i]
        if s == 1:
            images[i - 1], images[i] = _free_reduce(a + b + _free_inverse(a)), a
        else:
            images[i - 1], images[i] = b, _free_reduce(_free_inverse(b) + a + b)
    return tuple(images)


def naive_orbit(strands, factors, budget, full_moves=False, conjugator_cap=1):
    """Breadth-first orbit of a factorization, given as lists of signed
    integers, on literal words keyed by their Artin images: Hurwitz moves
    and, with ``full_moves``, conjugation by each generator and node pairs
    (u s1^2 u^-1, u s1^-2 u^-1) for u of length at most ``conjugator_cap``,
    generated in the library's order: the empty word, then the words of
    each length in lexicographic order of their letters.  Returns the set
    of keys and the exhaustion flag."""
    images = {}

    def key(state):
        for w in state:
            if w not in images:
                images[w] = artin_images(strands, w)
        return tuple(images[w] for w in state)

    letters = [((i, s),) for i in range(1, strands) for s in (1, -1)]
    conjugators = [()] + [
        sum(combo, ())
        for length in range(1, conjugator_cap + 1)
        for combo in itertools.product(letters, repeat=length)
    ]
    pairs = [
        (u + ((1, 1), (1, 1)) + _free_inverse(u), u + ((1, -1), (1, -1)) + _free_inverse(u))
        for u in conjugators
    ]

    def moves(t):
        for i in range(1, len(t)):
            a, b = t[i - 1], t[i]
            yield t[: i - 1] + (a + b + _free_inverse(a), a) + t[i + 1 :]
            yield t[: i - 1] + (b, _free_inverse(b) + a + b) + t[i + 1 :]
        if not full_moves:
            return
        for g in letters:
            yield tuple(g + w + _free_inverse(g) for w in t)
        for pos, neg in pairs:
            for i in range(len(t) + 1):
                yield t[:i] + (pos, neg) + t[i:]
            for i in range(len(t) - 1):
                if key(t[i : i + 2]) == key((pos, neg)):
                    yield t[:i] + t[i + 2 :]

    start = tuple(tuple((abs(v), 1 if v > 0 else -1) for v in f) for f in factors)
    seen = {key(start)}
    queue = [start]
    for cur in queue:
        for nxt in moves(cur):
            k = key(nxt)
            if k in seen:
                continue
            if len(seen) >= budget:
                return seen, False
            seen.add(k)
            queue.append(nxt)
    return seen, True
