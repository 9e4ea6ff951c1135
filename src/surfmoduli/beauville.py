"""Unmixed Beauville structures and invariants of the quotient surfaces.

A Beauville structure on a finite group G is a pair of hyperbolic
generating triples whose stabilizer sets meet only in the identity, so
that the diagonal action of G on the product of the two triangle curves
is free.  Both stabilizer sets are unions of conjugacy classes, so the
freeness condition is equivalent to their class supports sharing only the
identity class; the search below exploits that.

:func:`search` lists the structures, one canonical pair per orbit of
simultaneous conjugation.  :func:`count_structures` gives the same number
without listing any triple: a triple's class support and hyperbolicity
depend only on the classes of its entries, so it counts Inn(G)-orbits of
triples per support and pairs compatible supports.  :func:`scan` and the
CLI verdicts and counts use it.

The quotient surface of a structure with curve genera ``(g1, g2)`` has

    chi = (g1 - 1)(g2 - 1) / |G|,   ksq = 8 chi,   e = 4 chi,   tau = 0,

with q = 0 and pg = chi - 1 because both quotient curves are rational.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress
from math import isqrt
from operator import attrgetter, or_

from .errors import GroupMismatch, NonIntegralChi, SurfModuliError
from .groups import PermGroup
from .invariants import SurfaceInvariants, _Record
from .triangles import (
    SphericalTriple,
    _hyperbolic_orders,
    _orbit_candidates,
    enumerate_triples,
    genus,
    is_hyperbolic,
    sigma_class_indices,
    triples_equivalent,
)


def is_beauville_pair(t1: SphericalTriple, t2: SphericalTriple) -> bool:
    """Freeness test: both triples hyperbolic, stabilizer sets meeting
    only in the identity.  The sets are unions of conjugacy classes, so
    their class supports share only the identity class, class 0."""
    if t1.group is not t2.group:
        raise GroupMismatch("triples live on different groups")
    if not (is_hyperbolic(t1) and is_hyperbolic(t2)):
        return False
    return sigma_class_indices(t1) & sigma_class_indices(t2) == 1


class BeauvilleStructure:
    """An ordered pair of triples forming an unmixed Beauville structure."""

    __slots__ = ("t1", "t2")

    def __init__(self, t1: SphericalTriple, t2: SphericalTriple, _check=True):
        if _check and not is_beauville_pair(t1, t2):
            raise ValueError("the two triples do not form a Beauville structure")
        self.t1 = t1
        self.t2 = t2

    @property
    def group(self) -> PermGroup:
        return self.t1.group

    def key(self) -> tuple:
        return self.t1.key() + self.t2.key()

    @property
    def triples_unmarked_equivalent(self) -> bool:
        """Whether the two triples are equivalent under some automorphism.

        Reported, never filtered on: the rigidity definition asks the two
        curves to be nonisomorphic, but equality as unmarked triples is
        only a necessary symptom, so the flag is surfaced to the caller.
        """
        return triples_equivalent(self.t1, self.t2, mode="unmarked")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BeauvilleStructure)
            and self.group is other.group
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((id(self.group),) + self.key())

    def __repr__(self) -> str:
        return f"BeauvilleStructure({self.t1!r}, {self.t2!r})"

    def as_dict(self) -> dict:
        return next(_records((self,)))


def _records(structures: Iterable[BeauvilleStructure]) -> Iterator[dict]:
    """Each structure's record, as :meth:`BeauvilleStructure.as_dict` gives it.
    The records share one dict per distinct triple (kept by id, the triple
    held so that its id stays its own) and one invariants dict per genus
    pair and |G|, on which alone a structure's invariants depend."""
    triples: dict[int, tuple[SphericalTriple, dict]] = {}
    surfaces: dict[tuple[int, int, int], dict] = {}
    for s in structures:
        for t in (s.t1, s.t2):
            if id(t) not in triples:
                triples[id(t)] = t, t.as_dict()
        d1, d2 = triples[id(s.t1)][1], triples[id(s.t2)][1]
        key = (d1["genus"], d2["genus"], s.group.order)
        if key not in surfaces:
            surfaces[key] = structure_invariants(s).as_dict()
        yield {"t1": d1, "t2": d2, "invariants": surfaces[key],
               "triples_unmarked_equivalent": s.triples_unmarked_equivalent}


def _least_conjugator(t: SphericalTriple) -> int:
    """The index h of the centre transversal element making h t h^-1 least.

    h is unique, as Inn(G) acts freely on generating triples; it also makes
    any pair (t, t2) least, because a pair's key starts with t's key.  The
    first two entries fix the third, so they alone are compared, in two
    stages.  As h runs over the transversal, h a h^-1 runs over the class
    of a, so only the h sending a to the least element l of its class (its
    representative) can win: ``G._conjugating(a, l)``.  (In :func:`search`
    a is l, and triple enumeration has filled both columns it reads.)  The
    second entries decide among the kept h, so conjugation arrays are
    built for those alone, and the winner's stays kept.
    """
    G, a, b = t.group, t.ia, t.ib
    table, elements = G._table, G.elements
    kept = G._conjugating(a, G._class_reps[G._class_of[a]])
    return min(kept, key=lambda h: elements[table.conjugation(h)[b]].images)


def _supports(G: PermGroup, triples: Sequence[SphericalTriple]) -> Iterator[int]:
    """Each triple's class support, as :func:`sigma_class_indices` gives it,
    read lazily off the per-element power masks in C-level passes."""
    masks = G._element_masks
    a, b, c = (map(masks.__getitem__, map(attrgetter(x), triples)) for x in ("ia", "ib", "ic"))
    return map(or_, map(or_, a, b), c)


def search(G: PermGroup, stop_at_first: bool = False) -> list[BeauvilleStructure]:
    """All unmixed Beauville structures on G, or the first one found.

    Each hyperbolic triple's stabilizer set is read as its class support,
    an int bitmask with bit 0 the identity class.  Whether two triples can
    pair depends only on their supports (they must share only the identity
    class: ``s1 & s2 == 1``).  The first triple t1 runs over triples whose
    leading entry is a class representative, which meets every orbit of
    simultaneous conjugation, and every triple is conjugate to one of
    them, so their supports are all the supports there are.  Inn(G) acts
    freely, so the orbit's canonical form (its least pair) is the one pair
    whose t1 is least: the listing keeps the pairs whose t1 is least, with
    each support's partners gathered once.  The listing sorts the
    hyperbolic triples by key once, so the t1 and each partner list come
    in key order; a pair's key is t1's key then t2's, and the kept t1 are
    distinct, so the pairs come out in key order with no sort of the
    structures.  The first structure keeps enumeration order: it pairs the
    first t1 that has a partner with its first partner, so only the
    supports up to that partner are read, and conjugates the pair into
    canonical form by the array the least conjugator has filled.
    """
    second = enumerate_triples(G, hyperbolic_only=True)
    if not stop_at_first:
        second.sort(key=SphericalTriple.key)
    reps = set(G._class_reps)
    led = list(compress(second, map(reps.__contains__, map(attrgetter("ia"), second))))
    realized = set(_supports(G, led))
    # the listing reads every support, the first structure those up to its partner
    supports = _supports(G, second) if stop_at_first else list(_supports(G, second))

    fits_of = {sig1: {sig2: sig1 & sig2 == 1 for sig2 in realized} for sig1 in realized}

    structures = []
    partners: dict[int, list[SphericalTriple]] = {}
    for t1 in led:
        sig1 = sigma_class_indices(t1)
        fits = fits_of[sig1]
        if not any(fits.values()):
            continue
        h = _least_conjugator(t1)
        if stop_at_first:
            t2 = next(compress(second, map(fits.__getitem__, supports)))
            conj = G._table.conjugation(h)
            t1, t2 = (SphericalTriple._of(G, conj[t.ia], conj[t.ib], conj[t.ic]) for t in (t1, t2))
            return [BeauvilleStructure(t1, t2, _check=False)]
        if h == 0:  # the identity
            if sig1 not in partners:
                partners[sig1] = list(compress(second, map(fits.__getitem__, supports)))
            structures += [BeauvilleStructure(t1, t2, _check=False) for t2 in partners[sig1]]
    return structures


def _needs_three_generators(orders: list[int]) -> bool:
    """Whether an abelian group with these element orders needs more than
    two generators: a two-generated one has at most p^2 elements with
    x^p = 1 for every prime p, and a generating triple (a, b, (ab)^-1)
    is generated by a and b."""
    counts = Counter(orders)
    return any(
        1 + counts[p] > p * p
        for p in counts
        if p > 1 and all(p % d for d in range(2, isqrt(p) + 1))
    )


def _support_orbits(G: PermGroup, stop_at_first: bool = False) -> dict[int, int]:
    """n(s): the Inn(G)-orbits of hyperbolic generating triples of support s.

    Each generating candidate of the orbit walk stands for one orbit, and
    a triple's class support (its stabilizer set's bitmask) and its
    hyperbolicity depend only on the classes of its entries.  So the
    candidates are grouped by support before any generation test, and
    only supports that meet another candidate's support in the identity
    class alone (``s1 & s2 == 1``) are kept and tested.  With
    ``stop_at_first`` each support is tested only up to its first
    generating candidate (n(s) is 0 or 1), and the walk stops once two
    realized supports are compatible.  An abelian group that needs three
    generators has no generating triple, so it returns before the walk.

    In an abelian group, x -> x^k with gcd(k, exp G) = 1 is an
    automorphism that keeps element orders, power masks and generation,
    and every generator r' of <r> is r^k for such a k.  It maps the
    candidates led by r one to one onto those led by r', support by
    support, so the walk leads only with the first class of each rational
    class (one element per cyclic subgroup) and counts each generating
    candidate once per class of that rational class (phi(ord r) times).
    """
    elements, class_of = G.elements, G._class_of
    order_of = G._element_orders
    leaders, weight = None, [1] * len(G._class_reps)
    if G.is_abelian:
        if _needs_three_generators(order_of):
            return {}
        weight = Counter(G._rational_leaders)
        leaders = list(weight)  # in class order: a leader is its rational class's first class
    mask_of = G._element_masks
    candidates: dict[int, list[tuple[int, int]]] = {}
    for ir, ib, ic, _ in _orbit_candidates(G, leaders):
        if _hyperbolic_orders(order_of[ir], order_of[ib], order_of[ic]):
            candidates.setdefault(mask_of[ir] | mask_of[ib] | mask_of[ic], []).append((ir, ib))
    n: dict[int, int] = {}
    for s, pairs in candidates.items():
        if not any(s & t == 1 for t in candidates):
            continue
        tests = (G.generates_pair(elements[ir], elements[ib]) for ir, ib in pairs)
        if not stop_at_first:
            n[s] = sum(weight[class_of[ir]] for (ir, _), t in zip(pairs, tests) if t)
        elif any(tests):
            n[s] = 1
            if any(s & t == 1 for t in n):
                break
    return n


def count_structures(G: PermGroup, stop_at_first: bool = False) -> int:
    """``len(search(G, stop_at_first))``, computed without listing a triple.

    Inn(G) acts freely on the admissible ordered pairs of triples, and
    there are ``[G:Z(G)]^2 n(s1) n(s2)`` of them for each compatible
    pair of supports (see :func:`_support_orbits`), so

        count = [G:Z(G)] * sum over compatible (s1, s2) of n(s1) n(s2).

    With ``stop_at_first`` the count is 1 if two realized supports are
    compatible, else 0.
    """
    n = _support_orbits(G, stop_at_first)
    pairs = sum(n[s] * n[t] for s in n for t in n if s & t == 1)
    return min(pairs, 1) if stop_at_first else len(G._inner) * pairs


def _chi(g1: int, g2: int, group_order: int) -> int:
    """chi for :func:`isogenous_invariants`, its arguments checked."""
    if g1 < 2 or g2 < 2:
        raise ValueError("both genera must be at least 2")
    if group_order < 1:
        raise ValueError("group order must be positive")
    num = (g1 - 1) * (g2 - 1)
    if num % group_order != 0:
        raise NonIntegralChi(
            f"({g1}-1)({g2}-1) = {num} is not divisible by {group_order}"
        )
    return num // group_order


def isogenous_invariants(
    g1: int, g2: int, group_order: int
) -> SurfaceInvariants:
    """Invariants of a free quotient of a product of curves of genera
    ``g1, g2 >= 2`` by a group of the given order."""
    chi = _chi(g1, g2, group_order)
    return SurfaceInvariants.from_chi_ksq(chi, 8 * chi)


def structure_invariants(structure: BeauvilleStructure) -> SurfaceInvariants:
    """Invariants of the surface attached to a Beauville structure.

    Both quotient curves are rational, so q = 0 and pg = chi - 1.
    """
    chi = _chi(genus(structure.t1), genus(structure.t2), structure.group.order)
    return SurfaceInvariants.from_chi_ksq(chi, 8 * chi, q=0, pg=chi - 1)


class ScanRow(_Record):
    """One row of a family scan report."""

    __slots__ = ("group", "order", "beauville", "structures_found", "elapsed_ms", "error")

    def __init__(
        self,
        group: str,
        order: int,
        beauville: bool,
        structures_found: int,
        elapsed_ms: int,
        error: str | None = None,
    ):
        super().__init__(group, order, beauville, structures_found, elapsed_ms, error)


def scan(
    family: Iterable[PermGroup],
    stop_at_first: bool = True,
    progress=None,
) -> list[ScanRow]:
    """Per-group Beauville verdicts for a family of groups.

    Errors raised for one group are recorded in its row and do not abort
    the rest of the scan.  With ``stop_at_first`` (the default) each group
    is only searched until the first structure certifies a yes.  Rows are
    counted by :func:`count_structures`; no triple is listed.
    """
    rows = []
    for G in family:
        name = G.name or f"degree{G.degree}"
        started = time.perf_counter()
        try:
            found = count_structures(G, stop_at_first=stop_at_first)
            elapsed = int(round((time.perf_counter() - started) * 1000))
            rows.append(ScanRow(name, G.order, found > 0, found, elapsed))
        except SurfModuliError as exc:
            elapsed = int(round((time.perf_counter() - started) * 1000))
            rows.append(ScanRow(name, G.order, False, 0, elapsed, str(exc)))
        if progress is not None:
            progress(rows[-1])
    return rows
