"""Generating triples of a finite group as combinatorial triangle curves.

A triple ``(a, b, c)`` with ``a b c = 1`` and ``<a, b> = G`` encodes a
connected degree-|G| cover of the line branched over three ordered points,
with branching orders the element orders ``(m1, m2, m3)``.  The genus of
the cover comes from the branched-cover count

    2 g - 2 = |G| * (-2 + sum_i (1 - 1/m_i)),

evaluated here in exact integer arithmetic.  The stabilizer set Sigma of a
triple is the set of group elements fixing some point of the cover: the
union over the group of all conjugates of all powers of a, b and c, which
is a union of full conjugacy classes.  Two triples are equivalent when an
automorphism of G, inner for marked equivalence, carries one to the other.
A triple holds the element indices of its entries, so enumeration,
equivalence and the Beauville searches read it on the group's index arrays
(see :mod:`surfmoduli.groups`); its entries are read as permutations at I/O.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import groupby
from operator import itemgetter

from .errors import GroupMismatch, NonIntegralGenus
from .groups import PermGroup, Permutation


class TripleType:
    """The sorted multiset of branching orders of a triple."""

    __slots__ = ("orders",)

    def __init__(self, m1: int, m2: int, m3: int):
        orders = tuple(sorted((m1, m2, m3)))
        if orders[0] < 1:
            raise ValueError("branching orders must be positive")
        self.orders = orders

    def __eq__(self, other) -> bool:
        return isinstance(other, TripleType) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return f"TripleType{self.orders}"


class SphericalTriple:
    """An ordered generating triple ``(a, b, c)`` with ``a b c = 1``.

    The three branch points are ordered; permuting the entries gives a
    different triple.  Instances are immutable.  A triple holds the element
    indices ``ia, ib, ic`` of its entries in ``group.elements``, and
    ``a, b, c`` are the group's own element objects at those indices.
    """

    __slots__ = ("group", "ia", "ib", "ic")

    def __init__(self, group: PermGroup, a: Permutation, b: Permutation, c: Permutation):
        self.group = group
        self.ia, self.ib, self.ic = map(group.index_of, (a, b, c))
        if not (a * b * c).is_identity():
            raise ValueError("a * b * c is not the identity")
        if not group.generates([a, b]):
            raise ValueError("the pair (a, b) does not generate the group")

    @classmethod
    def _of(cls, group: PermGroup, ia: int, ib: int, ic: int) -> "SphericalTriple":
        """The triple at element indices known to form a generating triple."""
        t = cls.__new__(cls)
        t.group, t.ia, t.ib, t.ic = group, ia, ib, ic
        return t

    a = property(lambda self: self.group.elements[self.ia])
    b = property(lambda self: self.group.elements[self.ib])
    c = property(lambda self: self.group.elements[self.ic])

    def _orders(self) -> list[int]:
        """The element orders of the three entries, in entry order."""
        orders = self.group._element_orders
        return [orders[self.ia], orders[self.ib], orders[self.ic]]

    @property
    def triple_type(self) -> TripleType:
        return TripleType(*self._orders())

    def conjugated_by(self, h: Permutation) -> "SphericalTriple":
        """The triple ``h t h^-1``; ``ValueError`` if an entry leaves the group."""
        G = self.group
        return SphericalTriple._of(
            G, *(G.index_of(x.conjugated_by(h)) for x in (self.a, self.b, self.c))
        )

    def key(self) -> tuple:
        """Deterministic sort and identity key (the three image tuples)."""
        elements = self.group.elements
        return (elements[self.ia].images, elements[self.ib].images, elements[self.ic].images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SphericalTriple)
            and self.group is other.group
            and (self.ia, self.ib, self.ic) == (other.ia, other.ib, other.ic)
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.ia, self.ib, self.ic))

    def __repr__(self) -> str:
        return f"SphericalTriple({self.a!r}, {self.b!r}, {self.c!r})"

    def as_dict(self) -> dict:
        """JSON-ready form: group reference, images, type, genus."""
        G, orders = self.group, self._orders()
        return {
            "group": G.name or f"degree{G.degree}",
            "a": list(self.a.images),
            "b": list(self.b.images),
            "c": list(self.c.images),
            "type": sorted(orders),
            "genus": _genus(G.order, orders),
        }


def genus(triple: SphericalTriple) -> int:
    """Genus of the cover encoded by the triple, computed exactly.

    Each branching order divides the group order, so the right-hand side
    of the genus count is an integer; a parity or sign violation raises
    :class:`NonIntegralGenus` (impossible for a valid triple).
    """
    return _genus(triple.group.order, triple._orders())


def _genus(n: int, orders) -> int:
    """Genus of a degree-n cover of the line with these branching orders."""
    rhs = -2 * n
    for m in orders:
        rhs += n - n // m
    if (rhs + 2) % 2 != 0 or rhs + 2 < 0:
        raise NonIntegralGenus(f"2g - 2 = {rhs} admits no genus")
    return (rhs + 2) // 2


def is_hyperbolic(triple: SphericalTriple) -> bool:
    """True iff the associated curve has genus at least 2."""
    return _hyperbolic_orders(*triple._orders())


def sigma_set(triple: SphericalTriple) -> frozenset[Permutation]:
    """All elements acting with fixed points on the cover.

    This is the union over the group of the conjugates of all powers of
    a, b and c; it always contains the identity and is closed under
    conjugation and inversion.
    """
    G, mask = triple.group, sigma_class_indices(triple)
    return frozenset(g for g, ci in zip(G.elements, G._class_of) if mask >> ci & 1)


def sigma_class_indices(triple: SphericalTriple) -> int:
    """Bitmask of the conjugacy classes covered by the stabilizer set.

    Bit ``i`` is set iff class ``i`` (in ``G.conjugacy_classes()`` order)
    lies in Sigma; bit 0, the identity class, is always set.  Two stabilizer
    sets meet only in the identity iff the AND of their masks is 1.
    """
    G = triple.group
    return (
        G.power_class_signature(triple.a)
        | G.power_class_signature(triple.b)
        | G.power_class_signature(triple.c)
    )


def _hyperbolic_orders(m1: int, m2: int, m3: int) -> bool:
    """True iff branching orders m1, m2, m3 give genus at least 2.

    That is ``1/m1 + 1/m2 + 1/m3 < 1``, cleared of denominators.  It reads
    the orders only, so unlike :func:`_genus` it holds for any three
    orders, whether or not the pair behind them generates.
    """
    return m1 * m2 + m1 * m3 + m2 * m3 < m1 * m2 * m3


def _orbit_candidates(G: PermGroup, classes: Iterable[int] | None = None):
    """One candidate ``(ir, ib, ic, centraliser)`` per orbit of Inn(G) on
    pairs led by a class representative, as element indices with
    ``c = (r b)^-1``, and ``centraliser`` the conjugation arrays that
    carry b over the rest of its C_G(r)-orbit: one list object, shared by
    every candidate led by r.

    For each class representative r (``G._class_reps``), in class order
    (or for the classes whose indices ``classes`` names, in that order),
    b runs over the element indices and only the first b of each orbit of
    the centraliser C_G(r) is yielded: (r, b) and (r, h b h^-1) with h in
    C_G(r) are conjugate, and every conjugate of a pair has a first entry
    conjugate to r.  So each candidate that generates stands for exactly one
    Inn(G)-orbit of generating triples.  The orbits are read off the
    conjugation arrays of the centre transversal elements h != 1 with
    h r h^-1 = r (``G._conjugating(r, r)``), so only those arrays are
    built; b and its image under each of them make up its orbit.  When
    (r, b) generates, only Z(G) centralises both, so the orbit has no
    repeats.  In an abelian G the transversal is the identity alone, so
    the list is empty and each orbit is one element; in a non-abelian G a
    central r (the identity too) leads no candidate, as (r, b) then
    generates an abelian group.  c is read off the product-table column
    of r^-1 (c = b^-1 r^-1).
    """
    table, n, reps = G._table, G.order, G._class_reps
    inv, sizes = table.inverse, G._class_sizes
    for ci in range(len(reps)) if classes is None else classes:
        if sizes[ci] == 1 and not G.is_abelian:
            continue
        ir = reps[ci]
        col = table.column(inv[ir])
        centraliser = list(map(table.conjugation, G._conjugating(ir, ir)[1:]))
        marked = bytearray(n)
        for ib in range(n):
            if marked[ib]:
                continue
            for conj in centraliser:
                marked[conj[ib]] = 1
            yield ir, ib, col[inv[ib]], centraliser


def enumerate_triples(
    G: PermGroup,
    triple_type: TripleType | None = None,
    hyperbolic_only: bool = False,
) -> list[SphericalTriple]:
    """All generating triples of G, optionally filtered by type.

    The generating candidates of :func:`_orbit_candidates` are one triple
    per Inn(G)-orbit; generation, type and genus are conjugation
    invariant.  So the triples led by a class representative r are the
    kept candidates' C_G(r)-orbits: the *led block* of r, its second
    entries the kept b's and their images under each of r's centraliser
    arrays, sorted, each third entry read off the column of r^-1.  The
    class of r is then walked breadth-first along conjugation by each
    generator s (``_ProductTable.conjugators``): a new first entry
    s^-1 a s takes the block of a conjugated by s^-1, both entry lists
    mapped in one C-level pass.

    The output order is a contract: by conjugacy class of the first entry,
    then by element index of the first and second entries, so the keys
    ``(class of a, index of a, index of b)`` strictly increase.  Each first
    entry's block, and each class's triples, are one run of the list, and
    :func:`surfmoduli.beauville.search` finds its first structure by
    bisection on that order.

    The search runs on element indices: types and hyperbolicity come from
    the per-element orders, and each output triple is built once, in
    place, from the indices of its first entry's block, after the block
    is sorted.
    """
    elements, orders = G.elements, G._element_orders
    table = G._table
    inv, conjugators = table.inverse, table.conjugators
    full: list[SphericalTriple] = []
    new, append = SphericalTriple.__new__, full.append
    for ir, candidates in groupby(_orbit_candidates(G), key=itemgetter(0)):
        kept: list[int] = []
        for _, ib, ic, centraliser in candidates:
            # orders first: they are lookups, a generation test is a closure
            m = (orders[ir], orders[ib], orders[ic])
            if triple_type is not None and tuple(sorted(m)) != triple_type.orders:
                continue
            if hyperbolic_only and not _hyperbolic_orders(*m):
                continue
            if not G.generates_pair(elements[ir], elements[ib]):
                continue
            kept.append(ib)
        if not kept:
            continue
        led = list(kept)
        for conj in centraliser:  # r's list, the same for all its candidates
            led += map(conj.__getitem__, kept)
        led.sort()
        col = table.column(inv[ir])
        # first entry -> its block: the second entries and the third entries
        blocks = {ir: (led, list(map(col.__getitem__, map(inv.__getitem__, led))))}
        reached = [ir]
        for a in reached:
            seconds, thirds = blocks[a]
            for s in conjugators:  # x -> s^-1 x s
                x = s[a]
                if x not in blocks:
                    blocks[x] = list(map(s.__getitem__, seconds)), list(map(s.__getitem__, thirds))
                    reached.append(x)
        reached.sort()
        for a in reached:
            seconds, thirds = blocks.pop(a)
            if a != ir:  # r's block is sorted by b already
                by_b = sorted(range(len(seconds)), key=seconds.__getitem__)
                seconds, thirds = map(seconds.__getitem__, by_b), map(thirds.__getitem__, by_b)
            for b, c in zip(seconds, thirds):  # as SphericalTriple._of, without its call
                t = new(SphericalTriple)
                t.group = G
                t.ia = a
                t.ib = b
                t.ic = c
                append(t)
    return full


def triples_equivalent(
    t1: SphericalTriple,
    t2: SphericalTriple,
    mode: str = "marked",
) -> bool:
    """Equivalence of triples under inner (marked) or all (unmarked)
    automorphisms, applied componentwise.

    An inner automorphism fixes every class, and any automorphism permutes
    the classes keeping element order and class size, so entries that
    differ in class (marked) or in order or class size (unmarked) answer
    ``False`` at once.  Otherwise a1 and b1 generate G, so the only
    candidate map is the extension of a1 -> a2, b1 -> b2 by
    :meth:`PermGroup._extend`; if it exists, it maps onto <a2, b2> = G, so
    it is an automorphism (c follows).
    """
    if t1.group is not t2.group:
        raise GroupMismatch("triples live on different groups")
    if mode not in ("marked", "unmarked"):
        raise ValueError(f"unknown mode {mode!r}")
    G = t1.group
    kinds = [G._class_of[x] for x in (t1.ia, t1.ib, t1.ic, t2.ia, t2.ib, t2.ic)]
    if mode == "unmarked":
        kinds = [(G._class_orders[ci], G._class_sizes[ci]) for ci in kinds]
    if kinds[:3] != kinds[3:]:
        return False
    image = G._extend((t1.ia, t1.ib), G, (t2.ia, t2.ib))
    if image is None:
        return False
    return mode == "unmarked" or tuple(image[G._index[g]] for g in G.generators) in G._inner


def _branch_reorderings(t: SphericalTriple) -> list[tuple[int, int, int]]:
    """The entries of the six reorderings of t's branch points: the three
    rotations of ``(a, b, c)`` and their reversals
    ``(x, y, z) -> (z^-1, y^-1, x^-1)``, as element indices, the inverses
    read off the product table."""
    a, b, c, inv = t.ia, t.ib, t.ic, t.group._table.inverse
    ai, bi, ci = inv[a], inv[b], inv[c]
    return [(a, b, c), (b, c, a), (c, a, b), (ci, bi, ai), (ai, ci, bi), (bi, ai, ci)]


def branch_permutation_orbit(t: SphericalTriple) -> list[SphericalTriple]:
    """The triples obtained by reordering the three branch points.

    These are the three rotations of ``(a, b, c)`` and their reversals
    ``(x, y, z) -> (z^-1, y^-1, x^-1)``, all of which preserve the
    product-one and generation conditions; coinciding triples are listed
    once, in key order.
    """
    orbit = (SphericalTriple._of(t.group, *x) for x in set(_branch_reorderings(t)))
    return sorted(orbit, key=SphericalTriple.key)
