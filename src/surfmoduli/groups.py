"""Exact arithmetic on finite permutation groups.

Elements are permutations of ``{1, ..., n}`` stored as tuples of images.
A :class:`PermGroup` materializes its full element set at construction
(capped at :data:`ORDER_BOUND` elements and :data:`ENTRY_BOUND` image
entries), so every later question -- membership, conjugacy, generation,
simplicity, automorphisms -- reduces to finite enumeration with no
floating point and no randomness.  All public types are immutable after
construction and safe to share between workers.

Inside the searches an element is its index in ``G.elements``, and a
triple (:class:`~surfmoduli.triangles.SphericalTriple`) holds three.
The closure keeps the Cayley graph it walks and its breadth-first tree:
the regular action of G on those indices, held as a product table by
columns (see :class:`_ProductTable`).  Inverses, classes, the centre transversal,
normal closures, generation tests, triple enumeration and equivalence,
least conjugators and automorphisms all read these index arrays.  The
action of G on itself by conjugation is read off the same tree: one map
per generator, and the array of any other element composed from them
along its inverse's tree path, so conjugation fills no product-table column.
Element orders and power masks come from one walk along a product-table
column per rational class (the classes of the generators of one cyclic
subgroup, up to conjugacy), kept per class and per element.  No search
multiplies a :class:`Permutation`; they are read at I/O and by the
checked constructors.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .errors import AutBoundExceeded, DegreeMismatch, OrderBoundExceeded

ORDER_BOUND = 100_000
ENTRY_BOUND = 10_000_000
AUT_BOUND = 2_000


class Permutation:
    """A permutation of ``{1, ..., n}`` given by its tuple of images.

    ``images[i - 1]`` is where point ``i`` goes.  Composition is the left
    action: ``(p * q)(x) == p(q(x))``.  Instances are immutable; equality
    and hashing are by image tuple.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images!r}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # products and conjugates of bijections are bijections; skip validation
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build a permutation from disjoint cycles of 1-based points."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for i, point in enumerate(cycle):
                if not 1 <= point <= degree or point in seen:
                    raise ValueError(f"bad cycle point {point} in {cycles!r}")
                seen.add(point)
                images[point - 1] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"degree {len(self.images)} vs {len(other.images)}"
            )
        img = self.images
        return Permutation._raw(tuple(img[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Permutation._raw(tuple(inv))

    def conjugated_by(self, h: "Permutation") -> "Permutation":
        """Return ``h * self * h^-1`` in a single pass."""
        him = h.images
        sim = self.images
        out = [0] * len(sim)
        for i in range(len(sim)):
            out[him[i] - 1] = him[sim[i] - 1]
        return Permutation._raw(tuple(out))

    def __pow__(self, k: int) -> "Permutation":
        n = len(self.images)
        if k == 0:
            return Permutation.identity(n)
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = [0] * n
        for cycle in base.cycles(fixed_points=True):
            m = len(cycle)
            for i, point in enumerate(cycle):
                out[point - 1] = cycle[(i + k) % m]
        return Permutation._raw(tuple(out))

    def cycles(self, fixed_points: bool = False) -> list[list[int]]:
        """Disjoint cycles, each starting at its least point, sorted by it."""
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cur, cycle = start, []
            while not seen[cur - 1]:
                seen[cur - 1] = True
                cycle.append(cur)
                cur = self.images[cur - 1]
            if len(cycle) > 1 or fixed_points:
                out.append(cycle)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(fixed_points=True)))

    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


class ConjugacyClass:
    """One conjugacy class, with its lexicographically least representative."""

    __slots__ = ("representative", "elements")

    def __init__(self, representative: Permutation, elements: frozenset[Permutation]):
        self.representative = representative
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return g in self.elements

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"ConjugacyClass({self.representative!r}, size={len(self.elements)})"


def _mulclose(generators: Sequence[Permutation]) -> "_ProductTable":
    """Breadth-first closure of ``generators`` under right multiplication.

    Returns the group's product table: the elements in deterministic BFS
    order from the identity, with the Cayley graph and tree the walk
    records.  The closure holds order x degree image entries, so it stops at
    ``ORDER_BOUND`` elements or at ``ENTRY_BOUND`` entries, both read at call
    time.
    """
    degree = generators[0].degree
    cap = min(ORDER_BOUND, ENTRY_BOUND // degree)
    identity = Permutation.identity(degree)
    elements = [identity]
    index = {identity: 0}
    cayley: list[list[int]] = [[] for _ in generators]
    parent, via = [0], [0]
    # x * g gathers x's images at g's; degree 1 has only the identity
    takes = [operator.itemgetter(*(j - 1 for j in g.images)) if degree > 1 else tuple
             for g in generators]
    for i, x in enumerate(elements):
        for k, take in enumerate(takes):
            y = Permutation._raw(take(x.images))
            j = index.get(y)
            if j is None:
                if len(elements) >= cap:
                    if len(elements) < ORDER_BOUND:
                        raise OrderBoundExceeded(
                            f"closure exceeded ENTRY_BOUND = {ENTRY_BOUND} image entries"
                            f" (order x degree, degree {degree});"
                            " set surfmoduli.groups.ENTRY_BOUND = N to raise it"
                        )
                    raise OrderBoundExceeded(
                        f"closure exceeded ORDER_BOUND = {ORDER_BOUND} elements;"
                        " set surfmoduli.groups.ORDER_BOUND = N to raise it"
                    )
                j = index[y] = len(elements)
                elements.append(y)
                parent.append(i)
                via.append(k)
            cayley[k].append(j)
    return _ProductTable(tuple(elements), index, cayley, parent, via)


def _typecode(order: int) -> str:
    """Array type code wide enough for element indices below ``order``."""
    return "H" if order <= 1 << 16 else "I"


class _ProductTable:
    """The product table of a group on element indices, kept by columns.

    Column ``y`` holds the index of ``x * y`` for every index ``x``.  Let
    ``y = p * g`` be the first edge into ``y`` of the Cayley graph (p is
    ``parent[y]``, g generator ``via[y]``).  Then ``x * y = (x * p) * g``,
    so column ``y`` is the Cayley column of ``g`` read along column ``p``:
    one C-level pass, whatever the degree.  A column is filled on first
    use, with the unfilled columns on its path to the identity, and then
    kept; all ``order**2`` entries exist only once every column was asked
    for.

    Conjugation arrays follow the same tree: with ``g = p * s``,
    ``g^-1 x g`` is ``s^-1 (p^-1 x p) s``.  So the array of g is the
    :attr:`conjugators` chained down g's path from the nearest element
    whose array is kept, read in one C-level pass, and conjugation by h is
    this array of ``g = h^-1``.  Only the arrays asked for are kept, and
    the requests are sparse (the centraliser elements that triple
    enumeration and least conjugators ask for, deep in the tree), so they
    keep no ancestor.  No column is filled.  Where a whole conjugacy class
    is wanted, the conjugators themselves serve: triple enumeration walks
    each class along them.
    """

    def __init__(self, elements, index, cayley, parent, via):
        order = len(elements)
        self._code = _typecode(order)
        self.elements, self.index, self.parent, self.via = elements, index, parent, via
        self.cayley = tuple(array(self._code, col) for col in cayley)
        self._cols: list[array | None] = [None] * order
        self._cols[0] = array(self._code, range(order))
        for col in self.cayley:
            self._cols[col[0]] = col  # entry 0 is the identity times g: g
        self._conj: list[array | None] = [None] * order

    def column(self, y: int) -> array:
        """Column ``y``: the index of ``x * y`` at position ``x``."""
        cols = self._cols
        col = cols[y]
        if col is None:
            path = [y]
            while cols[path[-1]] is None:
                path.append(self.parent[path[-1]])
            col = cols[path.pop()]
            for z in reversed(path):
                col = cols[z] = array(self._code, map(self.cayley[self.via[z]].__getitem__, col))
        return col

    def walk(self, start: int, arrays: Sequence[Sequence[int]]) -> list[int]:
        """Values ``v`` along the breadth-first tree: ``v[0] = start`` and
        ``v[p * g_k] = arrays[k][v[p]]`` for each tree edge.

        With the Cayley columns as ``arrays`` this is left translation by
        ``elements[start]``.
        """
        v = [start] * len(self.elements)
        for y, p, k in zip(range(1, len(v)), self.parent[1:], self.via[1:]):
            v[y] = arrays[k][v[p]]
        return v

    @cached_property
    def lefts(self) -> list[array]:
        """Per generator g, left translation ``x -> g^-1 x``.  g^-1 is the
        element just before the identity on g's Cayley column."""
        out = []
        for col in self.cayley:
            g, ginv = col[0], 0
            while g:
                ginv, g = g, col[g]
            out.append(array(self._code, self.walk(ginv, self.cayley)))
        return out

    @cached_property
    def inverse(self) -> array:
        """The index of each element's inverse: ``(p g)^-1 = g^-1 p^-1``."""
        return array(self._code, self.walk(0, self.lefts))

    @cached_property
    def conjugators(self) -> list[list[int]]:
        """Per generator s, the map ``x -> s^-1 x s``: left translation
        by s^-1, then s's Cayley column, so it fills no column.  The
        s^-1 generate G, so orbits under these maps are the conjugacy
        classes.  Lists, since chained lookups into a list hand on its
        int objects where an array would make new ones."""
        return [list(map(col.__getitem__, left)) for col, left in zip(self.cayley, self.lefts)]

    def conjugation(self, h: int) -> array:
        """The index of ``h x h^-1`` at position ``x``, kept once asked for.

        That is ``g^-1 x g`` with ``g = h^-1``, kept under g.  For the path
        ``g = top * s_1 * ... * s_k`` down the tree from the nearest
        element ``top`` whose array is kept (else the identity), it is
        ``s_k^-1 (... (s_1^-1 (top^-1 x top) s_1) ...) s_k``: one chain of
        :attr:`conjugators` lookups, outermost the generator of g's own edge.
        """
        kept, g = self._conj, self.inverse[h]
        if kept[g] is None:
            path = [g]
            while path[-1] and kept[path[-1]] is None:
                path.append(self.parent[path[-1]])
            top = path.pop()
            chain = range(len(self.elements))
            if top:
                chain = map(kept[top].__getitem__, chain)
            for z in reversed(path):
                chain = map(self.conjugators[self.via[z]].__getitem__, chain)
            kept[g] = array(self._code, list(chain))  # a list fills an array faster
        return kept[g]


class PermGroup:
    """A finite group of permutations with its element set materialized.

    Construct with :func:`close` or the builders in
    :mod:`surfmoduli.catalog`.  ``elements`` is a tuple in a deterministic
    breadth-first order with the identity first.  Groups compare by object
    identity.
    """

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        table: _ProductTable,
        name: str | None = None,
    ):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements, self._index, self._table = table.elements, table.index, table
        self.name = name

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, g) -> bool:
        return g in self._index

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"

    def index_of(self, g: Permutation) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of {self!r}") from None

    def element_order(self, g: Permutation) -> int:
        return self._element_orders[self.index_of(g)]

    @cached_property
    def is_abelian(self) -> bool:
        """The generators commute, read on the Cayley graph: Cayley column
        j holds x g_j at x, so g_i g_j is its entry at g_i, column i's at 0."""
        cayley = self._table.cayley
        gens = [col[0] for col in cayley]
        return all(
            cayley[j][a] == cayley[i][b]
            for i, a in enumerate(gens) for j, b in enumerate(gens[:i])
        )

    @cached_property
    def _class_of(self) -> list[int]:
        """Class index of each element index, by orbits of the table's
        conjugators.

        Classes are numbered in order of their first element, so the
        identity class is class 0.
        """
        conjugators = self._table.conjugators
        class_of = [-1] * self.order
        count = 0
        for start in range(self.order):
            if class_of[start] >= 0:
                continue
            class_of[start] = count
            orbit = [start]
            for i in orbit:
                for conj in conjugators:
                    j = conj[i]
                    if class_of[j] < 0:
                        class_of[j] = count
                        orbit.append(j)
            count += 1
        return class_of

    @cached_property
    def _class_reps(self) -> list[int]:
        """Per class, the index of its representative: its lexicographically
        least element."""
        elements, reps = self.elements, []
        for x, ci in enumerate(self._class_of):
            if ci == len(reps):  # classes are numbered by first element
                reps.append(x)
            elif elements[x].images < elements[reps[ci]].images:
                reps[ci] = x
        return reps

    @cached_property
    def _classes(self) -> tuple[ConjugacyClass, ...]:
        members: list[list[Permutation]] = [[] for _ in self._class_reps]
        for g, ci in zip(self.elements, self._class_of):
            members[ci].append(g)
        return tuple(
            ConjugacyClass(self.elements[x], frozenset(m))
            for x, m in zip(self._class_reps, members)
        )

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Partition into conjugation orbits, identity class first."""
        return self._classes

    def class_index_of(self, g: Permutation) -> int:
        return self._class_of[self.index_of(g)]

    @cached_property
    def _power_walks(self) -> tuple[list[int], list[int], list[int]]:
        """Per class: the order of its elements, the bitmask of the classes
        their powers meet, and the leading class of its rational class.

        The rational class of x is the union of the classes of the x^k
        with gcd(k, ord x) = 1.  These generate <x>, so they share x's
        order and power mask, and one walk serves them all.  The rational
        class's first class leads it: its first element x is walked along
        its product-table column (entry j is the index of
        ``elements[j] * x``) back to the identity, and the walk's length
        and mask go to every class met at an exponent coprime to it.
        Only the leaders' columns are filled; a class's first element, the
        nearest to the identity in the tree, has the cheapest column.
        """
        class_of, table = self._class_of, self._table
        count = max(class_of) + 1
        # the identity class (class 0) leads itself, with order 1 and mask 1
        orders, masks, leader = [1] * count, [1] * count, [0] + [-1] * (count - 1)
        for x, ci in enumerate(class_of):
            if leader[ci] >= 0:  # else x is the first element of an unled class
                continue
            col, powers, mask, j = table.column(x), [], 1, x
            while j:  # the identity has index 0
                powers.append(class_of[j])
                mask |= 1 << class_of[j]
                j = col[j]
            m = len(powers) + 1
            for k, cj in enumerate(powers, 1):
                if math.gcd(k, m) == 1:
                    orders[cj], masks[cj], leader[cj] = m, mask, ci
        return orders, masks, leader

    @cached_property
    def _class_orders(self) -> list[int]:
        """Per class, the order of its elements."""
        return self._power_walks[0]

    @cached_property
    def _class_sizes(self) -> list[int]:
        """Per class, its size (Counter keeps first-seen order, the class order)."""
        return list(Counter(self._class_of).values())

    @cached_property
    def _power_masks(self) -> list[int]:
        """Per class, the bitmask of the classes its elements' powers meet."""
        return self._power_walks[1]

    @cached_property
    def _element_orders(self) -> list[int]:
        """Per element index, its order."""
        return list(map(self._class_orders.__getitem__, self._class_of))

    @cached_property
    def _element_masks(self) -> list[int]:
        """Per element index, its power mask."""
        return list(map(self._power_masks.__getitem__, self._class_of))

    @cached_property
    def _rational_leaders(self) -> list[int]:
        """Per class, the leading class of its rational class."""
        return self._power_walks[2]

    def power_class_signature(self, g: Permutation) -> int:
        """Bitmask of the classes met by the powers of ``g``.

        Bit ``i`` is set iff class ``i`` contains a power of ``g``; bit 0,
        the identity class, is always set.  The set classes are exactly
        those contained in the union of all conjugates of all powers of
        ``g``, so two such unions meet only in the identity iff the AND of
        their masks is 1.
        """
        return self._element_masks[self.index_of(g)]

    def _reach(self, arrays: Sequence[array], stop: int) -> int:
        """Size of the identity's orbit under the index maps ``arrays``,
        found breadth-first; the search stops once it exceeds ``stop``."""
        seen = bytearray(self.order)
        seen[0] = 1
        reached = [0]
        for x in reached:
            for a in arrays:
                y = a[x]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
            if len(reached) > stop:
                break
        return len(reached)

    def generates(self, elems: Sequence[Permutation]) -> bool:
        """True iff the closure of ``elems`` is the whole group: closed along
        their product-table columns, it is as soon as it has more than half
        of the elements (Lagrange)."""
        cols = [self._table.column(self.index_of(g)) for g in elems]
        half = self.order // 2
        return self._reach(cols, half) > half

    def generates_pair(self, a: Permutation, b: Permutation) -> bool:
        """Fast two-element generation test.

        For abelian groups the subgroup generated by two elements is the
        product set of their cyclic subgroups, so its size is
        ``|<a>| * |<b>| / |<a> n <b>|`` and no closure is needed.  Classes
        are single elements there, so g's power mask has a bit per element of <g>.
        Otherwise it is :meth:`generates` on the pair.
        """
        if not self.is_abelian:
            return self.generates((a, b))
        masks = self._element_masks
        ma, mb = masks[self.index_of(a)], masks[self.index_of(b)]
        return ma.bit_count() * mb.bit_count() == self.order * (ma & mb).bit_count()

    def normal_closure_size(self, g: Permutation) -> int:
        """Order of the smallest normal subgroup containing ``g``.

        One breadth-first pass from the identity along ``x -> x g`` and
        the table's conjugators suffices: the set it reaches is closed
        under conjugation, so with x it holds h (h^-1 x h g) h^-1, which
        is x times the conjugate h g h^-1 of g.
        """
        col = self._table.column(self.index_of(g))
        return self._reach([col, *self._table.conjugators], self.order)

    def is_simple(self) -> bool:
        """True iff every nontrivial class normally generates the group,
        tried at each class's first element, the nearest to the identity in
        the tree and so the cheapest column."""
        if self.order < 2:
            raise ValueError("simplicity is defined for groups of order >= 2")
        n, elements, class_of = self.order, self.elements, self._class_of
        return all(
            self.normal_closure_size(elements[class_of.index(ci)]) == n
            for ci in range(1, max(class_of) + 1)
        )

    @cached_property
    def _inner(self) -> dict[tuple, int]:
        """Inner automorphisms, keyed by their generator images' indices.

        Conjugation by ``h`` depends only on the coset ``hZ(G)``, so each
        key maps to the least element index inducing it: the values are a
        transversal of the centre, identity (0) first.  h sends a
        generator g to ``f[h^-1]``, where ``f[y] = y^-1 g y`` is filled
        along the tree: ``f[p s] = s^-1 f[p] s``, a conjugator lookup.
        """
        table = self._table
        images = []
        for col in table.cayley:
            f = table.walk(col[0], table.conjugators)  # the identity conjugates g to g
            images.append(map(f.__getitem__, table.inverse))
        out: dict[tuple, int] = {}
        for h, key in enumerate(zip(*images)):
            out.setdefault(key, h)
        return out

    def _conjugating(self, x: int, y: int) -> list[int]:
        """The indices h in the centre transversal ``_inner``, in its order,
        with ``h x h^-1 = y``: none unless y is in x's class, and with
        ``y = x`` the transversal's part of the centraliser of x.

        These are the h with h x = y h, read off two product-table
        columns: h x is entry h of the column of x, and y h is the inverse
        of h^-1 y^-1, entry h^-1 of the column of y^-1.
        """
        table = self._table
        inv = table.inverse
        col_x, col_y = table.column(x), table.column(inv[y])
        return [h for h in self._inner.values() if col_x[h] == inv[col_y[inv[h]]]]

    def _extend(
        self, sources: Sequence[int], target: "PermGroup", images: Sequence[int]
    ) -> list[int] | None:
        """Extend ``sources[k] -> images[k]`` to a homomorphism into ``target``.

        One breadth-first walk from the identity along the product-table
        columns of the source indices, which generate this group, reads the
        target's columns of the image indices alongside: the first edge into
        an element sets its image, and every later edge must agree.  Returns
        each element's image index, or ``None`` at the first disagreement.
        """
        column, target_column = self._table.column, target._table.column
        edges = [(column(s), target_column(t)) for s, t in zip(sources, images)]
        image, reached = [0] + [-1] * (self.order - 1), [0]
        for x in reached:
            for source_col, target_col in edges:
                x1, y1 = source_col[x], target_col[image[x]]
                if image[x1] < 0:
                    image[x1] = y1
                    reached.append(x1)
                elif image[x1] != y1:
                    return None
        return image

    def automorphisms(self) -> list["GroupMap"]:
        """All automorphisms, one coset of Inn(G) at a time.

        Aut(G) is the union of the cosets phi Inn(G), and each coset holds
        a map sending the first generator to the representative of its
        class (``_class_reps``).  So the search backtracks over generator
        images with the first image a class representative of the same
        order and class size, and the others any element of the same
        order and class size; partial assignments are pruned when a
        product order disagrees, and an assignment already listed belongs
        to a filled coset and is not extended; any other is extended by
        :meth:`_extend` and kept if the extension is bijective.  Each new
        automorphism phi fills its coset with the maps ``phi o c``, c
        inner: c is given by its key in ``_inner``, the indices of the
        generators' images, so ``phi o c`` sends generator i to
        ``phi(key[i])``, one lookup in phi's image list.  No conjugation
        array is built, and a listed map extends its |G| image entries on
        first use.  Raises :class:`AutBoundExceeded` when the group is
        larger than ``AUT_BOUND``, or once the maps listed come to more
        than ``ENTRY_BOUND`` image entries (|G| per map).  The search runs
        once per group; each call returns a fresh list of the same maps.
        """
        return list(self._automorphisms)

    @cached_property
    def _automorphisms(self) -> tuple["GroupMap", ...]:
        if self.order > AUT_BOUND:
            raise AutBoundExceeded(
                f"|G| = {self.order} exceeds AUT_BOUND = {AUT_BOUND};"
                " set surfmoduli.groups.AUT_BOUND = N to raise it"
            )
        table, class_of = self._table, self._class_of
        gens = [self._index[g] for g in self.generators]
        kind = list(zip(self._class_orders, self._class_sizes))
        order_of = self._element_orders
        candidates = [
            [t for t, ci in enumerate(class_of) if kind[ci] == kind[class_of[g]]]
            for g in gens
        ]
        # every coset holds a map sending the first generator to a class representative
        first = kind[class_of[gens[0]]]
        candidates[0] = [x for x in self._class_reps if kind[class_of[x]] == first]
        pair_orders = [
            [order_of[table.column(g)[gens[j]]] for j in range(pos)]
            for pos, g in enumerate(gens)
        ]
        found: set[tuple] = set()  # the generator images of the maps listed
        assignment: list[int] = []

        def backtrack(pos: int):
            if pos == len(gens):
                key = tuple(assignment)
                if key in found:  # its coset is filled
                    return
                full = self._extend(gens, self, assignment)
                if full is not None and len(set(full)) == self.order:
                    found.update(tuple(map(full.__getitem__, k)) for k in self._inner)
                    if len(found) * self.order > ENTRY_BOUND:
                        raise AutBoundExceeded(
                            f"{len(found)} automorphisms of a group of order {self.order}"
                            f" exceed ENTRY_BOUND = {ENTRY_BOUND} image entries;"
                            " set surfmoduli.groups.ENTRY_BOUND = N to raise it"
                        )
                return
            # x t and t x are conjugate, so the order of x t is read off x's column
            columns = list(map(table.column, assignment))
            for t in candidates[pos]:
                if all(order_of[col[t]] == o for col, o in zip(columns, pair_orders[pos])):
                    assignment.append(t)
                    backtrack(pos + 1)
                    assignment.pop()

        backtrack(0)
        elements = self.elements
        maps = [GroupMap(self, self, [elements[t] for t in key], _check=False) for key in found]
        maps.sort(key=lambda m: tuple(p.images for p in m.images))
        return tuple(maps)


class GroupMap:
    """A homomorphism between materialized groups, given on generators.

    The generator assignment is extended by :meth:`PermGroup._extend`,
    which checks it against every product of an element and a generator;
    at construction an assignment that does not extend to a homomorphism
    raises ``ValueError``.  The maps :meth:`PermGroup.automorphisms` lists
    are known to extend and are built unchecked (``_check=False``): each
    fills its image entries on first use.
    """

    def __init__(
        self,
        source: PermGroup,
        target: PermGroup,
        images: Sequence[Permutation],
        _check: bool = True,
    ):
        if len(images) != len(source.generators):
            raise ValueError("one image per source generator is required")
        self.source = source
        self.target = target
        self.images = tuple(target.elements[target.index_of(t)] for t in images)
        if _check and self._full is None:
            raise ValueError("generator assignment does not extend to a homomorphism")

    @cached_property
    def _full(self) -> list[int] | None:
        """Each source element's image index by :meth:`PermGroup._extend`,
        or ``None`` when the assignment does not extend."""
        source, index = self.source, self.target._index
        gens = [source._index[g] for g in source.generators]
        return source._extend(gens, self.target, [index[t] for t in self.images])

    def __call__(self, g: Permutation) -> Permutation:
        try:
            return self.target.elements[self._full[self.source._index[g]]]
        except KeyError:
            raise ValueError(f"{g!r} is not in the source group") from None

    @cached_property
    def is_bijective(self) -> bool:
        return (
            self.source.order == self.target.order
            and len(set(self._full)) == self.source.order
        )

    @cached_property
    def is_inner(self) -> bool:
        """True iff this is conjugation by some element (endomaps only)."""
        target = self.target
        key = tuple(map(target._index.__getitem__, self.images))
        return self.source is target and key in target._inner

    def compose(self, other: "GroupMap") -> "GroupMap":
        """The map ``self o other`` (apply ``other`` first)."""
        if other.target is not self.source:
            raise ValueError("codomain/domain mismatch in composition")
        return GroupMap(
            other.source,
            self.target,
            tuple(self(other(g)) for g in other.source.generators),
        )

    def inverse(self) -> "GroupMap":
        if not self.is_bijective:
            raise ValueError("only bijective maps can be inverted")
        elements, full, index = self.source.elements, self._full, self.target._index
        back = [elements[full.index(index[g])] for g in self.target.generators]
        return GroupMap(self.target, self.source, back)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupMap)
            and self.source is other.source
            and self.target is other.target
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.images))

    def __repr__(self) -> str:
        kind = "inner " if self.source is self.target and self.is_inner else ""
        return f"<{kind}GroupMap {list(self.images)!r}>"


def close(generators: Sequence[Permutation], name: str | None = None) -> PermGroup:
    """Materialize the group generated by ``generators``.

    All generators must share one degree (:class:`DegreeMismatch`), and
    the closure must stay within ``ORDER_BOUND`` elements and
    ``ENTRY_BOUND`` image entries, read at call time
    (:class:`OrderBoundExceeded`).
    """
    generators = list(generators)
    if not generators:
        raise ValueError("at least one generator is required")
    degree = generators[0].degree
    for g in generators[1:]:
        if g.degree != degree:
            raise DegreeMismatch(
                f"generator degrees differ: {degree} vs {g.degree}"
            )
    table = _mulclose(generators)
    return PermGroup(degree, generators, table, name=name)
