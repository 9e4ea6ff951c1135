"""Braid words, an exact word problem, and the move calculus on
factorizations: Hurwitz moves, simultaneous conjugation, and creation or
cancellation of adjacent positive/negative node pairs.

Equality of braid words is decided through the faithful action on the
free group of rank n,

    sigma_i :  x_i -> x_i x_{i+1} x_i^{-1},   x_{i+1} -> x_i,

comparing the freely reduced images of all n free generators.  The tuple
of images is also the canonical form used to hash factorizations during
orbit enumeration, since factorwise braid equality is what the moves
preserve.  Each image is carried together with its inverse while the
letters are read, so a product of two reduced words is reduced by
cancelling only where they meet: the longest common suffix of the left
word and the right word's inverse is cut off both words, and the rest
is joined by slicing, never by re-walking either word.  Image words can grow
exponentially, so a per-word length cap (``WORD_CAP``, 10000 letters,
read at call time; pass ``cap=N`` to override it) aborts with
:class:`BudgetExceeded` instead of thrashing.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from functools import lru_cache
from typing import Iterable, Literal, Sequence

from .errors import (
    BudgetExceeded,
    CancelMismatch,
    PositionOutOfRange,
    StrandMismatch,
)

WORD_CAP = 10_000

# a free-group word: tuple of (generator index 1..n, sign), freely reduced
FreeWord = tuple[tuple[int, int], ...]


def free_reduce(letters: Iterable[tuple[int, int]]) -> FreeWord:
    """Cancel adjacent inverse pairs; the result is the unique reduced form."""
    stack: list[tuple[int, int]] = []
    for gen, sign in letters:
        if stack and stack[-1][0] == gen and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((gen, sign))
    return tuple(stack)


def free_mul(*words: FreeWord) -> FreeWord:
    return free_reduce(itertools.chain.from_iterable(words))


def free_inv(word: FreeWord) -> FreeWord:
    return tuple((gen, -sign) for gen, sign in reversed(word))


class BraidWord:
    """A word in the Artin generators of the braid group on n strands.

    Letters are (index, sign) pairs with 1 <= index <= n - 1; the empty
    word is the identity.  The serialized form is a list of signed
    integers, e.g. ``[1, -2, 1]``.
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[tuple[int, int]] = ()):
        if strands < 2:
            raise ValueError("braid groups need at least 2 strands")
        letters = tuple((int(i), int(s)) for i, s in letters)
        for i, s in letters:
            if not 1 <= i <= strands - 1:
                raise ValueError(f"generator index {i} out of range for B_{strands}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {s}")
        self.strands = strands
        self.letters = letters

    @classmethod
    def _raw(cls, strands: int, letters: tuple) -> "BraidWord":
        # products, inverses and conjugates of valid words are valid; skip validation
        w = object.__new__(cls)
        w.strands = strands
        w.letters = letters
        return w

    @classmethod
    def from_ints(cls, strands: int, ints: Iterable[int]) -> "BraidWord":
        return cls(strands, ((abs(v), 1 if v > 0 else -1) for v in ints))

    def to_ints(self) -> list[int]:
        return [i * s for i, s in self.letters]

    @classmethod
    def generator(cls, strands: int, index: int, sign: int = 1) -> "BraidWord":
        return cls(strands, [(index, sign)])

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise StrandMismatch(f"B_{self.strands} vs B_{other.strands}")
        return BraidWord._raw(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord._raw(
            self.strands, tuple((i, -s) for i, s in reversed(self.letters))
        )

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        # literal word equality; use braid_equal for group-element equality
        return (
            isinstance(other, BraidWord)
            and self.strands == other.strands
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {self.to_ints()})"


def _join(u: FreeWord, u_inv: FreeWord, v: FreeWord, v_inv: FreeWord):
    """The reduced product u v and its inverse, for reduced u and v.

    Only the junction can cancel: the last k letters of u against the
    first k of v, which are the last k letters of v^-1 inverted, so k is
    the length of the longest common suffix of u and v^-1.
    """
    k = 0
    if u and v and u[-1] == v_inv[-1]:
        agree = map(operator.eq, reversed(u), reversed(v_inv))
        k = len(list(itertools.takewhile(bool, agree)))
    return u[: len(u) - k] + v[k:], v_inv[: len(v) - k] + u_inv[k:]


@lru_cache(maxsize=65536)
def _artin_images(strands: int, letters: tuple, cap: int) -> tuple[FreeWord, ...]:
    """Images of the free generators under the word's Artin action.

    Processes letters left to right, maintaining the images of
    x_1 .. x_n under the prefix read so far, each with its inverse; each
    letter only rewrites the two neighbouring images.
    """
    images: list[FreeWord] = [((j, 1),) for j in range(1, strands + 1)]
    inverses: list[FreeWord] = [((j, -1),) for j in range(1, strands + 1)]
    for i, s in letters:
        a, a_inv = images[i - 1], inverses[i - 1]
        b, b_inv = images[i], inverses[i]
        if s == 1:
            # x_i -> a b a^-1, x_{i+1} -> a
            ab, ab_inv = _join(a, a_inv, b, b_inv)
            images[i - 1], inverses[i - 1] = _join(ab, ab_inv, a_inv, a)
            images[i], inverses[i] = a, a_inv
        else:
            # x_i -> b, x_{i+1} -> b^-1 a b
            images[i - 1], inverses[i - 1] = b, b_inv
            ba, ba_inv = _join(b_inv, b, a, a_inv)
            images[i], inverses[i] = _join(ba, ba_inv, b, b_inv)
        if len(images[i - 1]) > cap or len(images[i]) > cap:
            name = "WORD_CAP" if cap == WORD_CAP else "cap"
            raise BudgetExceeded(
                f"free-group image exceeded {name} = {cap} letters;"
                " pass cap=N to raise it"
            )
    return tuple(images)


def artin_images(word: BraidWord, cap: int | None = None) -> tuple[FreeWord, ...]:
    """Canonical form of a braid word: the reduced images of x_1 .. x_n.

    ``cap`` defaults to the module's ``WORD_CAP`` at call time.
    """
    return _artin_images(word.strands, word.letters, WORD_CAP if cap is None else cap)


def braid_equal(w1: BraidWord, w2: BraidWord, cap: int | None = None) -> bool:
    """Exact equality in the braid group, via the faithful free action."""
    if w1.strands != w2.strands:
        raise StrandMismatch(f"B_{w1.strands} vs B_{w2.strands}")
    return artin_images(w1, cap) == artin_images(w2, cap)


class Factorization:
    """An ordered tuple of braid words on a common strand count."""

    __slots__ = ("strands", "factors")

    def __init__(self, strands: int, factors: Sequence[BraidWord] = ()):
        factors = tuple(factors)
        for f in factors:
            if f.strands != strands:
                raise StrandMismatch(
                    f"factor on {f.strands} strands in a B_{strands} factorization"
                )
        self.strands = strands
        self.factors = factors

    @classmethod
    def from_ints(cls, strands: int, factors: Iterable[Iterable[int]]):
        return cls(strands, [BraidWord.from_ints(strands, f) for f in factors])

    def to_ints(self) -> list[list[int]]:
        return [f.to_ints() for f in self.factors]

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, i: int) -> BraidWord:
        return self.factors[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Factorization)
            and self.strands == other.strands
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.strands, self.factors))

    def __repr__(self) -> str:
        return f"Factorization({self.strands}, {self.to_ints()})"


def product(f: Factorization) -> BraidWord:
    """Concatenation of all factors in order; empty gives the identity."""
    out = BraidWord.identity(f.strands)
    for w in f.factors:
        out = out * w
    return out


def _check_position(f: Factorization, i: int, top: int) -> None:
    if not 1 <= i <= top:
        raise PositionOutOfRange(
            f"position {i} invalid for a factorization of length {len(f)}"
        )


def hurwitz_move(f: Factorization, i: int) -> Factorization:
    """(.., t_i, t_{i+1}, ..) -> (.., t_i t_{i+1} t_i^-1, t_i, ..)."""
    _check_position(f, i, len(f) - 1)
    t = list(f.factors)
    a, b = t[i - 1], t[i]
    t[i - 1] = a * b * a.inverse()
    t[i] = a
    return Factorization(f.strands, t)


def hurwitz_move_inverse(f: Factorization, i: int) -> Factorization:
    """(.., t_i, t_{i+1}, ..) -> (.., t_{i+1}, t_{i+1}^-1 t_i t_{i+1}, ..)."""
    _check_position(f, i, len(f) - 1)
    t = list(f.factors)
    a, b = t[i - 1], t[i]
    t[i - 1] = b
    t[i] = b.inverse() * a * b
    return Factorization(f.strands, t)


def simultaneous_conjugation(f: Factorization, w: BraidWord) -> Factorization:
    """Conjugate every factor by ``w``; the product is conjugated too."""
    if w.strands != f.strands:
        raise StrandMismatch(f"B_{w.strands} vs B_{f.strands}")
    wi = w.inverse()
    return Factorization(f.strands, [w * t * wi for t in f.factors])


def _node_pair(strands: int, u: BraidWord) -> tuple[BraidWord, BraidWord]:
    half = BraidWord._raw(strands, ((1, 1), (1, 1)))
    ui = u.inverse()
    return (u * half * ui, u * half.inverse() * ui)


def node_pair_move(
    f: Factorization,
    i: int,
    u: BraidWord,
    direction: Literal["create", "cancel"],
    cap: int | None = None,
) -> Factorization:
    """Insert or remove the adjacent node pair (u s1^2 u^-1, u s1^-2 u^-1).

    Creation inserts the pair so that it occupies positions i and i + 1;
    cancellation requires the factors already at those positions to be
    braid-equal to the pair for the supplied conjugator, else
    :class:`CancelMismatch`.  The product is preserved either way.
    ``cap`` bounds the word-problem check as in :func:`braid_equal`.
    """
    if u.strands != f.strands:
        raise StrandMismatch(f"B_{u.strands} vs B_{f.strands}")
    pos, neg = _node_pair(f.strands, u)
    t = list(f.factors)
    if direction == "create":
        _check_position(f, i, len(f) + 1)
        t[i - 1 : i - 1] = [pos, neg]
        return Factorization(f.strands, t)
    if direction == "cancel":
        _check_position(f, i, len(f) - 1)
        if not (braid_equal(t[i - 1], pos, cap) and braid_equal(t[i], neg, cap)):
            raise CancelMismatch(
                f"factors at positions {i}, {i + 1} are not the node pair "
                f"for the supplied conjugator"
            )
        del t[i - 1 : i + 1]
        return Factorization(f.strands, t)
    raise ValueError(f"unknown direction {direction!r}")


def canonical_key(f: Factorization, cap: int | None = None) -> tuple:
    """Hashable canonical form: the Artin-image tuple of every factor."""
    return tuple(artin_images(w, cap) for w in f.factors)


class OrbitResult:
    """Orbit states (as representative factorizations) plus an
    exhaustion flag; ``exhausted`` is False when the state budget
    truncated the enumeration."""

    __slots__ = ("factorizations", "keys", "exhausted")

    def __init__(self, reps: dict[tuple, Factorization], exhausted: bool):
        ordered = sorted(reps)
        self.keys = ordered
        self.factorizations = [reps[k] for k in ordered]
        self.exhausted = exhausted

    def __len__(self) -> int:
        return len(self.factorizations)

    def __repr__(self) -> str:
        return f"<OrbitResult: {len(self)} states, exhausted={self.exhausted}>"


def _orbit(
    f: Factorization,
    budget: int,
    moves,
    cap: int | None,
) -> OrbitResult:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start = canonical_key(f, cap)
    reps = {start: f}
    queue = deque([f])
    exhausted = True
    while queue:
        cur = queue.popleft()
        for nxt in moves(cur):
            key = canonical_key(nxt, cap)
            if key in reps:
                continue
            if len(reps) >= budget:
                return OrbitResult(reps, exhausted=False)
            reps[key] = nxt
            queue.append(nxt)
    return OrbitResult(reps, exhausted)


def _hurwitz_moves(cur: Factorization) -> list[Factorization]:
    """Each Hurwitz move, then its inverse, at positions 1, 2, ..."""
    out = []
    for i in range(1, len(cur)):
        out.append(hurwitz_move(cur, i))
        out.append(hurwitz_move_inverse(cur, i))
    return out


def hurwitz_orbit(
    f: Factorization,
    budget: int = 10_000,
    cap: int | None = None,
    reverse_moves: bool = False,
) -> OrbitResult:
    """Breadth-first closure under Hurwitz moves and their inverses.

    States are identified by canonical form, so two factorizations that
    are factorwise braid-equal count once.  ``reverse_moves`` flips the
    move generation order; the resulting state set must not change (used
    to test order independence).
    """
    def moves(cur: Factorization):
        out = _hurwitz_moves(cur)
        return reversed(out) if reverse_moves else out

    return _orbit(f, budget, moves, cap)


def _words_up_to(strands: int, max_len: int) -> list[BraidWord]:
    letters = [(i, s) for i in range(1, strands) for s in (1, -1)]
    out = [BraidWord.identity(strands)]
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            out.append(BraidWord(strands, combo))
    return out


def m_equivalence_orbit(
    f: Factorization,
    budget: int,
    conjugator_cap: int = 1,
    cap: int | None = None,
) -> OrbitResult:
    """Bounded closure under the full move set: Hurwitz moves, simultaneous
    conjugation by single generators, and node-pair creation/cancellation
    with conjugators up to the given length.

    The move set is infinite in principle, so this only ever produces a
    bounded certificate: states reachable within the budget.
    """
    conjugators = _words_up_to(f.strands, conjugator_cap)
    gens = [
        BraidWord.generator(f.strands, i, s)
        for i in range(1, f.strands)
        for s in (1, -1)
    ]

    def moves(cur: Factorization):
        out = _hurwitz_moves(cur)
        for g in gens:
            out.append(simultaneous_conjugation(cur, g))
        for u in conjugators:
            for i in range(1, len(cur) + 2):
                out.append(node_pair_move(cur, i, u, "create"))
            for i in range(1, len(cur)):
                try:
                    out.append(node_pair_move(cur, i, u, "cancel", cap))
                except CancelMismatch:
                    pass
        return out

    return _orbit(f, budget, moves, cap)
