"""Braid words, an exact word problem, and the move calculus on
factorizations: Hurwitz moves, simultaneous conjugation, and creation or
cancellation of adjacent positive/negative node pairs.

Equality of braid words is decided by the left normal form of Elrifai and
Morton (Quart. J. Math. 45, 1994; Epstein et al., *Word Processing in
Groups*, ch. 9): every braid is uniquely

    Delta^k A_1 ... A_r,

with Delta the half twist and A_1 .. A_r permutation braids (positive
braids in which two strands cross at most once) other than 1 and Delta,
each pair (A_j, A_{j+1}) left-weighted: every generator dividing A_{j+1}
on the left divides A_j on the right.  A permutation braid is stored as
its permutation, and a pair is left-weighted through the greatest common
left divisor of two of them, a merge sort of the strands in O(n log n)
steps.  A word is brought to this form letter by letter and two forms
multiply by one right-to-left pass per factor, at polynomial cost; no
table over the n! permutation braids is ever built.  The factors are held
up to conjugation by Delta, so a Delta that a pass frees at the right end
joins the Delta power in O(1) instead of passing every factor.

The tuple of the factors' normal forms is also the canonical form used to
hash factorizations during orbit enumeration, since factorwise braid
equality is what the moves preserve.  Orbits run on normal forms: each
successor is a product of normal forms, so no long word is re-read, and
the representatives are spelled from the forms.  A normal form with more
than ``WORD_CAP`` simple factors (10000, the Delta power counted, read at
call time) raises :class:`BudgetExceeded`.
Every simple factor is a tuple of the strand count, so a normal form on
more than ``STRAND_CAP`` strands (10^6, read at call time) is refused
before one is built.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    CancelMismatch,
    PositionOutOfRange,
    StrandMismatch,
)

WORD_CAP = 10_000
STRAND_CAP = 1_000_000
NODE_PAIR_CAP = 10_000


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


# A normal form is (k, (A_1, .., A_r)) for Delta^k A_1 .. A_r.  A simple
# factor is the one-line tuple p of a permutation of 0 .. n-1, and the
# positive word s_i1 .. s_im is the composite s_i1 o .. o s_im, where s_i
# exchanges i-1 and i.  So p s_i exchanges the entries at positions i-1
# and i, s_i p exchanges the values i-1 and i, and
#   s_i divides p on the right  iff  p[i-1] > p[i],
#   s_i divides p on the left   iff  value i stands before value i-1.
NormalForm = tuple[int, tuple[tuple[int, ...], ...]]

# Left-weighted pairs of simple factors, for every strand count at once (a
# factor's length is its strand count); (p, Delta) -> (Delta, tau(p)) among
# them is also how tau is memoised.  Cleared when it would hold about this
# many permutation entries, so it stays a few MiB at any strand count.
_WEIGHTED: dict[tuple[tuple, tuple], tuple[tuple, tuple]] = {}
_WEIGHTED_ENTRIES = 1 << 18


def _remember(pair: tuple[tuple, tuple], weighted: tuple[tuple, tuple]) -> tuple[tuple, tuple]:
    """Store the left-weighting of ``pair`` in ``_WEIGHTED`` and return it."""
    if len(_WEIGHTED) * len(pair[0]) >= _WEIGHTED_ENTRIES:
        _WEIGHTED.clear()
    _WEIGHTED[pair] = weighted
    return weighted


def _perm_inverse(p: Sequence[int]) -> list[int]:
    q = [0] * len(p)
    for j, x in enumerate(p):
        q[x] = j
    return q


def _run(start: int, end: int, kinds: int) -> list[int]:
    return list(range(start, end)) if kinds & 3 else list(range(end - 1, start - 1, -1))


def _merge(low: list[int], high: list[int], pa: list[int], pb: list[int]) -> list[int]:
    """Merge the meet's orders of two adjacent label ranges (see
    ``_LeftNormalForms._meet``); ``pa`` and ``pb`` give each label's
    position in the two factors.

    A label of ``high`` passes the last t labels of ``low`` when it and
    every label before it in ``high`` stand before all of them in both
    factors.  So the output alternates blocks of ``high`` and ``low``,
    and each block end is found by bisection in running extrema.
    """
    if pa[high[0]] > pa[low[-1]] or pb[high[0]] > pb[low[-1]]:
        return low + high
    if max(map(pa.__getitem__, high)) < min(map(pa.__getitem__, low)) and max(
        map(pb.__getitem__, high)
    ) < min(map(pb.__getitem__, low)):
        return high + low
    # least positions among the last t labels of low, t = 1, 2, ..
    last_a = list(itertools.accumulate(map(pa.__getitem__, reversed(low)), min))
    last_b = list(itertools.accumulate(map(pb.__getitem__, reversed(low)), min))
    neg_a = list(map(operator.neg, last_a))
    neg_b = list(map(operator.neg, last_b))
    # greatest positions among the first j labels of high, j = 1, 2, ..
    first_a = list(itertools.accumulate(map(pa.__getitem__, high), max))
    first_b = list(itertools.accumulate(map(pb.__getitem__, high), max))
    out, i, j = [], 0, 0
    while i < len(low):
        t = len(low) - i
        passed = min(bisect_right(first_a, last_a[t - 1]), bisect_right(first_b, last_b[t - 1]))
        out += high[j:passed]
        j = passed
        if j == len(high):
            break
        # high[j] passes the last t labels of low for t up to this
        t = min(bisect_left(neg_a, -first_a[j]), bisect_left(neg_b, -first_b[j]))
        out += low[i : len(low) - t]
        i = len(low) - t
    return out + low[i:] + high[j:]


class _LeftNormalForms:
    """Left normal forms in the braid group on ``n`` strands."""

    def __init__(self, n: int):
        if n > STRAND_CAP:
            raise BudgetExceeded(
                f"B_{n} exceeds STRAND_CAP = {STRAND_CAP} strands;"
                " set surfmoduli.braids.STRAND_CAP = N to raise it"
            )
        self.n = n
        self.identity = tuple(range(n))
        self.delta = self.identity[::-1]

    def _tau(self, p: tuple) -> tuple:
        """Delta^-1 p Delta, which maps s_i to s_{n-i}.  The pair (p, Delta)
        left-weights to (Delta, tau(p)), so tau is memoised among them."""
        out = _WEIGHTED.get((p, self.delta))
        if out is None:
            top = self.n - 1
            out = _remember((p, self.delta), (self.delta, tuple([top - x for x in reversed(p)])))
        return out[1]

    @staticmethod
    def _complement(p: tuple) -> tuple:
        """p^-1 Delta, the simple factor completing p to Delta."""
        return tuple(_perm_inverse(p)[::-1])

    def _letter(self, i: int) -> tuple:
        p = list(self.identity)
        p[i - 1], p[i] = i, i - 1
        return tuple(p)

    def _meet(self, pa: list[int], pb: list[int]) -> tuple:
        """The greatest common left divisor of two simple factors, given
        the position of each label 0 .. n-1 in either.

        Its order of the labels is a merge sort: a range of labels is
        ordered as in the meet of the two factors cut down to those
        strands, and a label r of the upper half goes before the last t
        labels l of the lower half for the greatest t such that r stands
        before each such l in both factors.  Ranges that one factor keeps
        in order, or that both reverse, are ordered from the start, so
        factors that differ from 1 or Delta on few strands take a few
        linear passes.
        """
        # from label j - 1 to j: 1 kept in order by a, 2 by b, 3 by both,
        # 0 reversed by both
        steps = map(
            operator.add,
            map(operator.lt, pa, pa[1:]),
            map(operator.mul, map(operator.lt, pb, pb[1:]), itertools.repeat(2)),
        )
        # kinds of the current range: 1 ascending in a, 2 in b, 4 reversed by both
        runs, start, kinds, j = [], 0, 7, 1
        for step, same in itertools.groupby(steps):
            step = step or 4
            if kinds & step:
                kinds &= step
            else:
                runs.append(_run(start, j, kinds))
                start, kinds = j, step
            j += len(list(same))
        runs.append(_run(start, self.n, kinds))
        while len(runs) > 1:
            runs = [
                _merge(runs[i], runs[i + 1], pa, pb) if i + 1 < len(runs) else runs[i]
                for i in range(0, len(runs), 2)
            ]
        return tuple(runs[0])

    def _weight(self, x: tuple, y: tuple) -> tuple[tuple, tuple]:
        """The left-weighted pair (x g, g^-1 y) for x y, where g, the
        greatest common left divisor of y and x^-1 Delta, is the most of
        y that x can take while staying simple."""
        out = _WEIGHTED.get((x, y))
        if out is not None:
            return out
        # label v stands at position n-1 - x[v] in x^-1 Delta
        top = self.n - 1
        g = self._meet([top - v for v in x], _perm_inverse(y))
        g_inv = _perm_inverse(g)
        return _remember((x, y), (tuple(map(x.__getitem__, g)), tuple(map(g_inv.__getitem__, y))))

    def _append(self, k: int, odd: bool, factors: list, y: tuple) -> tuple[int, bool]:
        """Multiply Delta^k tau^odd(factors) on the right by tau^odd(y), in
        place, and return the new power of Delta and parity of tau.

        Left-weighting commutes with tau, so the factors are held in the
        frame of tau^odd and y is given in it.  One right-to-left pass of
        left-weighting restores the normal form; it stops at the first
        pair whose left factor does not change.  A pair that left-weights
        to (Delta, z) ends it: P Delta S is Delta tau(P) S, or
        Delta tau(P tau(S)) with the parity toggled, whichever of P and S
        is shorter gets tau, so a cancellation at the right end costs O(1).
        """
        if y == self.identity:
            return k, odd
        if y == self.delta:
            return k + 1, not odd
        factors.append(y)
        j = len(factors) - 1
        while j > 0:
            x = factors[j - 1]
            x2, y2 = self._weight(x, factors[j])
            if x2 == x:
                break
            if x2 == self.delta:
                factors[j - 1 : j + 1] = (y2,)
                if 2 * (j - 1) <= len(factors):
                    factors[: j - 1] = map(self._tau, factors[: j - 1])
                else:
                    factors[j - 1 :] = map(self._tau, factors[j - 1 :])
                    odd = not odd
                k += 1
                break
            factors[j - 1], factors[j] = x2, y2
            j -= 1
        while factors and factors[-1] == self.identity:
            factors.pop()
        return k, odd

    def _form(self, k: int, odd: bool, factors: list) -> NormalForm:
        """The normal form Delta^k tau^odd(factors)."""
        return (k, tuple(map(self._tau, factors)) if odd else tuple(factors))

    def from_letters(self, letters: Iterable[tuple[int, int]]) -> NormalForm:
        """The normal form of a word, one simple factor per letter.

        s_i^-1 is (s_i^-1 Delta) Delta^-1, and X Delta^-1 is
        Delta^-1 tau(X), so a negative letter appends s_i^-1 Delta and
        toggles the frame; tau(s_i) is s_{n-i}.
        """
        n = self.n
        k, odd, factors = 0, False, []
        for i, s in letters:
            y = self._letter(n - i if odd else i)
            if s > 0:
                k, odd = self._append(k, odd, factors, y)
            else:
                k, odd = self._append(k, odd, factors, self._complement(y))
                k, odd = k - 1, not odd
        return self._form(k, odd, factors)

    def mul(self, a: NormalForm, b: NormalForm) -> NormalForm:
        """Delta^k1 A Delta^k2 B = Delta^(k1+k2) tau^k2(A) B: A is held in
        the frame of tau^k2 and the factors of B are appended one by one."""
        (k1, left), (k2, right) = a, b
        factors, k, odd = list(left), k1 + k2, k2 % 2 == 1
        for y in right:
            k, odd = self._append(k, odd, factors, self._tau(y) if odd else y)
        return self._form(k, odd, factors)

    def inv(self, a: NormalForm) -> NormalForm:
        """(Delta^k A_1 .. A_r)^-1 is Delta^(-k-r) B_r .. B_1, already in
        normal form, with B_j = tau^(k+j)(A_j^-1 Delta)."""
        k, factors = a
        out = []
        for j in range(len(factors), 0, -1):
            c = self._complement(factors[j - 1])
            out.append(self._tau(c) if (k + j) % 2 else c)
        return (-k - len(factors), tuple(out))

    def _positive_word(self, p: tuple) -> list[tuple[int, int]]:
        """A shortest positive word for the simple factor p: sort p by
        adjacent exchanges p -> p s_i and read them backwards."""
        p, swaps, i = list(p), [], 1
        while i < self.n:
            if p[i - 1] > p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                swaps.append((i, 1))
                i = max(i - 1, 1)
            else:
                i += 1
        return swaps[::-1]

    def spell(self, form: NormalForm) -> tuple[tuple[int, int], ...]:
        """A word for a normal form, with each Delta^-1 absorbed into the
        factor after it: Delta^-m A_1 .. A_r with m <= r is the product
        of the inverses of tau^(m-j)(A_j^-1 Delta) for j <= m, followed
        by A_(m+1) .. A_r.  Only Delta powers beyond r are spelled whole."""
        k, factors = form
        if k >= 0:
            out = self._positive_word(self.delta) * k if k else []
            for a in factors:
                out += self._positive_word(a)
            return tuple(out)
        m = min(-k, len(factors))
        out = []
        if -k > m:
            out = [(i, -1) for i, _ in reversed(self._positive_word(self.delta))] * (-k - m)
        for j, a in enumerate(factors):
            if j >= m:
                out += self._positive_word(a)
                continue
            c = self._complement(a)
            if (m - 1 - j) % 2:
                c = self._tau(c)
            out += [(i, -1) for i, _ in reversed(self._positive_word(c))]
        return tuple(out)


def _check_size(form: NormalForm) -> NormalForm:
    """Raise when the normal form has more than ``WORD_CAP`` simple
    factors, the Delta power counted; the cap is read at call time."""
    if abs(form[0]) + len(form[1]) > WORD_CAP:
        raise BudgetExceeded(
            f"normal form exceeded WORD_CAP = {WORD_CAP} simple factors;"
            " set surfmoduli.braids.WORD_CAP = N to raise it"
        )
    return form


def _normal_form(word: BraidWord) -> NormalForm:
    return _check_size(_LeftNormalForms(word.strands).from_letters(word.letters))


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Exact equality in the braid group: the left normal forms agree."""
    if w1.strands != w2.strands:
        raise StrandMismatch(f"B_{w1.strands} vs B_{w2.strands}")
    return _normal_form(w1) == _normal_form(w2)


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
    def _of(cls, strands: int, factors: tuple) -> "Factorization":
        """The factorization of a tuple of words known to be on ``strands``."""
        f = object.__new__(cls)
        f.strands, f.factors = strands, factors
        return f

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


# The move formulas, written once for any representation of the factors:
# words with concatenation, or the normal forms of an orbit enumeration.


def _hurwitz(t: tuple, i: int, mul, inv) -> tuple:
    """(.., a, b, ..) -> (.., a b a^-1, a, ..) at positions i, i + 1."""
    a, b = t[i - 1], t[i]
    return t[: i - 1] + (mul(mul(a, b), inv(a)), a) + t[i + 1 :]


def _hurwitz_inverse(t: tuple, i: int, mul, inv) -> tuple:
    """(.., a, b, ..) -> (.., b, b^-1 a b, ..) at positions i, i + 1."""
    a, b = t[i - 1], t[i]
    return t[: i - 1] + (b, mul(mul(inv(b), a), b)) + t[i + 1 :]


def _conjugate(t: tuple, w, w_inv, mul) -> tuple:
    return tuple(mul(mul(w, x), w_inv) for x in t)


def hurwitz_move(f: Factorization, i: int) -> Factorization:
    """(.., t_i, t_{i+1}, ..) -> (.., t_i t_{i+1} t_i^-1, t_i, ..)."""
    _check_position(f, i, len(f) - 1)
    return Factorization(
        f.strands, _hurwitz(f.factors, i, operator.mul, BraidWord.inverse)
    )


def hurwitz_move_inverse(f: Factorization, i: int) -> Factorization:
    """(.., t_i, t_{i+1}, ..) -> (.., t_{i+1}, t_{i+1}^-1 t_i t_{i+1}, ..)."""
    _check_position(f, i, len(f) - 1)
    return Factorization(
        f.strands, _hurwitz_inverse(f.factors, i, operator.mul, BraidWord.inverse)
    )


def simultaneous_conjugation(f: Factorization, w: BraidWord) -> Factorization:
    """Conjugate every factor by ``w``; the product is conjugated too."""
    if w.strands != f.strands:
        raise StrandMismatch(f"B_{w.strands} vs B_{f.strands}")
    return Factorization(
        f.strands, _conjugate(f.factors, w, w.inverse(), operator.mul)
    )


def _node_pair(strands: int, u: BraidWord) -> tuple[BraidWord, BraidWord]:
    half = BraidWord._raw(strands, ((1, 1), (1, 1)))
    ui = u.inverse()
    return (u * half * ui, u * half.inverse() * ui)


def node_pair_move(
    f: Factorization, i: int, u: BraidWord, direction: str
) -> Factorization:
    """Insert or remove the adjacent node pair (u s1^2 u^-1, u s1^-2 u^-1).

    ``direction`` is ``"create"`` or ``"cancel"``; any other value raises
    ``ValueError``.  Creation inserts the pair so that it occupies
    positions i and i + 1; cancellation requires the factors already at
    those positions to be braid-equal to the pair for the supplied
    conjugator, else :class:`CancelMismatch`.  The product is preserved
    either way.
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
        if not (braid_equal(t[i - 1], pos) and braid_equal(t[i], neg)):
            raise CancelMismatch(
                f"factors at positions {i}, {i + 1} are not the node pair "
                f"for the supplied conjugator"
            )
        del t[i - 1 : i + 1]
        return Factorization(f.strands, t)
    raise ValueError(f"unknown direction {direction!r}")


def canonical_key(f: Factorization) -> tuple:
    """Hashable canonical form: the left normal form of every factor."""
    return tuple(map(_normal_form, f.factors))


class _OrbitForms:
    """The distinct normal forms met by one orbit enumeration, numbered
    in order of appearance.  States are tuples of these numbers, and
    products and inverses are memoised on them, so each is computed once
    per enumeration; every new form is checked against ``WORD_CAP``."""

    def __init__(self, strands: int):
        self.strands = strands
        self.algebra = _LeftNormalForms(strands)
        self.forms: list[NormalForm] = []
        self._ids: dict[NormalForm, int] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._inverses: dict[int, int] = {}

    def intern(self, form: NormalForm) -> int:
        i = self._ids.get(form)
        if i is None:
            _check_size(form)
            i = self._ids[form] = len(self.forms)
            self.forms.append(form)
        return i

    def word(self, w: BraidWord) -> int:
        return self.intern(self.algebra.from_letters(w.letters))

    def mul(self, a: int, b: int) -> int:
        out = self._products.get((a, b))
        if out is None:
            out = self.intern(self.algebra.mul(self.forms[a], self.forms[b]))
            self._products[(a, b)] = out
        return out

    def inv(self, a: int) -> int:
        out = self._inverses.get(a)
        if out is None:
            out = self._inverses[a] = self.intern(self.algebra.inv(self.forms[a]))
        return out


class OrbitResult:
    """Orbit states (as representative factorizations) plus an
    exhaustion flag; ``exhausted`` is False when the state budget
    truncated the enumeration.

    ``keys`` are the states' canonical keys in sorted order, and each
    representative is spelled from its key's normal forms; within one
    orbit, equal normal forms share one :class:`BraidWord`."""

    __slots__ = ("factorizations", "keys", "exhausted")

    def __init__(self, forms: _OrbitForms, states: set[tuple], exhausted: bool):
        # rank the distinct forms once; tuples of ranks sort as the keys do
        used = sorted(set(itertools.chain.from_iterable(states)), key=forms.forms.__getitem__)
        rank = [0] * len(forms.forms)
        for r, i in enumerate(used):
            rank[i] = r
        ranked = sorted(tuple(map(rank.__getitem__, s)) for s in states)
        by_rank = list(map(forms.forms.__getitem__, used))
        words = [BraidWord._raw(forms.strands, forms.algebra.spell(form)) for form in by_rank]
        self.keys = [tuple(map(by_rank.__getitem__, r)) for r in ranked]
        self.factorizations = [
            Factorization._of(forms.strands, tuple(map(words.__getitem__, r))) for r in ranked
        ]
        self.exhausted = exhausted

    def __len__(self) -> int:
        return len(self.factorizations)

    def __repr__(self) -> str:
        return f"<OrbitResult: {len(self)} states, exhausted={self.exhausted}>"


def _orbit(f: Factorization, forms: _OrbitForms, budget: int, moves) -> OrbitResult:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start = tuple(map(forms.intern, canonical_key(f)))
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in moves(queue.popleft()):
            if nxt in seen:
                continue
            if len(seen) >= budget:
                return OrbitResult(forms, seen, exhausted=False)
            seen.add(nxt)
            queue.append(nxt)
    return OrbitResult(forms, seen, exhausted=True)


def _hurwitz_moves(cur: tuple, forms: _OrbitForms) -> list[tuple]:
    """Each Hurwitz move, then its inverse, at positions 1, 2, ..."""
    out = []
    for i in range(1, len(cur)):
        out.append(_hurwitz(cur, i, forms.mul, forms.inv))
        out.append(_hurwitz_inverse(cur, i, forms.mul, forms.inv))
    return out


def hurwitz_orbit(f: Factorization, budget: int = 10_000) -> OrbitResult:
    """Breadth-first closure under Hurwitz moves and their inverses.

    States are identified by canonical form, so two factorizations that
    are factorwise braid-equal count once.
    """
    forms = _OrbitForms(f.strands)
    return _orbit(f, forms, budget, lambda cur: _hurwitz_moves(cur, forms))


def m_equivalence_orbit(
    f: Factorization, budget: int, conjugator_cap: int = 1
) -> OrbitResult:
    """Bounded closure under the full move set: Hurwitz moves, simultaneous
    conjugation by single generators, and node-pair creation/cancellation
    with conjugators up to the given length.

    The node pair of a conjugator ``l w`` is the pair of ``w`` conjugated
    by the letter ``l``, so the pairs for conjugators of length k are
    those for length k - 1 conjugated by each generator, letters
    outermost.  The pairs come in the order of their conjugators: the
    empty word, then the words of each length in lexicographic order.

    Every state's moves scan all the pairs, so a cap that needs more than
    ``NODE_PAIR_CAP`` of them (10000, read at call time) raises
    :class:`BudgetExceeded` before one is built.

    The move set is infinite in principle, so this only ever produces a
    bounded certificate: states reachable within the budget.
    """
    total = level = 1
    for _ in range(conjugator_cap):
        level *= 2 * (f.strands - 1)
        total += level
        if total > NODE_PAIR_CAP:
            raise BudgetExceeded(
                f"conjugator_cap = {conjugator_cap} on B_{f.strands} needs more than"
                f" NODE_PAIR_CAP = {NODE_PAIR_CAP} node pairs;"
                " set surfmoduli.braids.NODE_PAIR_CAP = N to raise it"
            )
    forms = _OrbitForms(f.strands)
    gens = [
        forms.word(BraidWord.generator(f.strands, i, s))
        for i in range(1, f.strands)
        for s in (1, -1)
    ]
    gens = [(g, forms.inv(g)) for g in gens]
    level = [tuple(map(forms.word, _node_pair(f.strands, BraidWord.identity(f.strands))))]
    pairs = list(level)
    for _ in range(conjugator_cap):
        level = [_conjugate(p, g, g_inv, forms.mul) for g, g_inv in gens for p in level]
        pairs += level

    def moves(cur: tuple):
        out = _hurwitz_moves(cur, forms)
        for g, g_inv in gens:
            out.append(_conjugate(cur, g, g_inv, forms.mul))
        for pair in pairs:
            for i in range(len(cur) + 1):
                out.append(cur[:i] + pair + cur[i:])
            for i in range(len(cur) - 1):
                if cur[i : i + 2] == pair:
                    out.append(cur[:i] + cur[i + 2 :])
        return out

    return _orbit(f, forms, budget, moves)
