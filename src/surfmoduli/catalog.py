"""Built-in group constructors, name resolution and the group file format.

Names understood by :func:`builtin`:

* ``C<n>``       cyclic of order n (an n-cycle on n points)
* ``D<n>``       dihedral of order 2n acting on the n-gon, n >= 3
* ``S<n>``       symmetric group on n points
* ``A<n>``       alternating group on n points, n >= 3
* ``EA<p>x<p>``  elementary abelian (Z/p)^2 on 2p points, p prime
* ``PSL2_<p>``   PSL(2, p) on the projective line (p + 1 points), p prime
* products of ``C``, ``D``, ``S`` and ``A`` names joined with ``x``, e.g.
  ``C4xC2`` (factors act on disjoint points)

Each constructor refuses a group before its closure when the order
exceeds ``ORDER_BOUND`` or order x degree exceeds ``ENTRY_BOUND`` (both
in :mod:`surfmoduli.groups`): at the defaults PSL2_53 builds and PSL2_59
is refused.

The plain-text group file format is bit-exact: line 1 is ``degree n``,
every further nonempty line is one generator as n space-separated 1-based
images, and lines starting with ``#`` are comments.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterable

from . import groups as _groups
from .errors import OrderBoundExceeded
from .groups import Permutation, PermGroup, close

def _refuse_above_bound(name: str, factors: Iterable[int], degree: int) -> None:
    """Raise before building ``name`` if its order, the product of
    ``factors``, exceeds ``ORDER_BOUND``, or if its closure, order x
    ``degree`` image entries, exceeds ``ENTRY_BOUND``.  The product stops
    at the first partial product above the cap, so this stays cheap for
    S1000000."""
    order, bound = 1, _groups.ORDER_BOUND
    for f in factors:
        order *= f
        if order > bound:
            raise OrderBoundExceeded(
                f"{name}: order exceeds ORDER_BOUND = {bound};"
                " set surfmoduli.groups.ORDER_BOUND = N to raise it"
            )
    entries, cap = order * degree, _groups.ENTRY_BOUND
    if entries > cap:
        raise OrderBoundExceeded(
            f"{name}: order x degree = {entries} image entries exceeds"
            f" ENTRY_BOUND = {cap}; set surfmoduli.groups.ENTRY_BOUND = N to raise it"
        )


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _refuse_above_bound(f"C{n}", [n], n)
    if n == 1:
        return close([Permutation.identity(1)], name="C1")
    gen = Permutation.from_cycles(n, list(range(1, n + 1)))
    return close([gen], name=f"C{n}")


def dihedral(n: int) -> PermGroup:
    """Symmetries of the regular n-gon (order 2n), n >= 3."""
    if n < 3:
        raise ValueError("dihedral groups need n >= 3 here")
    _refuse_above_bound(f"D{n}", [2, n], n)
    rot = Permutation.from_cycles(n, list(range(1, n + 1)))
    refl = Permutation([1] + list(range(n, 1, -1)))
    return close([rot, refl], name=f"D{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    _refuse_above_bound(f"S{n}", range(2, n + 1), n)
    if n == 1:
        return close([Permutation.identity(1)], name="S1")
    cycle = Permutation.from_cycles(n, list(range(1, n + 1)))
    swap = Permutation.from_cycles(n, [1, 2])
    return close([swap, cycle], name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating groups need n >= 3 here")
    _refuse_above_bound(f"A{n}", range(3, n + 1), n)  # n!/2
    three = Permutation.from_cycles(n, [1, 2, 3])
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, Permutation.from_cycles(n, list(range(1, n + 1)))]
    else:
        gens = [three, Permutation.from_cycles(n, list(range(2, n + 1)))]
    return close(gens, name=f"A{n}")


def elementary_abelian(p: int) -> PermGroup:
    """(Z/p)^2, p prime, as two disjoint p-cycles on 2p points."""
    _refuse_above_bound(f"EA{p}x{p}", [p, p], 2 * p)
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}; use C{p}xC{p} for (Z/{p})^2")
    x = Permutation.from_cycles(2 * p, list(range(1, p + 1)))
    y = Permutation.from_cycles(2 * p, list(range(p + 1, 2 * p + 1)))
    return close([x, y], name=f"EA{p}x{p}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def psl2(p: int) -> PermGroup:
    """PSL(2, p) via its natural action on the projective line over F_p.

    Points 1..p represent the field values 0..p-1 and point p+1 is the
    point at infinity.  Generated by z -> z + 1 and z -> -1/z.
    """
    _refuse_above_bound(f"PSL2_{p}", [p, (p * p - 1) // math.gcd(2, p - 1)], p + 1)
    if not _is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    degree = p + 1
    inf = degree
    shift = [0] * degree
    for z in range(p):
        shift[z] = (z + 1) % p + 1
    shift[inf - 1] = inf
    neg_inv = [0] * degree
    neg_inv[0] = inf
    neg_inv[inf - 1] = 1
    for z in range(1, p):
        neg_inv[z] = (-pow(z, -1, p)) % p + 1
    return close(
        [Permutation(shift), Permutation(neg_inv)], name=f"PSL2_{p}"
    )


def direct_product(*groups: PermGroup, name: str | None = None) -> PermGroup:
    """Direct product, factors acting on disjoint blocks of points."""
    if not groups:
        raise ValueError("need at least one factor")
    if name is None:
        name = "x".join(g.name or "?" for g in groups)
    degree = sum(g.degree for g in groups)
    _refuse_above_bound(name, [g.order for g in groups], degree)
    gens = []
    offset = 0
    for g in groups:
        for gen in g.generators:
            images = list(range(1, degree + 1))
            for i, j in enumerate(gen.images):
                images[offset + i] = offset + j
            gens.append(Permutation(images))
        offset += g.degree
    return close(gens, name=name)


_ATOMS = {
    "C": cyclic,
    "D": dihedral,
    "S": symmetric,
    "A": alternating,
}


class _NotABuiltinName(ValueError):
    """A name that does not parse as a builtin group name."""


def _number(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise _NotABuiltinName(str(exc)) from None


def _atom(token: str):
    m = re.fullmatch(r"([CDSA])(\d+)", token)
    if not m:
        raise _NotABuiltinName(f"unknown group name component {token!r}")
    return _ATOMS[m.group(1)], _number(m.group(2))


def builtin(name: str) -> PermGroup:
    """Resolve a builtin group name (see the module docstring)."""
    token = name.strip()
    m = re.fullmatch(r"EA(\d+)x(\d+)", token)
    if m:
        p, q = _number(m.group(1)), _number(m.group(2))
        if p != q:
            raise ValueError("only square elementary abelians EA<p>x<p> are builtin")
        return elementary_abelian(p)
    m = re.fullmatch(r"PSL2_(\d+)", token)
    if m:
        return psl2(_number(m.group(1)))
    atoms = [_atom(t) for t in token.split("x")]  # the whole name parses first
    factors = [make(n) for make, n in atoms]
    return factors[0] if len(factors) == 1 else direct_product(*factors, name=token)


def from_file(path: str | os.PathLike) -> PermGroup:
    """Read a group from the plain-text file format."""
    from pathlib import Path

    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    degree = None
    gens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ValueError(
                    f"{path}:{lineno}: expected 'degree n', got {line!r}"
                )
            degree = int(m.group(1))
            continue
        try:
            images = [int(tok) for tok in line.split()]
            if len(images) != degree:
                raise ValueError(f"expected {degree} images, got {len(images)}")
            gens.append(Permutation(images))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if degree is None:
        raise ValueError(f"{path}: missing 'degree n' header")
    if not gens:
        raise ValueError(f"{path}: no generators")
    return close(gens, name=path.stem)


def to_file(group: PermGroup, path: str | os.PathLike) -> None:
    from pathlib import Path

    path = Path(path)
    lines = [f"degree {group.degree}"]
    lines += [" ".join(map(str, g.images)) for g in group.generators]
    path.write_text("\n".join(lines) + "\n")


def resolve(ref: str) -> PermGroup:
    """Resolve a group reference: a builtin name, else a file path.  A
    refused builtin name, with no such file, fails with the refusal."""
    try:
        return builtin(ref)
    except ValueError as exc:
        if os.path.isfile(ref):  # False also for a name too long for the file system
            return from_file(ref)
        if isinstance(exc, _NotABuiltinName):
            raise ValueError(f"{ref!r} is neither a builtin group name nor a file") from None
        raise ValueError(f"{ref!r} is not a file and not a valid builtin group: {exc}") from None


def _partitions(n: int) -> Iterable[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_catalog(max_order: int) -> list[PermGroup]:
    """One group per isomorphism class of abelian groups of order <= max.

    Classes are enumerated by primary decomposition; the group of order
    ``p1^a1 * ...`` with cyclic factors ``C_{p^e}`` is realized as a direct
    product of cycles on disjoint points and named e.g. ``C4xC3``.
    """
    out = []
    for n in range(1, max_order + 1):
        if n == 1:
            out.append(cyclic(1))
            continue
        per_prime = [
            [tuple(p**e for e in part) for part in _partitions(exp)]
            for p, exp in _factorize(n)
        ]
        combos: list[tuple[int, ...]] = [()]
        for choices in per_prime:
            combos = [c + pick for c in combos for pick in choices]
        for factors in combos:
            factors = tuple(sorted(factors, reverse=True))
            name = "x".join(f"C{q}" for q in factors)
            if len(factors) == 1:
                out.append(cyclic(factors[0]))
            else:
                out.append(
                    direct_product(*(cyclic(q) for q in factors), name=name)
                )
    return out
