"""Numerical invariants of minimal surfaces of general type.

The holomorphic Euler characteristic ``chi`` and the self-intersection
``ksq`` of the canonical class determine the topological Euler number and
the signature through the Noether relations

    e = 12 chi - ksq,        tau = ksq - 8 chi,

which are enforced on every instance.  When the irregularity ``q`` and the
geometric genus ``pg`` are known they must satisfy ``chi = 1 - q + pg``.
"""

from __future__ import annotations


class _Record:
    """Immutable fields named by ``__slots__``: value equality and hashing
    within one class, a keyword repr, and no assignment after ``__init__``.
    A subclass's ``__init__`` passes every field, in order, to this one.
    ``as_dict`` gives the fields in ``__slots__`` order, leaving out those
    whose value is ``None``; a record whose rendered fields are derived
    overrides it."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        fields = zip(self.__slots__, self._values())
        return {name: value for name, value in fields if value is not None}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values())


class SurfaceInvariants(_Record):
    __slots__ = ("chi", "ksq", "e", "tau", "q", "pg")

    def __init__(
        self,
        chi: int,
        ksq: int,
        e: int,
        tau: int,
        q: int | None = None,
        pg: int | None = None,
    ):
        super().__init__(chi, ksq, e, tau, q, pg)
        if e != 12 * chi - ksq:
            raise ValueError("e must equal 12*chi - ksq")
        if tau != ksq - 8 * chi:
            raise ValueError("tau must equal ksq - 8*chi")
        if (q is None) != (pg is None):
            raise ValueError("q and pg must be given together")
        if q is not None:
            if q < 0 or pg < 0:
                raise ValueError("q and pg must be nonnegative")
            if chi != 1 - q + pg:
                raise ValueError("chi must equal 1 - q + pg")

    @staticmethod
    def from_chi_ksq(
        chi: int, ksq: int, q: int | None = None, pg: int | None = None
    ) -> "SurfaceInvariants":
        return SurfaceInvariants(
            chi=chi, ksq=ksq, e=12 * chi - ksq, tau=ksq - 8 * chi, q=q, pg=pg
        )
