"""Braid factorizations and the move calculus.

Factorizations of braids into ordered tuples of factors are acted on by
Hurwitz moves (which shuffle adjacent factors while conjugating one by the
other), simultaneous conjugation, and the creation or cancellation of
adjacent node pairs (a conjugate of s1^2 next to the matching conjugate of
s1^-2).  Braid equality is decided exactly by Garside left normal forms,
and the same canonical forms make orbit enumeration finite at desk scale;
orbit representatives are spelled from them.
"""

from surfmoduli import (
    BraidWord,
    Factorization,
    braid_equal,
    hurwitz_move,
    hurwitz_orbit,
    m_equivalence_orbit,
    node_pair_move,
    product,
)

print("=== the word problem is exact ===")
w1 = BraidWord.from_ints(3, [1, 2, 1])
w2 = BraidWord.from_ints(3, [2, 1, 2])
print("s1 s2 s1 == s2 s1 s2 :", braid_equal(w1, w2))
print("s1 == s1^-1          :",
      braid_equal(BraidWord.from_ints(2, [1]), BraidWord.from_ints(2, [-1])))

print()
print("=== Hurwitz moves preserve the product ===")
f = Factorization.from_ints(3, [[1], [2]])
moved = hurwitz_move(f, 1)
print("(s1, s2) -> ", moved.to_ints())
print("products equal:", braid_equal(product(f), product(moved)))

print()
print("=== the orbit of (s1, s2) in B3 ===")
orbit = hurwitz_orbit(f, budget=100)
print(f"{len(orbit)} states, exhausted = {orbit.exhausted}:")
for rep in orbit.factorizations:
    print("  ", rep.to_ints())

print()
print("=== node pairs come and go ===")
u = BraidWord.from_ints(3, [2, -1])
made = node_pair_move(f, 2, u, "create")
print("after creating a conjugated node pair:", made.to_ints())
print("product unchanged:", braid_equal(product(made), product(f)))
back = node_pair_move(made, 2, u, "cancel")
print("cancelled back to the start:", back.to_ints() == f.to_ints())

print()
print("=== bounded certificates for the full move set ===")
mm = m_equivalence_orbit(f, budget=25, conjugator_cap=1)
print(f"states reached within budget 25: {len(mm)} "
      f"(exhausted = {mm.exhausted}; the move set is infinite,")
print(" so only bounded certificates are ever produced)")
