"""Built-in constructors, name resolution, and the group file format."""

import re
import time

import pytest

from surfmoduli import catalog
from surfmoduli.errors import OrderBoundExceeded
from surfmoduli.groups import Permutation, close


def test_orders_of_builtins():
    assert catalog.cyclic(7).order == 7
    assert catalog.dihedral(4).order == 8
    assert catalog.symmetric(4).order == 24
    assert catalog.alternating(4).order == 12
    assert catalog.alternating(6).order == 360
    assert catalog.elementary_abelian(3).order == 9
    assert catalog.psl2(5).order == 60
    assert catalog.psl2(7).order == 168
    assert catalog.psl2(11).order == 660


def test_psl2_is_simple_for_p_at_least_5():
    assert catalog.psl2(5).is_simple()
    assert catalog.psl2(7).is_simple()


def test_psl2_rejects_bad_p():
    with pytest.raises(ValueError):
        catalog.psl2(9)
    with pytest.raises(ValueError, match="^p must be a prime, got 35$"):
        catalog.psl2(35)


def test_psl2_above_31_builds_under_the_order_bound():
    G = catalog.psl2(37)
    assert G.order == 37 * (37 * 37 - 1) // 2 == 25308
    assert G.is_simple()


def test_name_resolution():
    assert catalog.builtin("A5").order == 60
    assert catalog.builtin("EA5x5").order == 25
    assert catalog.builtin("PSL2_7").order == 168
    assert catalog.builtin("C4xC2").order == 8
    assert catalog.builtin("D4").order == 8
    with pytest.raises(ValueError):
        catalog.builtin("Q8")


def test_direct_product_order_and_abelianness():
    G = catalog.builtin("C3xC3")
    assert G.order == 9 and G.is_abelian
    H = catalog.direct_product(catalog.symmetric(3), catalog.cyclic(2))
    assert H.order == 12 and not H.is_abelian


def test_file_round_trip(tmp_path):
    G = catalog.builtin("D4")
    path = tmp_path / "d4.grp"
    catalog.to_file(G, path)
    H = catalog.from_file(path)
    assert H.degree == G.degree
    assert H.order == G.order
    assert set(H.elements) == set(G.elements)


def test_file_format_details(tmp_path):
    path = tmp_path / "c3.grp"
    path.write_text("# a comment\ndegree 3\n\n2 3 1\n")
    G = catalog.from_file(path)
    assert G.order == 3
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 3\n1 2\n")
    with pytest.raises(ValueError):
        catalog.from_file(bad)
    # a bad generator line names the file and the line
    for line, reason in (("2 3 x", "invalid literal"), ("1 1 2", "not a bijection")):
        bad.write_text(f"degree 3\n\n{line}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:3: {reason}"):
            catalog.from_file(bad)


def test_constructors_refuse_empty_input():
    with pytest.raises(ValueError, match="degree must be positive"):
        catalog.symmetric(0)
    with pytest.raises(ValueError, match="at least one factor"):
        catalog.direct_product()
    with pytest.raises(ValueError, match="at least one generator is required"):
        close([])


@pytest.mark.parametrize(
    "text, message",
    [
        ("# a comment only\n\n", ": missing 'degree n' header"),
        ("degree three\n2 3 1\n", ":1: expected 'degree n', got 'degree three'"),
        ("degree 3\n# no generator follows\n", ": no generators"),
    ],
    ids=["no-header", "malformed-header", "no-generators"],
)
def test_file_header_and_generator_errors(tmp_path, text, message):
    path = tmp_path / "g.grp"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{message}") + "$"):
        catalog.from_file(path)


def test_resolve_prefers_builtin_then_file(tmp_path):
    assert catalog.resolve("C6").order == 6
    path = tmp_path / "g.grp"
    path.write_text("degree 2\n2 1\n")
    assert catalog.resolve(str(path)).order == 2
    with pytest.raises(ValueError):
        catalog.resolve("no-such-thing")


def test_abelian_catalog_counts():
    groups = catalog.abelian_catalog(16)
    # one class per isomorphism type: 1,1,1,2,1,1,1,3,2,1,1,2,1,1,1,5
    assert len(groups) == 25
    names = [g.name for g in groups]
    assert len(set(names)) == len(names)
    assert "C4xC2" in names and "C2xC2xC2" in names
    for g in groups:
        assert g.is_abelian
        assert g.order <= 16


@pytest.mark.usefixtures("no_large_closure")
@pytest.mark.parametrize(
    "name", ["C150000", "D60000", "EA1000x1000", "S1000000", "A1000000", "C400xC400"]
)
def test_builtin_above_the_order_bound_is_refused_before_it_is_built(name):
    started = time.perf_counter()
    with pytest.raises(
        OrderBoundExceeded,
        match=rf"^{name}: order exceeds ORDER_BOUND = 100000; "
        r"set surfmoduli\.groups\.ORDER_BOUND = N to raise it$",
    ):
        catalog.builtin(name)
    assert time.perf_counter() - started < 0.5


def test_builtin_above_the_entry_bound_is_refused_before_it_is_built():
    started = time.perf_counter()
    with pytest.raises(
        OrderBoundExceeded,
        match=r"^C100000: order x degree = 10000000000 image entries exceeds "
        r"ENTRY_BOUND = 10000000; set surfmoduli\.groups\.ENTRY_BOUND = N to raise it$",
    ):
        catalog.builtin("C100000")
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize(
    "name, order",
    [("S7", 5040), ("A7", 2520), ("PSL2_17", 2448), ("PSL2_31", 14880), ("EA7x7", 49),
     ("C7xC7", 49), ("D4xC2", 16), ("C169", 169)],
)
def test_builtins_in_use_are_within_the_entry_bound(name, order):
    assert catalog.builtin(name).order == order


def test_entry_bound_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr("surfmoduli.groups.ENTRY_BOUND", 100)
    with pytest.raises(OrderBoundExceeded, match="^C12: order x degree = 144 image entries"):
        catalog.builtin("C12")
    with pytest.raises(
        OrderBoundExceeded,
        match=r"^closure exceeded ENTRY_BOUND = 100 image entries \(order x degree, "
        r"degree 12\); set surfmoduli\.groups\.ENTRY_BOUND = N to raise it$",
    ):
        close([Permutation.from_cycles(12, list(range(1, 13)))])
    with pytest.raises(OrderBoundExceeded, match="^PSL2_7: order x degree = 1344 image entries"):
        catalog.psl2(7)
    assert catalog.builtin("C10").order == 10


def test_order_bound_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr("surfmoduli.groups.ORDER_BOUND", 10)
    with pytest.raises(OrderBoundExceeded, match="^S4: order exceeds ORDER_BOUND = 10"):
        catalog.builtin("S4")
    s4 = [Permutation.from_cycles(4, [1, 2]), Permutation.from_cycles(4, [1, 2, 3, 4])]
    with pytest.raises(OrderBoundExceeded, match="^closure exceeded ORDER_BOUND = 10 "):
        close(s4)
    with pytest.raises(OrderBoundExceeded, match="^PSL2_7: order exceeds ORDER_BOUND = 10;"):
        catalog.psl2(7)
    monkeypatch.setattr("surfmoduli.groups.ORDER_BOUND", 24)
    assert catalog.builtin("S4").order == close(s4).order == 24
    monkeypatch.setattr("surfmoduli.groups.ORDER_BOUND", 10**7)
    with pytest.raises(OrderBoundExceeded, match="ORDER_BOUND = 10000000;"):
        catalog.builtin("S1000000")


def test_unreadable_references_fail_in_one_line(tmp_path):
    for ref in ("x" * 300, "C" + "1" * 5000):  # too long for a file name
        with pytest.raises(ValueError, match="is neither a builtin group name nor"):
            catalog.resolve(ref)
    path = tmp_path / "latin1.grp"
    path.write_bytes(b"\xff degree 2\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec"):
        catalog.resolve(str(path))


def test_elementary_abelian_needs_a_prime():
    assert catalog.builtin("EA2x2").order == 4
    assert catalog.builtin("EA5x5").order == 25
    with pytest.raises(ValueError, match=r"^p must be a prime, got 6; use C6xC6 for"):
        catalog.builtin("EA6x6")
    assert catalog.builtin("C6xC6").order == 36
