"""Every cap is a module constant, read at call time, and its error names
the constant, its value and the one way to raise it."""

import pytest

from surfmoduli import catalog
from surfmoduli.braids import BraidWord, braid_equal
from surfmoduli.errors import SurfModuliError
from surfmoduli.groups import Permutation, close
from surfmoduli.moebius import family_branch_set


def same_braid(strands, letters):
    w = BraidWord.from_ints(strands, letters)
    return braid_equal(w, w)


S4 = [Permutation.from_cycles(4, [1, 2]), Permutation.from_cycles(4, [1, 2, 3, 4])]
C12 = [Permutation.from_cycles(12, list(range(1, 13)))]

CAPS = {
    "ORDER_BOUND-close": ("groups", "ORDER_BOUND", 10, lambda: close(S4)),
    "ORDER_BOUND-builtin": ("groups", "ORDER_BOUND", 10, lambda: catalog.builtin("S4")),
    "ENTRY_BOUND-close": ("groups", "ENTRY_BOUND", 100, lambda: close(C12)),
    "AUT_BOUND": ("groups", "AUT_BOUND", 10, lambda: catalog.builtin("S4").automorphisms()),
    "WORD_CAP": ("braids", "WORD_CAP", 5, lambda: same_braid(3, [1] * 6)),
    "STRAND_CAP": ("braids", "STRAND_CAP", 5, lambda: same_braid(6, [1])),
    "GENUS_CAP": ("moebius", "GENUS_CAP", 5, lambda: family_branch_set(6, 7)),
}


@pytest.mark.parametrize("module, name, value, trigger", CAPS.values(), ids=CAPS)
def test_every_cap_names_a_settable_constant(monkeypatch, module, name, value, trigger):
    monkeypatch.setattr(f"surfmoduli.{module}.{name}", value)
    with pytest.raises(SurfModuliError) as caught:
        trigger()
    message = str(caught.value)
    assert f"{name} = {value};" in message or f"{name} = {value} " in message, message
    assert message.endswith(f"; set surfmoduli.{module}.{name} = N to raise it"), message


def test_the_package_namespace_holds_no_copy_of_a_cap():
    # a copy bound at import time would not follow the module constant
    import surfmoduli

    caps = ["ORDER_BOUND", "ENTRY_BOUND", "AUT_BOUND", "WORD_CAP", "STRAND_CAP", "GENUS_CAP"]
    assert [name for name in caps if hasattr(surfmoduli, name)] == []
