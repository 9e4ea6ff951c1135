"""The package namespace: every public name resolves, and importing the
package or the CLI leaves the braid, Moebius and bidouble modules, and the
stdlib modules only they need, unloaded; the package loads neither
``typing`` nor ``pathlib``, and no command loads ``dataclasses``,
``inspect`` or ``typing``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import surfmoduli

SRC = str(Path(surfmoduli.__file__).resolve().parent.parent)


def _python(code: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout


def test_import_leaves_the_lazy_modules_unloaded():
    lazy = {f"surfmoduli.{m}" for m in ("braids", "moebius", "bidouble")}
    for module in ("surfmoduli", "surfmoduli.cli"):
        # site hooks may preload stdlib modules: only what the import adds counts
        out = _python(
            "import importlib, sys\n"
            "before = set(sys.modules)\n"
            f"module = importlib.import_module({module!r})\n"
            "if hasattr(module, 'build_parser'):\n"
            "    module.build_parser()\n"
            "print(sorted(set(sys.modules) - before))"
        )
        added = set(ast.literal_eval(out))
        assert module in added
        assert not added & (lazy | {"dataclasses", "fractions"}), module


def test_import_without_site_hooks_loads_neither_typing_nor_pathlib():
    # site hooks may preload both; without them the import must not add them
    out = _python(
        "import sys\nbefore = set(sys.modules)\nimport surfmoduli\n"
        "print(sorted(set(sys.modules) - before))",
        "-S",
    )
    added = set(ast.literal_eval(out))
    assert "surfmoduli.beauville" in added
    assert not added & {"typing", "pathlib"}


def test_no_lazy_module_or_command_loads_dataclasses_inspect_or_typing():
    # without site hooks, which may preload them; each command prints its
    # document, then the last two lines give the exit codes and what the
    # run added
    out = _python(
        "import sys\nbefore = set(sys.modules)\n"
        "import surfmoduli.bidouble, surfmoduli.braids, surfmoduli.moebius\n"
        "from surfmoduli.cli import main\n"
        "print([main(['abc', 'invariants', '3', '3', '3']),\n"
        "       main(['hyperell', 'iso', '--set1', '0,1,inf,2', '--set2', '0,1,inf,-1']),\n"
        "       main(['braid', 'equal', '--strands', '3', '[1,2,1]', '[2,1,2]'])])\n"
        "print(sorted(set(sys.modules) - before))",
        "-S",
    )
    *_, codes, added = out.splitlines()
    added = set(ast.literal_eval(added))
    assert ast.literal_eval(codes) == [0, 0, 0]
    assert {"surfmoduli.bidouble", "surfmoduli.braids", "surfmoduli.moebius"} <= added
    assert not added & {"dataclasses", "inspect", "typing"}


def test_every_public_name_resolves():
    for name in surfmoduli.__all__:
        assert getattr(surfmoduli, name) is not None, name
    assert surfmoduli.hurwitz_orbit is surfmoduli.braids.hurwitz_orbit
    assert surfmoduli.MoebiusMap is surfmoduli.moebius.MoebiusMap
    assert surfmoduli.enumerate_types is surfmoduli.bidouble.enumerate_types
    assert set(surfmoduli.__all__) <= set(dir(surfmoduli))


def test_star_import_gives_every_public_name():
    out = _python("from surfmoduli import *\nprint(len([n for n in dir() if not n.startswith('_')]))")
    assert int(out) == len(surfmoduli.__all__)
