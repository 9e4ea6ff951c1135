"""The package namespace: every public name resolves, and importing the
package leaves the braid, Moebius and bidouble modules unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import surfmoduli

SRC = str(Path(surfmoduli.__file__).resolve().parent.parent)


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_leaves_the_lazy_modules_unloaded():
    out = _python(
        "import sys, surfmoduli\n"
        "print(sorted(m for m in ('braids', 'moebius', 'bidouble')"
        " if 'surfmoduli.' + m in sys.modules))"
    )
    assert out == "[]\n"


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
