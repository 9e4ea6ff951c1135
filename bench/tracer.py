"""Spans around the library's public functions, recorded from outside.

The tracer wraps the public names listed under ``wrappers`` in
``layers.json`` without editing the library: each wrapper replaces the
function on its module or class, and on every ``surfmoduli`` module that
imported the same object by name (``beauville`` imports
``enumerate_triples`` from ``triangles``, ``catalog`` imports ``close``
from ``groups``).  Private helpers are not wrapped, so their time counts
in the caller's self time.

Each span records its name, start, end, parent span and query id.  Spans
stay in memory (flat arrays) and are written out once, after the run.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

TABLE_PATH = Path(__file__).with_name("layers.json")


def load_table() -> dict:
    return json.loads(TABLE_PATH.read_text())


def must_fire_on(table: dict) -> dict[str, set[str]]:
    """Wrapper name -> the workloads on which the table says it must fire:
    the union of the ``on`` lists of the metrics named after it."""
    out = {key: set() for key in table["wrappers"]}
    for metric in table["metrics"]:
        for key in out:
            if metric["name"].startswith(key + "."):
                out[key].update(metric["on"])
    return out


class CoverageError(RuntimeError):
    """A wrapper could not be installed, or never fired where it must."""


class Tracer:
    def __init__(self, table: dict):
        from surfmoduli.errors import SurfModuliError

        self._error_type = SurfModuliError
        self.table = table
        self.query = -1  # -1 while the inputs are built
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.failed = {layer: 0 for layer in table["layers"]}
        self.counts = {
            "generates_pair.true": 0,
            "triples_out": 0,
            "structures_out": 0,
            "states_out": 0,
            "max_factor_len": 0,
            "moebius_hits": 0,
            "types_out": 0,
        }
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0
        self._t0 = perf_counter()
        self._undo: list[tuple] = []
        # one entry per closed span
        self.span_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.query_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target of the table; raise CoverageError if one is gone."""
        for key, target in self.table["wrappers"].items():
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            try:
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            except (AttributeError, KeyError):
                raise CoverageError(f"wrapper {key}: {target} does not exist") from None
            layer = key.partition(".")[0]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(key, layer, raw.__func__))
            else:
                wrapped = self._wrap(key, layer, raw)
            if owner_name:
                self._replace(owner, attr, raw, wrapped)
            else:
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name == "surfmoduli" or name.startswith("surfmoduli."):
                        for alias, value in list(vars(mod).items()):
                            if value is raw:
                                self._replace(mod, alias, raw, wrapped)

    def _replace(self, owner, attr, raw, wrapped) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrap(self, key: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        self.calls[key] = 0
        self.self_s[key] = 0.0
        hook = _HOOKS.get(key)
        stack = self._stack
        calls, self_s, failed = self.calls, self.self_s, self.failed
        span_ids, parents, name_ids = self.span_ids, self.parents, self.name_ids
        query_ids, starts, ends = self.query_ids, self.starts, self.ends
        error_type = self._error_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                failed[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[key] += 1
                self_s[key] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                span_ids.append(span)
                parents.append(-1 if parent is None else parent[0])
                name_ids.append(name_id)
                query_ids.append(self.query)
                starts.append(start - self._t0)
                ends.append(end - self._t0)
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in self.names:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for layer, n in self.failed.items():
            out[f"{layer}.failed"] = n
        c = self.counts
        tests = self.calls.get("groups.generates_pair", 0)
        out["groups.generates_pair.true_frac"] = c["generates_pair.true"] / tests if tests else 0.0
        out["triangles.enumerate_triples.triples_out"] = c["triples_out"]
        out["beauville.search.structures_out"] = c["structures_out"]
        out["braids.states_out"] = c["states_out"]
        out["braids.max_factor_len"] = c["max_factor_len"]
        maps = self.calls.get("moebius.through_triples", 0)
        out["moebius.hit_frac"] = c["moebius_hits"] / maps if maps else 0.0
        out["bidouble.types_out"] = c["types_out"]
        return out

    def coverage_problems(self, workload: str) -> list[str]:
        """Wrappers that the table says must fire on ``workload`` but did not."""
        return [
            f"wrapper {key} never fired on workload {workload}"
            for key, workloads in must_fire_on(self.table).items()
            if workload in workloads and self.calls.get(key, 0) == 0
        ]

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\tquery\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_ids)):
                fh.write(
                    f"{self.span_ids[i]}\t{self.parents[i]}\t{self.query_ids[i]}\t"
                    f"{self.names[self.name_ids[i]]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


# Counters read off a wrapped call's result, outside its span.


def _count_true(counts, result):
    if result:
        counts["generates_pair.true"] += 1


def _count_triples(counts, result):
    counts["triples_out"] += len(result)


def _count_structures(counts, result):
    counts["structures_out"] += len(result)


def _count_states(counts, result):
    counts["states_out"] += len(result)
    longest = max((len(w) for f in result.factorizations for w in f.factors), default=0)
    counts["max_factor_len"] = max(counts["max_factor_len"], longest)


def _count_hit(counts, result):
    if result is not None:
        counts["moebius_hits"] += 1


def _count_types(counts, result):
    counts["types_out"] += len(result.types)


_HOOKS = {
    "groups.generates_pair": _count_true,
    "triangles.enumerate_triples": _count_triples,
    "beauville.search": _count_structures,
    "braids.hurwitz_orbit": _count_states,
    "braids.m_equivalence_orbit": _count_states,
    "moebius.moebius_equivalent": _count_hit,
    "bidouble.enumerate_types": _count_types,
}
