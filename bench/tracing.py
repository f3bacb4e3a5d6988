"""Layer spans and memory peaks, recorded from outside the library.

The tracer replaces public functions of the ``detsize`` modules with wrappers
that open a span on entry and close it on exit.  Every module attribute that
refers to the wrapped function is replaced, so calls the library makes to
itself (``full_report`` calling ``matrix_range``) are recorded too.  Nothing
inside ``src/`` changes.

A span is (name, start, end, parent); spans live in flat arrays in memory
and are written out once, when the run ends.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

# layer -> public functions wrapped by the tracer; generators only run at set-up
TARGETS = {
    "fsa": ("parse_fsa", "serialize_fsa", "remove_epsilon", "complete_with_dead_state"),
    "boolmat": ("transition_matrices", "matrix_range", "rank_gf2", "cyclicity"),
    "bounds": (
        "monoid_closure",
        "range_bound",
        "subset_complexity",
        "all_but_one_bound",
        "full_report",
        "report_to_json",
    ),
    "determinize": (
        "subset_construct",
        "subset_to_dfa",
        "minimize",
        "universality_witness",
        "distinguishing_word",
    ),
    "generators": (
        "gen_universal",
        "gen_moore",
        "gen_meyer_fischer",
        "gen_modified_moore",
        "gen_union_gadget",
        "gen_mf_gadget",
        "gen_random",
    ),
    "cli": ("main",),
}

# functions whose allocation peak is measured, and the metric it feeds
PEAK_TARGETS = {
    "determinize.subset_construct": "determinize.subset_peak_mb",
    "boolmat.matrix_range": "boolmat.range_peak_mb",
}

# counts read off a call's result at the same boundary as its span
COUNTERS = {
    "determinize.subset_construct": lambda s: {"determinize.subset_states": s.n},
    "determinize.minimize": lambda d: {"determinize.minimal_states": d.n},
    "bounds.monoid_closure": lambda c: {"bounds.monoid_size": c.size, "bounds.monoid_capped": int(c.capped)},
}
COUNT_NAMES = ("determinize.subset_states", "determinize.minimal_states", "bounds.monoid_size", "bounds.monoid_capped")


def layer_metric_names() -> set[str]:
    """Every per-layer metric a traced run can report."""
    names = {f"{layer}.{func}_s" for layer, funcs in TARGETS.items() for func in funcs}
    return names | set(COUNT_NAMES) | set(PEAK_TARGETS.values()) | {"cli.process_overhead_s"}


def _library_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "detsize" or name.startswith("detsize."))
    ]


class _Patch:
    """Replaces every reference to some library functions inside the
    ``detsize`` modules; ``restore`` puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def apply(self, replacements: dict[object, object]) -> None:
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, new)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def _function(name: str):
    """The library function called ``layer.func``."""
    layer, func = name.split(".")
    return getattr(importlib.import_module(f"detsize.{layer}"), func)


class Tracer:
    """In-memory span recorder; spans of one benchmark operation hang below
    that operation's span, which hangs below its pass (or set-up) span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: list[tuple[int, str, int]] = []
        self._current = -1
        self._patch = _Patch()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._current)
        self.end.append(0.0)
        self._current = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._current = self.parent[idx]

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                states = getattr(exc, "states_found", None)  # BlowUpError
                if states is not None:
                    self.counts.append((idx, "determinize.subset_states", states))
                raise
            finally:
                self.close(idx)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts.append((idx, key, value))
            return result

        return traced

    def install(self) -> None:
        names = [f"{layer}.{func}" for layer, funcs in TARGETS.items() for func in funcs]
        self._patch.apply({id(_function(name)): self._wrap(name, _function(name)) for name in names})

    def uninstall(self) -> None:
        self._patch.restore()

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": self.counts,
        }

    def graft(self, dump: dict, parent: int) -> None:
        """Append spans recorded by another process (same monotonic clock)
        below span ``parent`` of this tracer."""
        offset = len(self.start)
        ids = []
        for name in dump["names"]:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            ids.append(nid)
        for nid, s, e, p in zip(dump["name_id"], dump["start"], dump["end"], dump["parent"]):
            self.name_id.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(parent if p < 0 else p + offset)
        self.counts.extend((idx + offset, key, value) for idx, key, value in dump["counts"])

    def write(self, path) -> None:
        """Spans as gzip JSON lines: one object per span with its index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                        }
                    )
                    + "\n"
                )

    @property
    def current(self) -> int:
        """Index of the innermost open span, -1 when none is open."""
        return self._current

    def _below(self, name: str) -> list[bool]:
        """Per span: it, or one of its ancestors, is called ``name``."""
        out: list[bool] = []
        for i, p in enumerate(self.parent):
            out.append(self.names[self.name_id[i]] == name or (p >= 0 and out[p]))
        return out

    def layer_totals(self, under: str) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and summed counts, over spans below the
        spans called ``under``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        selected = self._below(under)
        times: dict[str, float] = {}
        for i in range(n):
            if selected[i]:
                name = self.names[self.name_id[i]]
                times[name] = times.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        counts: dict[str, int] = {}
        for idx, key, value in self.counts:
            if selected[idx]:
                counts[key] = counts.get(key, 0) + value
        return times, counts

    def durations(self, name: str, under: str) -> list[tuple[int, float]]:
        """(parent index, duration) of every span called ``name`` below the
        spans called ``under``."""
        selected = self._below(under)
        nid = self._name_ids.get(name)
        return [
            (self.parent[i], self.end[i] - self.start[i])
            for i in range(len(self.start))
            if selected[i] and self.name_id[i] == nid
        ]


class PeakMeter:
    """Largest allocation peak in bytes of any one call of each PEAK_TARGETS
    function, by tracemalloc, which runs only inside those calls.  Kept apart
    from the Tracer because tracemalloc slows the calls it watches."""

    def __init__(self):
        self.peaks: dict[str, int] = {metric: 0 for metric in PEAK_TARGETS.values()}
        self._measured: set = set()
        self._patch = _Patch()

    def _wrap(self, metric: str, fn):
        def measured(*args, **kwargs):
            # equal arguments allocate alike, so each is measured once
            key = (fn, args, tuple(sorted(kwargs.items())))
            if tracemalloc.is_tracing() or key in self._measured:
                return fn(*args, **kwargs)
            self._measured.add(key)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks[metric], peak)

        return measured

    def install(self) -> None:
        self._patch.apply(
            {id(_function(name)): self._wrap(metric, _function(name)) for name, metric in PEAK_TARGETS.items()}
        )

    def uninstall(self) -> None:
        self._patch.restore()
        self._measured.clear()  # drop the references to measured inputs
