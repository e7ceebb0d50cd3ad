"""Span and counter recording around pvisland's public functions.

The simulator carries no tracing of its own, so the benchmark wraps the
functions that form each module boundary, from the outside, for the length
of a traced pass.  Every wrapped call records one span: its name, the span
that was open when it started (its parent), start and end.  Spans are held in
compact arrays and only turned into per-module figures, or written out, when
the run has ended.

A layer's self time is its span's duration minus the durations of its direct
child spans, so the self times of all spans under one ``run_simulation``
span add up to that span's duration.  A call that re-enters a span of the
same name (``correction_for`` calling ``correction_from``) stays inside the
outer span and is not counted twice.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from importlib import import_module

import numpy as np

#: (span name, module, attribute path).  Several functions may share a name.
SPANS = (
    ("runner.run_simulation", "pvisland.runner", "run_simulation"),
    ("runner.build", "pvisland.runner", "build_plant"),
    ("runner.build", "pvisland.runner", "build_controllers"),
    ("runner.build", "pvisland.runner", "build_compensator"),
    ("control.step", "pvisland.control", "DgController.step"),
    ("control.extractor", "pvisland.signals", "SequenceExtractor.step"),
    ("control.voltage_loop", "pvisland.control", "VoltageLoop.step"),
    ("control.current_loop", "pvisland.control", "CurrentLoop.step"),
    ("control.boost", "pvisland.control", "BoostController.step"),
    ("plant.step", "pvisland.plant", "Plant.step"),
    ("plant.ac_step", "pvisland.plant", "AcNetwork.step"),
    ("plant.dc_step", "pvisland.plant", "DcSide.step"),
    ("plant.audit", "pvisland.plant", "AcNetwork.kcl_residual"),
    ("plant.audit", "pvisland.plant", "AcNetwork.load_power"),
    ("plant.audit", "pvisland.plant", "AcNetwork.feeder_loss"),
    ("plant.measurements", "pvisland.plant", "Plant.measurements"),
    ("signals.pll", "pvisland.signals", "Pll.step"),
    ("vcc.extraction", "pvisland.vcc", "DqExtractionBank.step"),
    ("vcc.pi", "pvisland.vcc", "CentralCompensator.step"),
    ("vcc.reconstruction", "pvisland.vcc", "CentralCompensator.correction_for"),
    ("vcc.reconstruction", "pvisland.vcc", "CentralCompensator.correction_from"),
    ("runner.write_csv", "pvisland.runner", "write_csv"),
    ("analysis.report", "pvisland.runner", "assemble_report"),
    ("cli.report", "pvisland.cli", "cmd_report"),
    ("config.parse", "pvisland.config", "parse_text"),
    ("config.parse", "pvisland.config", "from_mapping"),
)

#: (counter name, module, attribute path): calls counted, not timed.
COUNTERS = (
    ("control.extractor.rebuilds", "pvisland.signals", "SequenceExtractor._rebuild"),
    ("plant.ac_rebuilds", "pvisland.plant", "AcNetwork._build"),
)

ROOT = "runner.run_simulation"
#: The root span's own self time: event handling, flag polling, recording.
LOOP = "runner.loop"
MODULES = tuple(dict.fromkeys(name for name, _, _ in SPANS if name != ROOT)) + (LOOP,)


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the hook no longer exists."""
    try:
        owner = import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # the class's own entry, so a method is restored exactly as it was
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans and counts while installed; analyses them afterwards."""

    def __init__(self):
        self.names = list(dict.fromkeys(name for name, _, _ in SPANS))
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.missing = []
        self._open = [-1]        # indices of the spans now open, innermost last
        self._open_name = [-1]

    def _span_wrapper(self, nid: int, fn):
        clock = time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_, open_name = self._open, self._open_name

        def wrapper(*args, **kwargs):
            if open_name[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            open_name.append(nid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
                open_name.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every hook that exists; restore the originals on exit."""
        patched = []
        try:
            for name, module, path in SPANS + COUNTERS:
                found = _resolve(module, path)
                if found is None:
                    if f"{module}.{path}" not in self.missing:
                        self.missing.append(f"{module}.{path}")
                    continue
                owner, attr, original = found
                if name in self.counts:
                    wrapped = self._count_wrapper(name, original)
                else:
                    wrapped = self._span_wrapper(self.names.index(name), original)
                setattr(owner, attr, wrapped)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def mark(self) -> tuple[int, dict[str, int]]:
        return len(self.start), dict(self.counts)

    def summary(self, since: tuple[int, dict[str, int]]) -> dict:
        """Per-module calls and self time of the spans recorded after a mark.

        Returns ``{"modules": {name: {"calls", "self_s"}}, "counts": {...},
        "run_simulation_s": ..., "run_simulation_self_sum_s": ...}``; the last
        two let a caller check that self times add up to the root span.
        """
        first, counts0 = since
        # slicing copies, so the arrays can keep growing afterwards
        nid = np.frombuffer(self.name_id[first:], dtype=np.int32)
        par = np.frombuffer(self.parent[first:], dtype=np.int32) - first
        t0 = np.frombuffer(self.start[first:])
        t1 = np.frombuffer(self.end[first:])
        n = len(nid)
        dur = t1 - t0
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child

        # top-most ancestor of every span, to tell run_simulation's subtree apart
        top = np.arange(n)
        while True:
            up = par[top]
            move = up >= 0
            if not move.any():
                break
            top = np.where(move, up, top)
        root_id = self.names.index(ROOT)
        in_sim = nid[top] == root_id

        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_by_name = np.bincount(nid, weights=self_s, minlength=n_names)
        modules = {}
        for i, name in enumerate(self.names):
            key = LOOP if name == ROOT else name
            modules[key] = {"calls": int(calls[i]), "self_s": float(self_by_name[i])}
        is_root = nid == root_id
        return {
            "modules": modules,
            "counts": {k: self.counts[k] - counts0[k] for k in self.counts},
            "run_simulation_s": float(dur[is_root].sum()),
            "run_simulation_self_sum_s": float(self_s[in_sim].sum()),
        }

    def save(self, path):
        """Write every recorded span once, as arrays, when the run has ended."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
