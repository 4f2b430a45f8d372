"""Spans around tandemopt's public functions, installed from outside the package.

The layers to wrap are listed in layers.json. A wrapped name is replaced in
every tandemopt module namespace that holds it (``cli`` imports
``read_features`` from ``types``, for example), and methods are replaced on
their class. Each call records one span (name, start, end, parent) in
compact arrays; a span's self time is its duration minus the durations of
its direct children. ``Tracer.installed`` puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
PACKAGE = "tandemopt"
ROOT_SPANS = ("setup", "op")
# Marks every wrapper this module creates, so that a leftover one can be found.
MARK = "_benchmark_wrapper"


def span_key(entry: dict) -> str:
    return f"{entry['module']}.{entry['function']}"


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names in the package's modules and classes that still hold a wrapper."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), MARK, False):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class Tracer:
    """Records the spans, byte counts and useful-work counters of one phase."""

    def __init__(self) -> None:
        self.names = [span_key(e) for e in LAYERS["spans"]] + list(ROOT_SPANS)
        self.root_id = {name: self.names.index(name) for name in ROOT_SPANS}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls = [0] * len(self.names)
        self.bytes_read = 0
        self.bytes_written = 0
        self.accepts = 0
        self.accepts_clamped = 0
        self.batches = 0
        self.batches_skipped = 0

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.calls[name_id] += 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, root: str):
        idx = self.open(self.root_id[root])
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over everything recorded."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        names = np.frombuffer(self.span_name, dtype=np.intc)
        parents = np.frombuffer(self.span_parent, dtype=np.intc)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros(durations.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        own = np.bincount(names, weights=durations - child, minlength=len(self.names))
        return {name: (self.calls[i], float(own[i])) for i, name in enumerate(self.names)}

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name_id: int, io: str | None):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if io == "read":
                self.bytes_read += os.path.getsize(args[0])
            elif io == "write":
                self.bytes_written += os.path.getsize(args[0])
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _accept_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.accepts += 1
            self.accepts_clamped += bool(result[1].clamped)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _batch_counter(self, fn, step_ids: tuple[int, ...]):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for batch in fn(*args, **kwargs):
                before = sum(calls[i] for i in step_ids)
                self.batches += 1
                try:
                    yield batch
                finally:
                    if sum(calls[i] for i in step_ids) == before:
                        self.batches_skipped += 1

        setattr(wrapper, MARK, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed layer for the duration of the block."""
        modules = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        undo: list[tuple[object, str, object]] = []

        def replace_everywhere(original, wrapper):
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

        try:
            for name_id, entry in enumerate(LAYERS["spans"]):
                owner_name, _, attr = entry["function"].rpartition(".")
                module = modules[entry["module"]]
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = vars(owner)[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._span_wrapper(raw.__func__, name_id, None))
                    else:
                        wrapped = self._span_wrapper(raw, name_id, None)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                else:
                    original = getattr(module, attr)
                    replace_everywhere(
                        original, self._span_wrapper(original, name_id, entry.get("io"))
                    )
            tt = modules["tandem_train"]
            replace_everywhere(
                tt.policy_accept_probability, self._accept_counter(tt.policy_accept_probability)
            )
            steps = tuple(
                self.names.index(k)
                for k in ("tandem_train.reinforce_batch", "soft_tdcf.soft_tdcf_train_step")
            )
            replace_everywhere(tt.iterate_batches, self._batch_counter(tt.iterate_batches, steps))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
