"""In-memory span tracer for the benchmark's traced runs.

The tracer patches a layer's public entry points from outside the
program: each patched name is replaced, where callers look it up, by a
wrapper that records one span (name, start, end, parent) per call.
Spans live in flat arrays while the run executes and are written out
when it ends. Nothing in ``src/`` knows the tracer exists.

Self time of a span is its duration minus the part of its interval its
child spans cover. The program is single-threaded, so spans nest
strictly (a stack), children of one span never overlap, and the self
times of every span under a root add up exactly to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from array import array


class Tracer:
    """Records spans for patched callables; restores them on demand."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Free-form tallies filled by ``inspect`` callbacks.
        self.counts: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        """Start a span by hand (the harness's root spans)."""
        idx = len(self.name_ids)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, inspect=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (the wrapper becomes the method every
        instance looks up) or a module (for a function a caller
        imported by name). ``inspect``, if given, sees each result.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        nid = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if inspect is not None:
                inspect(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def spans(self, first: int = 0, last: int | None = None):
        """``(names, name_ids, parents, starts, ends)`` for a span range."""
        last = len(self) if last is None else last
        return (
            self.names,
            self.name_ids[first:last],
            array("q", (p - first if p >= first else -1 for p in self.parents[first:last])),
            self.starts[first:last],
            self.ends[first:last],
        )

    def dump(self, path, first: int = 0, last: int | None = None) -> None:
        """Write a span range: one JSON header line, then four int64 arrays."""
        names, name_ids, parents, starts, ends = self.spans(first, last)
        with open(path, "wb") as out:
            header = {"names": names, "count": len(starts),
                      "arrays": ["name_ids", "parents", "starts", "ends"]}
            out.write(json.dumps(header).encode() + b"\n")
            for column in (name_ids, parents, starts, ends):
                column.tofile(out)


def load(path):
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = []
        for _ in header["arrays"]:
            column = array("q")
            column.fromfile(src, header["count"])
            columns.append(column)
    return (header["names"], *columns)


def self_times(parents, starts, ends) -> array:
    """Each span's duration minus the part its children cover.

    A child is clipped to its parent's interval first, so a child that
    (through clock skew or a bad record) pokes out of its parent is
    charged only for the overlap.
    """
    out = array("q", (end - start for start, end in zip(starts, ends)))
    for idx, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[idx], starts[parent])
            hi = min(ends[idx], ends[parent])
            if hi > lo:
                out[parent] -= hi - lo
    return out


def summarize(names, name_ids, parents, starts, ends) -> dict[str, dict]:
    """Per span name: ``calls``, ``spans``, ``total_ns`` and ``self_ns``.

    ``calls`` counts entries into the name from elsewhere: a span whose
    parent has the same name (a layer method calling its sibling, such
    as ``verify_disclosure`` falling through to ``verify``) is one call.
    """
    selfs = self_times(parents, starts, ends)
    table: dict[str, dict] = {}
    for idx, nid in enumerate(name_ids):
        row = table.get(names[nid])
        if row is None:
            row = table[names[nid]] = {"calls": 0, "spans": 0, "total_ns": 0, "self_ns": 0}
        parent = parents[idx]
        row["spans"] += 1
        if parent < 0 or name_ids[parent] != nid:
            row["calls"] += 1
            row["total_ns"] += ends[idx] - starts[idx]
        row["self_ns"] += selfs[idx]
    return table
