"""In-memory span tracing of the program's public functions, from outside.

The tracer temporarily replaces chosen functions of the loaded tokscope
modules with wrappers that record a span per call. It replaces every
reference that is the same function object: module attributes (so calls
through `from .x import f` names are caught) and values of module-level
dicts (dispatch tables). Nothing inside the program is edited, and the
originals are restored when tracing ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans are [id, name, start, end, parent id, run id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = None

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, perf_counter(), None, parent, self._run, dict(counts)]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[6]
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    @contextmanager
    def command(self, label: str):
        """A root span standing for one CLI command; its calls share a run id."""
        self._run = label
        try:
            with self.span("cmd " + label) as counts:
                yield counts
        finally:
            self._run = None

    def _wrap(self, func, name, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = func(*args, **kwargs)
                if count is not None:
                    counts.update(count(result))
                return result

        return wrapper

    @contextmanager
    def instrument(self, targets):
        """targets: (module, attribute, count function or None) triples.

        The span name is "<module short name>.<attribute>".
        """
        loaded = [m for n, m in list(sys.modules.items()) if n == "tokscope" or n.startswith("tokscope.")]
        undo = []
        for module, attr, count in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                undo.append((dict.__setitem__, value, k, original))
        try:
            yield
        finally:
            for restore, owner, key, original in reversed(undo):
                restore(owner, key, original)

    # --- queries -----------------------------------------------------------

    def duration(self, span) -> float:
        return span[3] - span[2]

    def select(self, name: str, run: str | None = None, within=None) -> list[list]:
        """Spans called `name`, optionally of one command, or below one span."""
        found = [s for s in self.spans if s[1] == name and (run is None or s[5] == run)]
        if within is not None:
            found = [s for s in found if self._below(s, within[0])]
        return found

    def _below(self, span, ancestor_id: int) -> bool:
        parent = span[4]
        while parent is not None:
            if parent == ancestor_id:
                return True
            parent = self.spans[parent][4]
        return False

    def total(self, name: str, **where) -> float:
        return sum(self.duration(s) for s in self.select(name, **where))

    def count(self, name: str, key: str, **where):
        return sum(s[6].get(key, 0) for s in self.select(name, **where))

    def tree(self) -> list[dict]:
        """Spans aggregated by their path of names: calls, total and self time."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] += self.duration(s)
        paths: dict[str, dict] = {}
        path_of: list[str] = []
        for s in self.spans:
            path = s[1] if s[4] is None else path_of[s[4]] + " > " + s[1]
            path_of.append(path)
            node = paths.setdefault(path, {"path": path, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            node["calls"] += 1
            node["total_s"] += self.duration(s)
            node["self_s"] += self.duration(s) - child_time[s[0]]
        return list(paths.values())

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines, written once at the end."""
        keys = ("id", "name", "start", "end", "parent", "run", "counts")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
