"""Spans around the package's public functions, recorded from outside.

Each public function is replaced, in every module that imported it, by a
wrapper that records one span: layer name, start, end, parent span and the
operation it belongs to.  Nothing inside the package changes; counters
that only the package could see (permutations tried, prune survivors) are
left to tracing inside the program.
"""

import functools
import gzip
import importlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer name -> (defining module, attribute) of its public entry points;
# a layer with several entry points (the constructors, the io functions)
# is timed as one
LAYERS = {
    "families.all": [
        ("hadamard6.families", fn)
        for fn in (
            "family_h",
            "family_h_with_signs",
            "fourier_f6",
            "dita_d6",
            "symmetric_m",
            "self_adjoint_h",
            "dita_corner",
            "border_h",
        )
    ],
    "core.fingerprint": [("hadamard6.core", "fingerprint")],
    "core.distance": [("hadamard6.core.Fingerprint", "distance")],
    "core.is_hadamard": [("hadamard6.core", "is_hadamard")],
    "core.dephase": [("hadamard6.core", "dephase")],
    "equivalence.are_equivalent": [("hadamard6.equivalence", "are_equivalent")],
    "search.classify": [("hadamard6.search", "classify")],
    "search.project_search": [("hadamard6.search", "project_search")],
    "compose.compose12": [("hadamard6.compose", "compose12")],
    "cli.main": [("hadamard6.cli", "main")],
    "io.all": [
        ("hadamard6.io", fn)
        for fn in (
            "matrix_to_obj",
            "matrix_from_obj",
            "witness_to_obj",
            "witness_from_obj",
            "dumps",
            "read_matrix",
            "write_matrix",
        )
    ],
}

# what each layer's return value adds to its span (None: nothing)
_NOTES = {
    "equivalence.are_equivalent": lambda r: (r.screened_by is not None, r.decision == "equivalent"),
    "search.project_search": lambda r: r.iterations,
}


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """In-memory span store; spans are appended in start order, so a
    parent always precedes its children."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.notes = []
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn, note):
        clock = time.perf_counter
        names, starts, ends, parents, ops, notes, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.notes, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            notes.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    notes[idx] = note(result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Patch every layer entry point in every hadamard6 module that holds
        a reference to it (a `from .core import fingerprint` makes a second
        reference); restore the originals on exit."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hadamard6"]
        saved = []
        try:
            for name, sites in LAYERS.items():
                for path, attr in sites:
                    owner = _resolve(path)
                    original = getattr(owner, attr, None)
                    if original is None:
                        continue  # entry point no longer exists
                    traced = self._wrap(name, original, _NOTES.get(name))
                    holders = [owner] if isinstance(owner, type) else modules
                    for holder in holders:
                        for key, value in list(vars(holder).items()):
                            if value is original:
                                saved.append((holder, key, original))
                                setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    def summary(self):
        """Per-layer metrics: calls, time_s (outermost spans of the layer,
        so nested calls are not counted twice), self_s (duration minus the
        time covered by child spans) and the layer counters."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
        # whether a span of the same layer, or a classify call, encloses
        # the span
        in_same = [False] * n
        in_classify = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                in_classify[i] = in_classify[p] or self.names[p] == "search.classify"
                q = p
                while q >= 0 and not in_same[i]:
                    in_same[i] = self.names[q] == self.names[i]
                    q = self.parents[q]
        stats = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for name in LAYERS}
        classify_fps = confirm_calls = confirm_hits = screened = enumerated = iterations = 0
        enumerated_s = 0.0
        for i in range(n):
            name = self.names[i]
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += dur[i] - child_time[i]
            if not in_same[i]:
                s["time_s"] += dur[i]
            if name == "core.fingerprint" and in_classify[i]:
                classify_fps += 1
            elif name == "equivalence.are_equivalent":
                was_screened, equivalent = self.notes[i] or (False, False)
                screened += was_screened
                if self.notes[i] is not None and not was_screened:
                    # no screen decided, so the 720 x 720 enumeration ran
                    enumerated += 1
                    enumerated_s += dur[i]
                if in_classify[i]:
                    confirm_calls += 1
                    confirm_hits += equivalent
            elif name == "search.project_search":
                iterations += self.notes[i] or 0
        out = {}
        for name, s in stats.items():
            for quantity, value in s.items():
                out[f"{name}.{quantity}"] = value
        classify_calls = stats["search.classify"]["calls"]
        out["search.classify.fingerprints_per_call"] = classify_fps / classify_calls if classify_calls else 0.0
        out["search.classify.confirm_calls"] = confirm_calls
        out["search.classify.confirm_hits"] = confirm_hits
        out["search.classify.confirm_hit_ratio"] = confirm_hits / confirm_calls if confirm_calls else 0.0
        out["equivalence.are_equivalent.screened"] = screened
        out["equivalence.are_equivalent.enumerated"] = enumerated
        out["equivalence.are_equivalent.enumerated_time_s"] = enumerated_s
        out["search.project_search.iterations"] = iterations
        out["trace.spans"] = n
        return out

    def write(self, path):
        """One tab-separated line per span: index, op, parent, layer, start, end."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span\top\tparent\tlayer\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{self.parents[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
