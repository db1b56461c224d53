"""Spans for the traced run, recorded from the benchmark's own files.

While ``traced_layers`` is active, the public functions of each plifs
layer are replaced, in every plifs module that binds them, by wrappers
that record a span per call.  A span holds its name, start, end, the
index of the span that was open when it began (its parent), the op it
belongs to, and for some calls a work count.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

# Public functions of each layer that get a span, by plifs module.
LAYER_CALLS = {
    "core": ("cylinder_arrays", "cylinders"),
    "pressure": ("natural_dimension", "solve_level_root"),
    "gdifs": ("punctured_level", "alpha", "perron_root", "associate_from_periodic",
              "q_root", "dim_report"),
    "oracle": ("lebesgue_upper_bound", "chaos_game", "box_dimension"),
    "specfile": ("parse_spec_file",),
    "cli": ("main",),
}

# Work counts kept on a span: words of a sweep, samples of a chaos game.
COUNTS = {
    "core.cylinder_arrays": lambda r: len(r[0]),
    "oracle.chaos_game": len,
}

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: str | None = None

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self._open.append(sid)
        return sid

    def end(self, sid: int, count: int | None = None) -> None:
        span = self.spans[sid]
        span[END] = perf_counter()
        span[COUNT] = count
        self._open.pop()

    @contextmanager
    def op_span(self, op: str):
        """The root span of one op; spans opened inside belong to it."""
        self.op = op
        sid = self.begin("op")
        try:
            yield
        finally:
            self.end(sid)
            self.op = None


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(sid, count(result) if count and result is not None else None)

    return traced


@contextmanager
def traced_layers(tracer: Tracer):
    """Route every call of the functions in LAYER_CALLS through a span."""
    import plifs
    import plifs.cli

    modules = [plifs] + [getattr(plifs, layer) for layer in LAYER_CALLS]
    patched = []
    try:
        for layer, names in LAYER_CALLS.items():
            for name in names:
                orig = getattr(getattr(plifs, layer), name)
                wrapper = _wrap(tracer, f"{layer}.{name}", orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, wrapper)
                        patched.append((mod, name, orig))
        yield
    finally:
        for mod, name, orig in reversed(patched):
            setattr(mod, name, orig)


def durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Per span: its duration, and the summed duration of its children."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur[i]
    return dur, child
