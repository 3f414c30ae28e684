"""In-memory spans around calls into lagflow's layers.

A ``Tracer`` replaces module or class attributes with wrappers that record
one span per call: its name, start, end and the span open when it began.
A layer's self time is its span time less the time its child spans cover.

Spans are written into fixed buffers of anonymous memory, mapped once and
reused by every ``with tracer:`` block, not into arrays that grow on the C
heap.  So a traced run allocates nothing per span: it leaves the heap as an
untraced run does, and no span pays for the buffers' growth.  For the same
reason a block's spans are summed in plain Python when it ends, without
array temporaries.
"""

from __future__ import annotations

import mmap
from time import perf_counter

#: Spans one ``with tracer:`` block may record.  The buffers are reserved
#: up front, but only pages that spans reach are ever touched.
CAPACITY = 1 << 21


def _buffer(fmt: str) -> memoryview:
    region = mmap.mmap(-1, 8 * CAPACITY, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return memoryview(region).cast(fmt)


class Tracer:
    """Records spans for every call of the given layer functions.

    ``layers`` lists (owner, attribute, span name); owner is a module or a
    class, and several attributes may share a span name.  The wrappers are
    in place only inside ``with tracer:``, which may be entered many times.
    Each span opened while no other span is open is a root, and
    ``per_root`` gives each root's aggregated tree, in call order.
    """

    def __init__(self, layers) -> None:
        self.names: list[str] = []
        self._kind = _buffer("q")
        self._parent = _buffer("q")
        self._start = _buffer("d")
        self._end = _buffer("d")
        self._count = [0]
        self._open = [-1]
        self._roots: list[dict[str, tuple[float, float, int]]] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        for owner, attr, name in layers:
            if name not in self.names:
                self.names.append(name)
            original = vars(owner)[attr]
            wrapper = self._wrapper(original, self.names.index(name))
            self._swaps.append((owner, attr, original, wrapper))

    def _wrapper(self, original, kind: int):
        kinds, parents, starts, ends, count, open_ = (
            self._kind,
            self._parent,
            self._start,
            self._end,
            self._count,
            self._open,
        )

        def traced(*args, **kwargs):
            idx = count[0]
            count[0] = idx + 1
            kinds[idx] = kind
            parents[idx] = open_[-1]
            open_.append(idx)
            starts[idx] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()

        return traced

    def __enter__(self) -> "Tracer":
        # The attribute is looked up in the owner's own namespace, so a
        # class gets back a plain function that it binds as a method, and
        # callers that look the name up at call time see the wrapper.
        for owner, attr, _original, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _wrapper in reversed(self._swaps):
            setattr(owner, attr, original)
        self._collect()

    def _collect(self) -> None:
        """Sum the block's spans per root and free the buffers for reuse."""
        kinds, parents, starts, ends = self._kind, self._parent, self._start, self._end
        width = len(self.names)
        total = own = calls = None
        for i in range(self._count[0]):
            parent = parents[i]
            if parent < 0:
                if calls is not None:
                    self._roots.append(self._tree(total, own, calls))
                total, own, calls = [0.0] * width, [0.0] * width, [0] * width
            k = kinds[i]
            d = ends[i] - starts[i]
            total[k] += d
            own[k] += d
            calls[k] += 1
            if parent >= 0:
                own[kinds[parent]] -= d
        if calls is not None:
            self._roots.append(self._tree(total, own, calls))
        self._count[0] = 0

    def _tree(self, total, own, calls) -> dict[str, tuple[float, float, int]]:
        return {
            name: (total[k], own[k], calls[k]) for k, name in enumerate(self.names) if calls[k]
        }

    def per_root(self) -> list[dict[str, tuple[float, float, int]]]:
        """For each root span in call order: {name: (time, self time, calls)}.

        The root's own name is included, so its entry gives the root's
        duration and the part of it no wrapped child covers.
        """
        return self._roots
