"""Memory images: a program's initial data words, stored once and compactly.

A :class:`MemoryImage` is an immutable ``Mapping[int, int | float]`` that
behaves exactly like the ``dict`` it replaces, insertion order included,
but keeps each contiguous 8-byte-stride run of same-typed words in one
typed array: ``array('i')`` or ``array('q')`` for ints (32- or 64-bit
storage; a run reads back Python ints either way), ``array('d')`` for
floats.  A 320k-word table of small ints then costs 1.25 MB instead of the
~31 MB of a dict of Python ints.  Everything else (unaligned addresses,
ints outside int64, other types, isolated words) stays in a small dict.

An image is built once and then shared.  Generators build theirs with an
:class:`ImageBuilder`, whose ``fill`` places a typed array over a region
no other fill touched, in whichever int typecode the generator's values
fit; anything else (overwrites, mixed types, unaligned words) is a dict
handed to the :class:`MemoryImage` constructor, which stores ints as
``array('q')``.
:class:`~repro.isa.program.Program` owns the image and architectural
state (:class:`~repro.isa.iss.ArchState`) reads through it, so no
simulated run copies it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Iterator, Mapping
from itertools import islice

WORD = 8
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_MISSING = object()
#: Pairs per list that :meth:`MemoryImage.sorted_chunks` yields from a run.
_CHUNK = 4096
#: Array typecodes a run may have: 32- and 64-bit ints, and doubles.
_RUN_TYPECODES = ("i", "q", "d")


def _typecode(value: object) -> str | None:
    """The array typecode ``value`` is stored under in a run, or None."""
    kind = type(value)
    if kind is int:
        return "q" if _INT64_MIN <= value <= _INT64_MAX else None
    if kind is float:
        return "d"
    return None


class MemoryImage(Mapping):
    """An immutable map from addresses to words (see the module docstring).

    ``MemoryImage(words)`` copies any mapping; :meth:`ImageBuilder.build`
    hands its storage over without a copy.  Iteration follows insertion
    order; a missing address raises ``KeyError`` and ``get`` returns its
    default, as for a dict.
    """

    # ``get`` is a slot: each image binds its own lookup once, when it is
    # built (see :func:`_lookup`), instead of a method shared by all.
    __slots__ = ("_order", "_words", "_runs", "_len", "get")

    def __init__(self, words: Mapping | None = None) -> None:
        builder = ImageBuilder()
        if words is not None:
            append = builder._append  # a mapping's keys are distinct
            for addr, value in words.items():
                append(addr, value)
        self._adopt(*builder._hand_over())

    @classmethod
    def _from_parts(cls, order: tuple, words: dict) -> "MemoryImage":
        image = cls.__new__(cls)
        image._adopt(order, words)
        return image

    def _adopt(self, order: tuple, words: dict) -> None:
        # ``order`` lists the segments in insertion order: an int is a span
        # of that many next keys of ``words`` (the loose words), a
        # ``(base, array)`` pair a run.  No two segments share an address.
        self._order = order
        self._words = words
        self._runs = sorted((s for s in order if type(s) is not int), key=lambda s: s[0])
        self._len = sum(len(run) for _, run in self._runs) + len(words)
        self.get = _lookup(words, self._runs)

    def __getitem__(self, addr):
        value = self.get(addr, _MISSING)
        if value is _MISSING:
            raise KeyError(addr)
        return value

    def __contains__(self, addr) -> bool:
        return self.get(addr, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        loose = iter(self._words)
        for segment in self._order:
            if type(segment) is int:
                yield from islice(loose, segment)
            else:
                base, run = segment
                yield from range(base, base + WORD * len(run), WORD)

    def items(self) -> "_Items":
        return _Items(self)

    def __eq__(self, other) -> bool:
        # Dict equality (identity or ``==`` per value), streamed, so two
        # large images compare without materializing either.
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(self) != len(other):
            return False
        get = other.get
        for addr, value in self.items():
            theirs = get(addr, _MISSING)
            if theirs is not value and (theirs is _MISSING or not theirs == value):
                return False
        return True

    def __repr__(self) -> str:
        return f"<MemoryImage: {self._len} words, {len(self._runs)} runs>"

    def __reduce__(self):
        return MemoryImage._from_parts, (self._order, self._words)

    def sorted_chunks(self, size: int = _CHUNK) -> Iterator[list[tuple]]:
        """The ``(address, value)`` pairs in address order, as consecutive
        non-empty lists: the pieces of ``sorted(self.items())`` without
        building it whole.  A run yields lists of at most ``size`` pairs,
        plus any unaligned words that fall between its addresses."""
        loose = sorted(self._words.items())
        keys = [addr for addr, _ in loose]
        pos = 0
        for base, run in self._runs:
            cut = bisect_left(keys, base, pos)
            if cut > pos:
                yield loose[pos:cut]
                pos = cut
            for start in range(0, len(run), size):
                part = run[start : start + size]
                first = base + WORD * start
                stop = first + WORD * len(part)
                chunk = list(zip(range(first, stop, WORD), part, strict=True))
                cut = bisect_left(keys, stop, pos)
                if cut > pos:
                    chunk = sorted(chunk + loose[pos:cut])
                    pos = cut
                yield chunk
        if pos < len(loose):
            yield loose[pos:]


def _lookup(words: dict, runs: list[tuple[int, array]]):
    """``get(addr, default=None)`` over the loose ``words`` and the sorted,
    disjoint ``runs``.

    An aligned int address inside a run is a run word and nothing else, so
    the runs are checked first and the dict only for the rest: a run word
    costs no dict probe, and an image without runs is its dict's ``get``.
    """
    words_get = words.get
    if not runs:
        return words_get
    bases = [base for base, _ in runs]
    ends = [base + WORD * len(run) for base, run in runs]
    arrays = [run for _, run in runs]

    def get(addr, default=None):
        if type(addr) is int and not addr & 7:
            i = bisect_right(bases, addr) - 1
            if i >= 0 and addr < ends[i]:
                return arrays[i][(addr - bases[i]) >> 3]
        return words_get(addr, default)

    return get


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple]:
        image = self._mapping
        loose = iter(image._words.items())
        for segment in image._order:
            if type(segment) is int:
                yield from islice(loose, segment)
            else:
                base, run = segment
                yield from zip(range(base, base + WORD * len(run), WORD), run, strict=True)


class ImageBuilder:
    """Collects a :class:`MemoryImage` from typed arrays over disjoint regions.

    :meth:`build` hands the words over to an image, without a copy, and
    leaves the builder empty.
    """

    __slots__ = ("_order", "_loose", "_runs", "_bases", "_open", "_next", "_last")

    def __init__(self) -> None:
        self._order: list = []  # segments, as in MemoryImage._adopt
        self._loose: dict = {}  # words outside runs, in insertion order
        self._runs: list[tuple[int, array]] = []  # sorted by base
        self._bases: list[int] = []
        self._open: array | None = None  # the newest segment, if a run
        self._next: int | None = None  # the address that would extend it
        self._last: tuple[int, str] | None = None  # the newest loose word, if aligned and typed

    def fill(self, base: int, values: array) -> None:
        """Place ``values[i]`` at ``base + 8 * i`` for every ``i``.

        ``values`` is an ``array('i')``, ``array('q')`` or ``array('d')``,
        kept as a run and not copied, so the caller must not change it
        afterwards.  ``base`` must be 8-aligned and the region must hold no
        word yet: an image that needs overwrites or mixed types is a dict
        passed to :class:`MemoryImage` instead.
        """
        if not isinstance(values, array) or values.typecode not in _RUN_TYPECODES:
            raise TypeError("fill takes an array('i'), array('q') or array('d')")
        if type(base) is not int or base & 7:
            raise ValueError(f"fill base {base!r} is not 8-byte aligned")
        if not values:
            return
        if self._overlaps(base, base + WORD * len(values)):
            raise ValueError(f"fill at {base:#x} overlaps words already present")
        self._start_run(base, values)

    def build(self) -> MemoryImage:
        """The image of every word placed so far; the builder is emptied."""
        return MemoryImage._from_parts(*self._hand_over())

    def _hand_over(self) -> tuple[tuple, dict]:
        parts = (tuple(self._order), self._loose)
        self.__init__()
        return parts

    def _append(self, addr, value) -> None:
        """Add a word at an address that is not present yet."""
        code = _typecode(value) if type(addr) is int and not addr & 7 else None
        if code is not None:
            if addr == self._next and code == self._open.typecode:
                self._open.append(value)
                self._next += WORD
                return
            last = self._last
            if last is not None and addr == last[0] + WORD and code == last[1]:
                # The newest loose word and this one start a run.
                _, first = self._loose.popitem()
                self._order[-1] -= 1
                if not self._order[-1]:
                    self._order.pop()
                self._start_run(last[0], array(code, (first, value)))
                return
        self._loose[addr] = value
        order = self._order
        if order and type(order[-1]) is int:
            order[-1] += 1
        else:
            order.append(1)
        self._open = self._next = None
        self._last = None if code is None else (addr, code)

    def _start_run(self, base: int, run: array) -> None:
        segment = (base, run)
        self._order.append(segment)
        i = bisect_right(self._bases, base)
        self._bases.insert(i, base)
        self._runs.insert(i, segment)
        self._open = run
        self._next = base + WORD * len(run)
        self._last = None

    def _overlaps(self, lo: int, hi: int) -> bool:
        """Whether any run holds an address in ``[lo, hi)``."""
        i = bisect_right(self._bases, hi - 1) - 1
        if i >= 0:
            base, run = self._runs[i]
            return base + WORD * len(run) > lo
        return False
