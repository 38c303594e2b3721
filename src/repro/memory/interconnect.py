"""Mesh interconnect between cores, L3 slices and the memory controller.

Table I: a 4x2 mesh, 128-bit links, 1 cycle per hop.  The model is a
distance-latency network: the latency of a message is
``hops(src, dst) * hop_latency`` with X-Y routing (Manhattan distance).

Two properties matter to SDO:

* A normal L3 access goes to the *slice selected by the address hash* —
  the hop count is address-dependent, which leaks (the classic LLC-slice
  side channel).
* An oblivious L3 access is broadcast to **all** slices and completes when
  the farthest response returns (Section VI-B2, "LLC slice access"), so its
  latency is the fixed worst-case distance, independent of the address.
"""

from __future__ import annotations

from functools import lru_cache


class Mesh:
    """An ``nx x ny`` mesh with X-Y routing."""

    def __init__(self, dims: tuple[int, int], hop_latency: int = 1) -> None:
        self.nx, self.ny = dims
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"bad mesh dimensions {dims}")
        self.hop_latency = hop_latency

    @property
    def num_nodes(self) -> int:
        return self.nx * self.ny

    def coords(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside {self.nx}x{self.ny} mesh")
        return node % self.nx, node // self.nx

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src: int, dst: int) -> int:
        """One-way message latency."""
        return self.hops(src, dst) * self.hop_latency

    def round_trip(self, src: int, dst: int) -> int:
        return 2 * self.latency(src, dst)

    def max_round_trip(self, src: int) -> int:
        """Worst-case round trip from ``src`` to any node.

        This is the fixed latency of a broadcast that waits for all
        responses — the oblivious L3 lookup.
        """
        return max(self.round_trip(src, dst) for dst in range(self.num_nodes))


def slice_of_line(line: int, num_slices: int) -> int:
    """The design-time hash mapping a line to its L3 slice.

    Commercial hashes XOR-fold the address; we do the same over the line
    number so that consecutive lines spread across slices.  A power-of-two
    slice count folds bit fields (mask and shift); any other count folds
    base-``num_slices`` digits.
    """
    if num_slices & (num_slices - 1) == 0 and num_slices > 1:
        mask = num_slices - 1
        shift = mask.bit_length()
        folded = 0
        while line:
            folded ^= line & mask
            line >>= shift
        return folded
    if num_slices == 1:
        return 0
    folded = 0
    while line:
        folded ^= line % num_slices
        line //= num_slices
    return folded % num_slices


#: Upper bound on a fold table's entries (a power of the slice count).
_FOLD_TABLE_MAX = 4096


@lru_cache(maxsize=8)
def slice_fold_table(num_slices: int) -> tuple[int, tuple[int, ...]]:
    """``(radix, table)`` for bucketing lines per slice (``num_slices > 1``).

    ``radix`` is the largest power of ``num_slices`` not above 4096 (at
    least ``num_slices``), and ``table[low]`` is the XOR of the base-
    ``num_slices`` digits of ``low < radix``, before the final reduction.
    A power-of-two count's digits are the bit fields ``slice_of_line``
    folds, so one table form serves both of its branches.
    """
    radix = num_slices
    while radix * num_slices <= _FOLD_TABLE_MAX:
        radix *= num_slices
    table = [0] * radix
    for low in range(1, radix):
        table[low] = table[low // num_slices] ^ (low % num_slices)
    return radix, tuple(table)


def lines_by_slice(lines, num_slices: int) -> list[list[int]]:
    """``lines`` split per L3 slice, each bucket in the order given.

    Bucket ``s`` holds the lines with ``slice_of_line(line, num_slices)
    == s``.  The digit fold is an XOR, so it splits at any digit boundary:
    a line's fold is the table entry of its low digits XOR'd with the
    fold of its high part, memoized (a warm set is dense, so it has few
    distinct high parts), instead of a digit loop per line.
    """
    buckets: list[list[int]] = [[] for _ in range(num_slices)]
    if num_slices == 1:
        buckets[0].extend(lines)
        return buckets
    radix, table = slice_fold_table(num_slices)
    appends = [bucket.append for bucket in buckets]
    high_folds: dict[int, int] = {}
    for line in lines:
        high = line // radix
        high_fold = high_folds.get(high)
        if high_fold is None:
            high_fold = 0
            rest = high
            while rest:
                high_fold ^= table[rest % radix]
                rest //= radix
            high_folds[high] = high_fold
        appends[(table[line % radix] ^ high_fold) % num_slices](line)
    return buckets


def slice_node(slice_index: int, mesh: Mesh) -> int:
    """Placement of L3 slices on mesh nodes (one slice per node, wrapped)."""
    return slice_index % mesh.num_nodes
