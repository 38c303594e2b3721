"""Parameterised kernel generators.

Each generator emits assembly for the micro-ISA plus an initial memory
image and warm-up address list, wrapped in a :class:`Workload`.

The generators are built around the access patterns that drive STT/SDO
behaviour (see DESIGN.md §4 "shape targets"):

* ``make_indirect_stream`` — the central pattern: a strided index load feeds
  a scattered table load, and a branch tests the loaded value.  Under STT
  the value branch keeps the next iteration's table load tainted, which
  serialises what an insecure core overlaps (memory-level parallelism
  collapse).  The ``table_words`` knob sets where the tainted loads hit
  (L1/L2/L3/DRAM), which is exactly what the location predictor must learn.
* ``make_pointer_chase`` — serial chasing: dataflow already serialises, so
  STT overhead is moderate; models linked-list/tree traversal.
* ``make_stream_kernel`` — sequential streaming: one L1 miss every
  ``line_size/8`` accesses — the loop-predictor pattern (Section V-D #2).
* ``make_hash_probe`` — hashed probes with compare-and-rehash branches.
* ``make_fp_dense`` / ``make_fp_stream`` — FP transmitter (fmul/fdiv/fsqrt)
  pressure with a controllable subnormal fraction (the Obl-FP fail knob).
* ``make_compute_kernel`` — integer ILP with computed branches; the
  no-memory-pressure control.
* ``make_stride_reuse`` / ``make_mixed_kernel`` — blocked reuse and a
  mixture, for the middle of the spectrum.

All addresses are 8-byte-stride word addresses; a 64-byte line holds 8
words.
"""

from __future__ import annotations

import random
import struct

from repro.isa.assembler import assemble
from repro.workloads.workload import Workload

WORD = 8
LINE_WORDS = 8  # 64B line / 8B word

# Address-space layout bases (bytes), far apart so regions never collide.
TABLE_BASE = 1 << 22
INDEX_BASE = 1 << 26
OUTPUT_BASE = 1 << 28
AUX_BASE = 3 << 26

#: A value below the subnormal threshold (see repro.isa.instructions).
SUBNORMAL_VALUE = 1e-40


def _warm_region(base: int, words: int) -> tuple[int, ...]:
    """One address per line across a region."""
    return tuple(range(base, base + WORD * words, WORD * LINE_WORDS))


def _randbelow_many(rng: random.Random, n: int, count: int) -> list[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn in bulk.

    Returns the same values and leaves ``rng`` in the same state.
    ``randrange(n)`` keeps the top ``n.bit_length()`` bits of one 32-bit
    Mersenne Twister word and draws again while they are ``>= n``; and
    ``getrandbits(32 * m)`` is the next ``m`` such words, the first in the
    lowest bits.  Each round draws only as many words as values are still
    missing, so it never takes a word the one-by-one loop would not.
    """
    bits = n.bit_length()
    if not 0 < bits <= 32:
        return [rng.randrange(n) for _ in range(count)]
    shift = 32 - bits
    values: list[int] = []
    missing = count
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        values += [
            value
            for word in struct.unpack(f"<{missing}I", words)
            if (value := word >> shift) < n
        ]
        missing = count - len(values)
    return values


def _pad_block(pad_ops: int) -> str:
    """Independent ALU work (ILP padding) to dilute memory-system effects.

    Uses registers r20-r23, which no generator's main dataflow touches.
    """
    lines = ["        li r20, 17"]
    for i in range(pad_ops):
        reg = 21 + (i % 3)
        lines.append(f"        mul r{reg}, r{reg}, r20")
        lines.append(f"        addi r{reg}, r{reg}, {i + 1}")
    return "\n".join(lines[1:]) if pad_ops else ""


def make_indirect_stream(
    name: str,
    *,
    table_words: int,
    iterations: int,
    branch_taken_prob: float = 0.5,
    unroll: int = 1,
    warm_table: bool = True,
    pad_ops: int = 0,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """idx -> table -> value-branch, the MLP-sensitive pattern.

    ``table_words`` controls residence of the tainted loads: 2048 (16KB) is
    L1-resident, 16384 (128KB) L2, 131072 (1MB) L3, and >=524288 (4MB) with
    ``warm_table=False`` is effectively DRAM.  ``pad_ops`` adds independent
    ALU work per iteration, diluting the memory-bound fraction (real
    programs are not pure access loops).
    """
    rng = random.Random(seed)
    memory: dict[int, int | float] = {}
    threshold = int(branch_taken_prob * 1000)
    total_indices = iterations * unroll
    memory.update(zip(
        range(INDEX_BASE, INDEX_BASE + WORD * total_indices, WORD),
        _randbelow_many(rng, table_words, total_indices),
        strict=True,
    ))
    memory.update(zip(
        range(TABLE_BASE, TABLE_BASE + WORD * table_words, WORD),
        _randbelow_many(rng, 1000, table_words),
        strict=True,
    ))
    # `unroll` independent indirect loads share one value branch: only a
    # fraction of loads sit immediately behind a data-dependent branch, as
    # in real code where compilers hoist and most branches are on clean
    # induction state.
    unrolled = []
    for u in range(unroll):
        index_base = INDEX_BASE + WORD * iterations * u
        unrolled.append(f"""
        shl r9, r1, r12
        load r5, r9, {index_base}     ; idx[{u}*n + i] (strided, fast)
        shl r10, r5, r12
        load r6, r10, {TABLE_BASE}    ; table lookup (tainted under branches)
        add r3, r3, r6""")
    body = "".join(unrolled)
    source = f"""
        li r1, 0                 ; i
        li r2, {iterations}
        li r7, {threshold}
        li r12, 3
        li r20, 17
    loop:{body}
{_pad_block(pad_ops)}
        blt r6, r7, taken        ; value-dependent branch (last lookup)
        add r3, r3, r6
        jmp merge
    taken:
        sub r3, r3, r6
    merge:
        addi r1, r1, 1
        blt r1, r2, loop
        store r3, r0, {OUTPUT_BASE}
        halt
    """
    warm = _warm_region(INDEX_BASE, total_indices)
    if warm_table:
        warm += _warm_region(TABLE_BASE, table_words)
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"indirect stream over {table_words} words",
    )


def make_pointer_chase(
    name: str,
    *,
    nodes: int,
    iterations: int,
    value_branch: bool = True,
    warm_table: bool = True,
    pad_ops: int = 0,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """Serial pointer chase: node = {value, next}, 16 bytes."""
    rng = random.Random(seed)
    permutation = list(range(nodes))
    rng.shuffle(permutation)
    memory: dict[int, int | float] = {}
    node_addr = [TABLE_BASE + 16 * i for i in range(nodes)]
    values = _randbelow_many(rng, 1000, nodes)
    for addr, value, successor in zip(node_addr, values, permutation, strict=True):
        memory[addr] = value
        memory[addr + 8] = node_addr[successor]  # next
    branch_block = """
        blt r5, r7, chase
        add r3, r3, r5
    chase:
    """ if value_branch else ""
    source = f"""
        li r1, {node_addr[0]}
        li r2, 0
        li r4, {iterations}
        li r7, 500
        li r20, 17
    loop:
        load r5, r1, 0           ; node->value
        {branch_block}
        load r1, r1, 8           ; node->next (loop-carried chase)
{_pad_block(pad_ops)}
        addi r2, r2, 1
        blt r2, r4, loop
        store r1, r0, {OUTPUT_BASE}
        halt
    """
    warm = tuple(node_addr[::4]) if warm_table else ()
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"pointer chase over {nodes} nodes",
    )


def make_hash_probe(
    name: str,
    *,
    buckets: int,
    iterations: int,
    warm_table: bool = True,
    pad_ops: int = 0,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """Hash probing: key (strided) -> hash -> bucket load -> compare."""
    rng = random.Random(seed)
    memory: dict[int, int | float] = {}
    memory.update(zip(
        range(INDEX_BASE, INDEX_BASE + WORD * iterations, WORD),
        _randbelow_many(rng, 1 << 30, iterations),
        strict=True,
    ))
    memory.update(zip(
        range(TABLE_BASE, TABLE_BASE + WORD * buckets, WORD),
        _randbelow_many(rng, 1 << 30, buckets),
        strict=True,
    ))
    mask = buckets - 1
    if buckets & mask:
        raise ValueError("buckets must be a power of two")
    source = f"""
        li r1, 0
        li r2, {iterations}
        li r11, 2654435761
        li r12, 3
        li r20, 17
    loop:
        shl r9, r1, r12
        load r5, r9, {INDEX_BASE}      ; key (strided)
        mul r6, r5, r11                ; hash it (delays the address)
        andi r6, r6, {mask}
        shl r6, r6, r12
        load r8, r6, {TABLE_BASE}      ; bucket probe (tainted)
{_pad_block(pad_ops)}
        beq r8, r5, hit                ; compare-with-key branch
        addi r6, r6, 8
        andi r6, r6, {mask * WORD}
        load r8, r6, {TABLE_BASE}      ; rehash probe (tainted, dependent)
        add r3, r3, r8
    hit:
        addi r1, r1, 1
        blt r1, r2, loop
        store r3, r0, {OUTPUT_BASE}
        halt
    """
    warm = _warm_region(INDEX_BASE, iterations)
    if warm_table:
        warm += _warm_region(TABLE_BASE, buckets)
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"hash probe over {buckets} buckets",
    )


def make_stream_kernel(
    name: str,
    *,
    words: int,
    iterations: int | None = None,
    warm: bool = False,
    description: str = "",
) -> Workload:
    """Sequential streaming: b[i] = a[i] + s — one L1 miss per 8 accesses."""
    count = iterations if iterations is not None else words
    memory: dict[int, int | float] = {
        TABLE_BASE + WORD * i: i % 251 for i in range(words)
    }
    source = f"""
        li r1, 0
        li r2, {count}
        li r12, 3
    loop:
        shl r9, r1, r12
        load r5, r9, {TABLE_BASE}      ; a[i], strided
        add r3, r3, r5
        load r6, r5, {TABLE_BASE}      ; a[a[i]] — dependent, near-stride
        blt r6, r3, skip               ; value branch keeps taint live
        add r3, r3, r6
    skip:
        store r3, r9, {OUTPUT_BASE}
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """
    warm_list = _warm_region(TABLE_BASE, min(words, 4096)) if warm else ()
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm_list,
        description=description or f"stream over {words} words",
    )


def make_stride_reuse(
    name: str,
    *,
    block_words: int,
    passes: int,
    stride: int = 7,
    warm_table: bool = True,
    pad_ops: int = 0,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """Repeated passes over a block (L2-resident reuse, x264-like)."""
    rng = random.Random(seed)
    memory: dict[int, int | float] = dict(zip(
        range(TABLE_BASE, TABLE_BASE + WORD * block_words, WORD),
        _randbelow_many(rng, block_words, block_words),
        strict=True,
    ))
    source = f"""
        li r1, 0
        li r2, {passes}
        li r12, 3
        li r20, 17
    outer:
        li r4, 0
        li r5, {block_words}
    inner:
        shl r9, r4, r12
        load r6, r9, {TABLE_BASE}      ; block[j]
        shl r10, r6, r12
        load r8, r10, {TABLE_BASE}     ; block[block[j]] (tainted indirect)
{_pad_block(pad_ops)}
        blt r8, r6, skip
        add r3, r3, r8
    skip:
        addi r4, r4, {stride}          ; word stride
        blt r4, r5, inner
        addi r1, r1, 1
        blt r1, r2, outer
        store r3, r0, {OUTPUT_BASE}
        halt
    """
    warm = _warm_region(TABLE_BASE, block_words) if warm_table else ()
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"{passes} passes over {block_words}-word block",
    )


def make_fp_dense(
    name: str,
    *,
    elems: int,
    iterations: int,
    companion_words: int = 16 * 1024,
    subnormal_frac: float = 0.0,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """FP-dense compute (namd-like).

    The FP operand table is small (fast operand arrival) while the integer
    companion table that feeds the value branch is ``companion_words`` big
    (L2 by default), so branch resolution lags the FP operands — the window
    in which fmul/fdiv are tainted-but-ready.  That is the case that
    separates STT{ld} (no FP protection, near-zero overhead here) from
    STT{ld+fp} (delays the FP ops) from SDO (predicts the fast path).
    ``subnormal_frac`` of the operands take the slow FP path, which is also
    the Obl-FP fail probability.
    """
    rng = random.Random(seed)
    if elems & (elems - 1) or companion_words & (companion_words - 1):
        raise ValueError("elems and companion_words must be powers of two")
    memory: dict[int, int | float] = {}
    for i in range(elems):
        if rng.random() < subnormal_frac:
            memory[TABLE_BASE + WORD * i] = SUBNORMAL_VALUE
        else:
            memory[TABLE_BASE + WORD * i] = 1.0 + rng.random()
    memory.update(zip(
        range(AUX_BASE, AUX_BASE + WORD * companion_words, WORD),
        _randbelow_many(rng, 1000, companion_words),
        strict=True,
    ))
    memory.update(zip(
        range(INDEX_BASE, INDEX_BASE + WORD * iterations, WORD),
        _randbelow_many(rng, companion_words, iterations),
        strict=True,
    ))
    source = f"""
        li r1, 0
        li r2, {iterations}
        li r7, 150
        li r12, 3
        li r13, {elems - 1}
        li r14, 547
        li r15, {companion_words - 1}
        fli f2, 1.0009765625
        fli f3, 0.5
    loop:
        mul r5, r1, r14                ; prime word stride through companion
        and r5, r5, r15
        shl r10, r5, r12
        load r6, r10, {AUX_BASE}       ; slow companion, CLEAN address
        and r11, r1, r13
        shl r11, r11, r12
        fload f0, r11, {TABLE_BASE}    ; L1 fp operand, CLEAN address: issues
                                       ; speculatively, output tainted
        fmul f1, f0, f2                ; tainted-at-ready: the {{ld+fp}} case
        fdiv f4, f1, f0                ; transmitter (slow if f0 subnormal)
        fmul f5, f5, f2                ; loop-carried transmitter chain
        fadd f5, f5, f4
        blt r6, r7, skip               ; value branch on slow companion
        fmul f5, f5, f3
    skip:
        addi r1, r1, 1
        blt r1, r2, loop
        fstore f5, r0, {OUTPUT_BASE}
        halt
    """
    warm = (
        _warm_region(INDEX_BASE, iterations)
        + _warm_region(TABLE_BASE, elems)
        + _warm_region(AUX_BASE, companion_words)
    )
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"fp-dense over {elems} elems",
    )


def make_fp_stream(
    name: str,
    *,
    words: int,
    iterations: int,
    subnormal_frac: float = 0.001,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """FP streaming with indirect coefficient lookup (bwaves-like).

    a[i] streams; the coefficient c[k[i]] and the branch companion are
    indirect into ``words``-sized (warmed) tables, so the tainted loads and
    FP transmitters live under moderately slow branch windows.
    """
    rng = random.Random(seed)
    companion_base = AUX_BASE << 1
    memory: dict[int, int | float] = {}
    for i in range(words):
        value: int | float
        if rng.random() < subnormal_frac:
            value = SUBNORMAL_VALUE
        else:
            value = rng.random() + 0.1
        memory[TABLE_BASE + WORD * i] = value
        memory[AUX_BASE + WORD * i] = rng.randrange(words)
        memory[companion_base + WORD * i] = rng.randrange(1000)
    source = f"""
        li r1, 0
        li r2, {iterations}
        li r7, 150
        li r12, 3
    loop:
        shl r9, r1, r12
        fload f0, r9, {TABLE_BASE}     ; a[i] streaming, CLEAN address
        load r5, r9, {AUX_BASE}        ; coefficient index (strided)
        shl r10, r5, r12
        load r6, r10, {companion_base} ; indirect int (tainted) -> branch
        fload f1, r10, {TABLE_BASE}    ; c[k[i]] (tainted indirect)
        fmul f2, f0, f0                ; tainted-at-ready under {{ld+fp}}
        fsqrt f4, f0                   ; transmitter on the clean stream
        fadd f3, f3, f2
        fadd f3, f3, f4
        blt r6, r7, skip               ; value branch -> taint window
        fmul f3, f3, f1                ; transmitter on the indirect value
    skip:
        fstore f3, r9, {OUTPUT_BASE}
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """
    warm = (
        _warm_region(AUX_BASE, words)
        + _warm_region(companion_base, words)
        + _warm_region(TABLE_BASE, words)
    )
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or f"fp stream over {words} words",
    )


def make_compute_kernel(
    name: str,
    *,
    iterations: int,
    description: str = "",
) -> Workload:
    """Integer compute with computed branches; negligible memory traffic."""
    source = f"""
        li r1, 0
        li r2, {iterations}
        li r7, 7
        li r8, 3
    loop:
        mul r3, r1, r7
        add r3, r3, r8
        andi r4, r3, 15
        blt r4, r7, low
        xor r5, r5, r3
        jmp merge
    low:
        add r5, r5, r4
    merge:
        shr r6, r3, r8
        add r5, r5, r6
        addi r1, r1, 1
        blt r1, r2, loop
        store r5, r0, {OUTPUT_BASE}
        halt
    """
    return Workload(
        name=name,
        program=assemble(source, {}, name=name),
        warm_addresses=(),
        description=description or "integer compute kernel",
    )


# --------------------------------------------------------------------------
# Spectre-v1 gadget skeleton (the repro.scan corpus and its seeded soups).
#
# The skeleton computes the attacker index *branchlessly* (slt/sub/mul select
# in-bounds while training, out-of-bounds on the final round) so the only
# data-relevant branch is the bounds check itself; the check's limit arrives
# through a long dependent ALU chain, so the branch resolves tens of cycles
# after the (warm) access load and the mispredict window is dynamically wide
# open on the attack round.  A cold limit *load* would not work here: making
# it slow round after round requires serialising it on the previous round's
# loaded value, which taints the limit address chain and would turn every
# looped program — including the safe ones — into a static positive.  The
# ALU chain delays resolution with zero taint.  The attack round's branch is
# architecturally taken, so the payload never commits: the committed stream
# is secret-invariant and any trace/cycle difference between the two secrets
# is a speculative leak.

#: Victim array (warmed; 8 in-bounds words).
GADGET_A_BASE = 1 << 22
#: Transmit target array (cold).
GADGET_B_BASE = 1 << 23
#: Second-hop transmit target (cold).
GADGET_C_BASE = 1 << 24
#: Per-round bounds-limit cells, one cold line each (stride 64).
GADGET_LIMIT_BASE = 1 << 25
GADGET_TRAIN_ROUNDS = 12
#: Out-of-bounds index of the secret cell (32 KiB past A).
GADGET_OOB_INDEX = 4096
GADGET_SECRET_ADDR = GADGET_A_BASE + WORD * GADGET_OOB_INDEX
#: Integer secrets: x512 transmit stride puts them on different cache
#: lines, away from anything the training rounds touch.
GADGET_SECRET_VALUES = (16, 17)
GADGET_TRANSMIT_SHIFT = 9
#: FP secrets: a normal vs a subnormal operand (the Obl-FP slow path).
GADGET_FP_SECRET_VALUES = (1.5, 1e-40)
#: Dependent ALU ops delaying the bounds check's limit each round.  The
#: access load hits a warm line (~2 cycles), so the transmit issues a few
#: cycles after dispatch; the branch cannot resolve for at least this many.
GADGET_CHAIN_LENGTH = 48


def gadget_memory(secret: int, *, fp: bool = False) -> dict[int, int | float]:
    """Initial memory for one gadget-pair half: differs only at the secret."""
    if secret not in (0, 1):
        raise ValueError("secret selects a memory image; it must be 0 or 1")
    memory: dict[int, int | float] = {}
    for i in range(8):
        memory[GADGET_A_BASE + WORD * i] = 1.0 if fp else 0
    values = GADGET_FP_SECRET_VALUES if fp else GADGET_SECRET_VALUES
    memory[GADGET_SECRET_ADDR] = values[secret]
    for round_index in range(GADGET_TRAIN_ROUNDS + 1):
        memory[GADGET_LIMIT_BASE + 64 * round_index] = 8
    return memory


def make_bounds_check_gadget(
    name: str,
    *,
    payload: str,
    secret: int,
    fp_access: bool = False,
    description: str = "",
) -> Workload:
    """The corpus skeleton: bounds-check bypass around ``payload``.

    ``payload`` is raw assembly (8-space indented) placed right after the
    access load, inside the speculative window; it sees the loaded value in
    ``r7`` (``f1`` with ``fp_access``) and may scratch r3/r5/r8/r9/r11,
    r20, r23+ and f2.  The skeleton reserves r1/r2/r4/r6/r10/r12/r13/
    r16-r19/r21/r22/r26 and provides r13 = transmit shift, r18 = 1,
    f3 = 3.0.
    """
    access = (
        f"        fload f1, r10, {GADGET_A_BASE}"
        if fp_access
        else f"        load r7, r10, {GADGET_A_BASE}"
    )
    chain = "\n".join(
        "        addi r26, r26, 0" for _ in range(GADGET_CHAIN_LENGTH)
    )
    source = f"""
        li r1, 0
        li r2, {GADGET_TRAIN_ROUNDS + 1}
        li r21, {GADGET_TRAIN_ROUNDS}
        li r18, 1
        li r22, {GADGET_OOB_INDEX}
        li r12, 3
        li r13, {GADGET_TRANSMIT_SHIFT}
        fli f3, 3.0
    loop:
        slt r16, r1, r21         ; 1 while training, 0 on the attack round
        sub r17, r18, r16        ; 0 while training, 1 on the attack round
        mul r19, r17, r22        ; 0 while training, OOB index on attack
        andi r4, r1, 7
        mul r4, r4, r16          ; benign component (0 on the attack round)
        add r4, r4, r19          ; final index, selected without a branch
        shl r10, r4, r12         ; byte offset into A
        add r26, r1, r18         ; restart the resolution-delay chain
{chain}
        andi r26, r26, 0         ; back to 0, only after the delay
        addi r6, r26, 8          ; the limit: 8, ready late, never tainted
        bge r4, r6, skip         ; bounds check; mispredicted on attack
{access}
{payload}
    skip:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """
    return Workload(
        name=name,
        program=assemble(source, gadget_memory(secret, fp=fp_access), name=name),
        # The victim touched the secret legitimately just before (the usual
        # Spectre preamble), so the access load is fast enough for the
        # payload to issue inside the window.
        warm_addresses=(GADGET_A_BASE, GADGET_SECRET_ADDR),
        description=description or "bounds-check-bypass gadget skeleton",
    )


#: Payload fragment kinds for the seeded soups.  Weights lean toward the
#: interesting ones; "pad" keeps programs from being wall-to-wall sinks.
_SOUP_POOL = (
    "transmit", "transmit",
    "alu", "alu",
    "store_addr",
    "store_value",
    "kill",
    "accumulate",
    "pad",
)

#: Reason attached to soups whose only sink is a store address.
SOUP_STORE_UNSOUND_REASON = (
    "stores touch memory only at commit in this machine, so a squashed "
    "store-address gadget leaves no resource trace; the static finding is "
    "kept — real LSUs translate store addresses speculatively"
)


def gadget_soup_spec(
    seed: int, *, fragments: tuple[int, int] = (2, 5)
) -> tuple[str, frozenset[str], frozenset[str]]:
    """Derive one soup's payload and its expected static verdict.

    Returns ``(payload, expected_classes, unsound_ok)`` where the classes
    use the :mod:`repro.scan.analyzer` names (``v1``/``v1.1``/``latency``).
    The generator tracks taint liveness through the fragments — an
    immediate write kills the chain — so the declared classes are exactly
    what a correct window-taint analysis must report, and ``v1`` membership
    is exactly "this soup leaks under the Unsafe machine".
    """
    rng = random.Random(seed)
    count = rng.randint(*fragments)
    lines: list[str] = []
    classes: set[str] = set()
    curr = "r7"  # register currently holding the access value's dataflow
    live = True  # does ``curr`` still carry the access load's taint?
    for _ in range(count):
        kind = rng.choice(_SOUP_POOL)
        if kind == "transmit":
            lines.append(f"        shl r8, {curr}, r13")
            lines.append(f"        load r11, r8, {GADGET_B_BASE}")
            if live:
                classes.add("v1")
        elif kind == "alu":
            lines.append(f"        add r8, {curr}, r18")
            lines.append("        xor r8, r8, r18")
            curr = "r8"
        elif kind == "store_addr":
            # Targets C, not B: a speculative store to the same address as
            # a later transmit load would satisfy it by SQ forwarding, and
            # the forwarded load never touches the hierarchy.
            lines.append(f"        shl r20, {curr}, r13")
            lines.append(f"        store r3, r20, {GADGET_C_BASE}")
            if live:
                classes.add("v1.1")
        elif kind == "store_value":
            lines.append("        shl r20, r1, r12")
            lines.append(f"        store {curr}, r20, {OUTPUT_BASE}")
        elif kind == "kill":
            lines.append("        li r8, 0")
            curr = "r8"
            live = False
        elif kind == "accumulate":
            lines.append(f"        add r3, r3, {curr}")
        else:  # pad
            lines.append("        addi r24, r24, 1")
    unsound = frozenset({"v1.1"} & classes)
    return "\n".join(lines), frozenset(classes), unsound


def make_gadget_soup(name: str, *, seed: int, secret: int) -> Workload:
    """One seeded random gadget-soup program (see :func:`gadget_soup_spec`)."""
    payload, classes, _ = gadget_soup_spec(seed)
    return make_bounds_check_gadget(
        name,
        payload=payload,
        secret=secret,
        description=(
            f"seeded gadget soup (seed {seed}; "
            f"classes {sorted(classes) or 'none'})"
        ),
    )


def make_mixed_kernel(
    name: str,
    *,
    table_words: int,
    iterations: int,
    seed: int = 0,
    description: str = "",
) -> Workload:
    """gcc-like mixture: stride loads, one indirect load, two branches."""
    rng = random.Random(seed)
    memory: dict[int, int | float] = {}
    memory.update(zip(
        range(TABLE_BASE, TABLE_BASE + WORD * table_words, WORD),
        _randbelow_many(rng, table_words, table_words),
        strict=True,
    ))
    memory.update(zip(
        range(INDEX_BASE, INDEX_BASE + WORD * iterations, WORD),
        _randbelow_many(rng, 1000, iterations),
        strict=True,
    ))
    source = f"""
        li r1, 0
        li r2, {iterations}
        li r7, 300
        li r11, {table_words - 1}
        li r12, 3
    loop:
        shl r9, r1, r12
        load r5, r9, {INDEX_BASE}      ; strided scalar
        blt r5, r7, cold
        and r6, r5, r11
        shl r10, r6, r12
        load r8, r10, {TABLE_BASE}     ; indirect (tainted)
        add r3, r3, r8
        jmp merge
    cold:
        mul r4, r5, r7
        add r3, r3, r4
    merge:
        store r3, r9, {OUTPUT_BASE}
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    """
    warm = _warm_region(INDEX_BASE, iterations) + _warm_region(TABLE_BASE, table_words)
    return Workload(
        name=name,
        program=assemble(source, memory, name=name),
        warm_addresses=warm,
        description=description or "mixed stride/indirect kernel",
    )
