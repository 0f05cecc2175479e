"""Column-oriented dynamic instruction traces.

A :class:`Trace` holds one dynamic instruction stream as parallel NumPy
arrays (one per field).  This layout lets workload generation and BBV
profiling run vectorized, while the timing model converts the columns
it iterates into plain Python lists once (list indexing is much faster
than NumPy scalar access inside an interpreter loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

# Flag bits for the ``flags`` column.
FLAG_COND_BRANCH = 1  #: conditional branch
FLAG_TAKEN = 2  #: branch/jump outcome was taken
FLAG_CALL = 4  #: call instruction (pushes return address)
FLAG_RETURN = 8  #: return instruction (pops return address)
FLAG_UNCOND = 16  #: unconditional jump
FLAG_TRIVIAL = 32  #: dynamically trivial computation (TC candidate)

FLAG_ANY_BRANCH = (
    FLAG_COND_BRANCH | FLAG_CALL | FLAG_RETURN | FLAG_UNCOND
)

# Branch-kind codes for the precomputed ``branch_kinds`` column: one
# small integer per instruction instead of repeated flag tests in the
# per-instruction loops.
BK_NONE = 0
BK_COND = 1
BK_CALL = 2
BK_RETURN = 3
BK_UNCOND = 4

#: Page size used for TLB indexing (4 KB pages, fixed ISA-wide).
PAGE_SHIFT = 12

_COLUMN_NAMES = (
    "op", "dst", "src1", "src2", "pc", "block", "addr", "flags", "target",
)


#: Byte budget of a trace's region memo, per trace instruction.  One
#: whole-trace artifact set (cache, TLB and branch feeds) holds a few
#: hundred bytes per instruction, so long-region artifacts stay only
#: while they keep being reused, and short-region ones by the hundred.
#: A byte bound keeps a worker's memory flat however many long regions
#: its runs visit.
REGION_MEMO_BYTES_PER_INSTRUCTION = 64


def _footprint(value) -> int:
    """Rough bytes held by a memoized region artifact: arrays at their
    size, list elements at 32 bytes (an int object plus its slot),
    tuples as the sum of their parts."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_footprint(part) for part in value)
    if isinstance(value, list):
        return 32 * len(value)
    return 0


@dataclass
class Trace:
    """A dynamic instruction stream.

    All arrays share the same length.  ``pc`` and ``addr`` are byte
    addresses; ``addr`` is zero for non-memory instructions.  ``block``
    is the static basic-block id of each instruction, used for
    execution-profile characterization and SimPoint BBVs.
    """

    op: np.ndarray  # uint8 OpClass
    dst: np.ndarray  # int16 register (-1 none)
    src1: np.ndarray  # int16
    src2: np.ndarray  # int16
    pc: np.ndarray  # int64
    block: np.ndarray  # int32
    addr: np.ndarray  # int64
    flags: np.ndarray  # uint8
    target: np.ndarray  # int64 branch target pc (0 if not a branch)
    num_blocks: int = 0
    _list_cache: dict = field(default_factory=dict, repr=False)
    _region_cache: dict = field(default_factory=dict, repr=False)
    _region_bytes: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        length = len(self.op)
        for name in ("dst", "src1", "src2", "pc", "block", "addr", "flags", "target"):
            if len(getattr(self, name)) != length:
                raise ValueError(f"column {name!r} length mismatch")
        if self.num_blocks == 0 and length:
            self.num_blocks = int(self.block.max()) + 1

    def __len__(self) -> int:
        return len(self.op)

    def column_lists(self, start: int = 0, end: int | None = None) -> Tuple[List, ...]:
        """Columns converted to Python lists for the timing loop.

        Returns ``(op, dst, src1, src2, pc, block, addr, flags, target)``
        over ``[start, end)``.  Full-trace conversions are cached.
        """
        if end is None:
            end = len(self)
        full = self._list_cache.get("full")
        if start == 0 and end == len(self):
            if full is None:
                full = tuple(
                    getattr(self, name).tolist() for name in _COLUMN_NAMES
                )
                self._list_cache["full"] = full
            return full
        if full is not None:
            # Slicing the cached Python lists (a pointer copy) is much
            # cheaper than re-running ``ndarray.tolist`` per chunk.
            return tuple(column[start:end] for column in full)
        return tuple(
            getattr(self, name)[start:end].tolist() for name in _COLUMN_NAMES
        )

    def region_memo(self, key: Tuple, build):
        """Memoized backend artifact for one trace region.

        Simulation kernels derive many pure functions of a region --
        event index sets, deduplicated access streams, predictor
        feeds.  Techniques and benchmarks revisit the same regions
        (across configurations, warm-up/measure splits and repeated
        runs), so these are cached here rather than recomputed.
        ``key`` must fully determine the artifact: region bounds plus
        any structure geometry it depends on.  The cache is bounded by
        :data:`REGION_MEMO_BYTES_PER_INSTRUCTION` times the trace length
        (artifact sizes estimated by :func:`_footprint`) and by 256
        keys, evicting the least recently used entry first.
        """
        cache = self._region_cache
        entry = cache.pop(key, None)
        if entry is None:
            value = build()
            entry = (value, _footprint(value))
            self._region_bytes += entry[1]
            budget = REGION_MEMO_BYTES_PER_INSTRUCTION * len(self)
            while cache and (self._region_bytes > budget or len(cache) >= 256):
                _, size = cache.pop(next(iter(cache)))
                self._region_bytes -= size
        cache[key] = entry
        return entry[0]

    # -- derived columns for the kernel backends -------------------------------

    def pages(self) -> np.ndarray:
        """Cached 4 KB page id of each instruction's PC."""
        cached = self._list_cache.get("pages")
        if cached is None:
            cached = self.pc >> PAGE_SHIFT
            self._list_cache["pages"] = cached
        return cached

    def data_pages(self) -> np.ndarray:
        """Cached 4 KB page id of each instruction's data address."""
        cached = self._list_cache.get("data_pages")
        if cached is None:
            cached = self.addr >> PAGE_SHIFT
            self._list_cache["data_pages"] = cached
        return cached

    def fetch_blocks(self, block_shift: int) -> np.ndarray:
        """Cached fetch-block id (``pc >> block_shift``) per instruction.

        The shift depends on the configured I-cache block size, so the
        cache is keyed by shift; sweeps share entries per distinct
        geometry instead of re-doing the bit-twiddling per run.
        """
        key = ("fetch_blocks", block_shift)
        cached = self._list_cache.get(key)
        if cached is None:
            cached = self.pc >> block_shift
            self._list_cache[key] = cached
        return cached

    def data_blocks(self, block_shift: int) -> np.ndarray:
        """Cached data-block id (``addr >> block_shift``) per instruction."""
        key = ("data_blocks", block_shift)
        cached = self._list_cache.get(key)
        if cached is None:
            cached = self.addr >> block_shift
            self._list_cache[key] = cached
        return cached

    def branch_kinds(self) -> np.ndarray:
        """Cached branch-kind code (``BK_*``) per instruction.

        Assignments run in *reverse* precedence order so that an
        instruction carrying several branch flags ends up with the same
        kind the simulation loops' if/elif chains would pick
        (cond > call > return > uncond).
        """
        cached = self._list_cache.get("branch_kinds")
        if cached is None:
            flags = self.flags
            cached = np.zeros(len(flags), dtype=np.int64)
            cached[(flags & FLAG_UNCOND) != 0] = BK_UNCOND
            cached[(flags & FLAG_RETURN) != 0] = BK_RETURN
            cached[(flags & FLAG_CALL) != 0] = BK_CALL
            cached[(flags & FLAG_COND_BRANCH) != 0] = BK_COND
            self._list_cache["branch_kinds"] = cached
        return cached

    def taken_bits(self) -> np.ndarray:
        """Cached taken flag (0/1 int64) per instruction."""
        cached = self._list_cache.get("taken_bits")
        if cached is None:
            cached = ((self.flags & FLAG_TAKEN) != 0).astype(np.int64)
            self._list_cache["taken_bits"] = cached
        return cached

    def trivial_bits(self) -> np.ndarray:
        """Cached trivial-computation flag (0/1 int64) per instruction."""
        cached = self._list_cache.get("trivial_bits")
        if cached is None:
            cached = ((self.flags & FLAG_TRIVIAL) != 0).astype(np.int64)
            self._list_cache["trivial_bits"] = cached
        return cached

    def kernel_columns(self, block_shift: int):
        """Cached int64 column tuple consumed by the JIT-able kernels.

        Returns ``(op, dst, src1, src2, pc, addr, target, fetch_block,
        page, branch_kind, taken, trivial)`` -- every array int64 so a
        compiled kernel specializes on one homogeneous signature.
        """
        key = ("kernel_columns", block_shift)
        cached = self._list_cache.get(key)
        if cached is None:
            cached = (
                self.op.astype(np.int64),
                self.dst.astype(np.int64),
                self.src1.astype(np.int64),
                self.src2.astype(np.int64),
                self.pc.astype(np.int64),
                self.addr.astype(np.int64),
                self.target.astype(np.int64),
                self.fetch_blocks(block_shift).astype(np.int64),
                self.pages().astype(np.int64),
                self.branch_kinds(),
                self.taken_bits(),
                self.trivial_bits(),
            )
            self._list_cache[key] = cached
        return cached

    def timing_lists(
        self,
        trivial_enabled: bool,
        start: int = 0,
        end: int | None = None,
        merge_ctrl: bool = False,
    ) -> List[Tuple[int, int, int, int]]:
        """Cached ``(code, dst, src1, src2)`` tuples for the
        split-phase timing loop over ``[start, end)``.

        ``code`` is the op class with every control op (>= BRANCH)
        folded to 8 (pool 0, unit latency) and -- when the trivial
        computation enhancement is on -- trivially simplifiable non-
        memory ops folded to 15.  With ``merge_ctrl`` control ops fold
        to 0 instead: when the integer-ALU latency is one cycle the
        two dispatch arms are indistinguishable, so the loop can drop
        one branch of its dispatch chain.  Register ids use the
        sentinel mapping: a missing destination (-1) becomes
        ``NUM_REGS`` (a write-only scratch slot) and a missing source
        becomes ``NUM_REGS + 1`` (a slot that is always ready at cycle
        0), so the hot loop needs no validity branches.  The rows are
        prezipped into one tuple list (cheaper to iterate than a zip
        of four columns).  A short region of a long trace converts (and
        memoizes) just its slice -- the full conversion costs an order
        of magnitude more than such a region needs; the full-trace
        conversion is built and cached the first time a caller asks for
        a large region, after which slices are pointer copies.
        """
        if end is None:
            end = len(self)
        key = ("timing", bool(trivial_enabled), bool(merge_ctrl))
        full = self._list_cache.get(key)
        if full is None:
            if (end - start) * 8 < len(self):
                return self.region_memo(
                    key + (start, end),
                    lambda: self.timing_rows(
                        trivial_enabled, merge_ctrl, start, end
                    ),
                )
            full = self.timing_rows(trivial_enabled, merge_ctrl, 0, len(self))
            self._list_cache[key] = full
        if start == 0 and end == len(self):
            return full
        # A slice of the cached list is a pointer copy: cheap to redo,
        # and memoizing it would pin a second reference list per region.
        return full[start:end]

    def timing_rows(
        self, trivial_enabled: bool, merge_ctrl: bool, start: int, end: int
    ) -> List[Tuple[int, int, int, int]]:
        """Uncached :meth:`timing_lists` rows over ``[start, end)``."""
        from repro.isa.instructions import NUM_REGS

        op = self.op[start:end].astype(np.int64)
        codes = np.where(op >= 8, 0 if merge_ctrl else 8, op)
        if trivial_enabled:
            trivial = (
                (self.trivial_bits()[start:end] != 0) & (op != 6) & (op != 7)
            )
            codes = np.where(trivial, 15, codes)
        dst = self.dst[start:end].astype(np.int64)
        src1 = self.src1[start:end].astype(np.int64)
        src2 = self.src2[start:end].astype(np.int64)
        return list(
            zip(
                codes.tolist(),
                np.where(dst < 0, NUM_REGS, dst).tolist(),
                np.where(src1 < 0, NUM_REGS + 1, src1).tolist(),
                np.where(src2 < 0, NUM_REGS + 1, src2).tolist(),
            )
        )

    def block_execution_counts(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Per-block *instruction* counts over ``[start, end)`` (BBV).

        Each element ``i`` is the number of dynamic instructions executed
        from basic block ``i``.
        """
        if end is None:
            end = len(self)
        return np.bincount(self.block[start:end], minlength=self.num_blocks)

    def block_entry_counts(self, start: int = 0, end: int | None = None) -> np.ndarray:
        """Per-block *entry* counts over ``[start, end)`` (BBEF).

        A block entry is counted each time control flow enters the
        block, i.e. at each position where the block id differs from
        the previous instruction's block id.
        """
        if end is None:
            end = len(self)
        blocks = self.block[start:end]
        if len(blocks) == 0:
            return np.zeros(self.num_blocks, dtype=np.int64)
        entries = np.empty(len(blocks), dtype=bool)
        entries[0] = True
        np.not_equal(blocks[1:], blocks[:-1], out=entries[1:])
        return np.bincount(blocks[entries], minlength=self.num_blocks)

    def interval_bbvs(self, interval: int) -> np.ndarray:
        """BBV matrix: one row per fixed-size interval (SimPoint input).

        The final partial interval, if any, is included as its own row.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        n = len(self)
        num_intervals = (n + interval - 1) // interval
        bbvs = np.zeros((num_intervals, self.num_blocks), dtype=np.int64)
        for i in range(num_intervals):
            start = i * interval
            bbvs[i] = self.block_execution_counts(start, min(start + interval, n))
        return bbvs


class TraceBuilder:
    """Accumulates trace segments and finalizes them into a :class:`Trace`."""

    def __init__(self) -> None:
        self._segments: List[Tuple[np.ndarray, ...]] = []

    def append(
        self,
        op: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        pc: np.ndarray,
        block: np.ndarray,
        addr: np.ndarray,
        flags: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self._segments.append((op, dst, src1, src2, pc, block, addr, flags, target))

    def __len__(self) -> int:
        return sum(len(segment[0]) for segment in self._segments)

    def build(self, num_blocks: int = 0) -> Trace:
        if not self._segments:
            empty = np.zeros(0)
            return Trace(
                op=empty.astype(np.uint8),
                dst=empty.astype(np.int16),
                src1=empty.astype(np.int16),
                src2=empty.astype(np.int16),
                pc=empty.astype(np.int64),
                block=empty.astype(np.int32),
                addr=empty.astype(np.int64),
                flags=empty.astype(np.uint8),
                target=empty.astype(np.int64),
                num_blocks=num_blocks,
            )
        columns = [np.concatenate(parts) for parts in zip(*self._segments)]
        return Trace(*columns, num_blocks=num_blocks)


def iterate_flags(flags: int) -> Iterator[str]:
    """Names of the flag bits set in ``flags`` (debugging helper)."""
    names = {
        FLAG_COND_BRANCH: "cond_branch",
        FLAG_TAKEN: "taken",
        FLAG_CALL: "call",
        FLAG_RETURN: "return",
        FLAG_UNCOND: "uncond",
        FLAG_TRIVIAL: "trivial",
    }
    for bit, name in names.items():
        if flags & bit:
            yield name
