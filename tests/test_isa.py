"""Tests for op classes, templates and the Trace container."""

import numpy as np
import pytest

from repro.isa.instructions import (
    BRANCH_CLASSES,
    FU_CLASS,
    MEM_CLASSES,
    NUM_REGS,
    InstructionTemplate,
    OpClass,
    make_template,
)
from repro.isa.trace import (
    FLAG_COND_BRANCH,
    FLAG_TAKEN,
    REGION_MEMO_BYTES_PER_INSTRUCTION,
    Trace,
    TraceBuilder,
    iterate_flags,
)


class TestInstructionTemplate:
    def test_defaults(self):
        t = InstructionTemplate(OpClass.IALU)
        assert t.dst == -1 and t.src1 == -1 and t.src2 == -1

    def test_memory_classification(self):
        assert InstructionTemplate(OpClass.LOAD).is_memory
        assert InstructionTemplate(OpClass.STORE).is_memory
        assert not InstructionTemplate(OpClass.IALU).is_memory

    def test_branch_classification(self):
        for opclass in BRANCH_CLASSES:
            assert InstructionTemplate(opclass).is_branch
        assert not InstructionTemplate(OpClass.FPALU).is_branch

    def test_register_range_enforced(self):
        with pytest.raises(ValueError):
            InstructionTemplate(OpClass.IALU, dst=NUM_REGS)
        with pytest.raises(ValueError):
            InstructionTemplate(OpClass.IALU, src1=-2)

    def test_trivial_probability_range(self):
        with pytest.raises(ValueError):
            InstructionTemplate(OpClass.IMULT, trivial_probability=1.5)

    def test_make_template_none_mapping(self):
        t = make_template(OpClass.LOAD, dst=3)
        assert t.dst == 3 and t.src1 == -1

    def test_every_opclass_has_fu(self):
        for opclass in OpClass:
            assert opclass in FU_CLASS

    def test_mem_and_branch_disjoint(self):
        assert not (MEM_CLASSES & BRANCH_CLASSES)


def _tiny_trace(n=10, blocks=3):
    op = np.zeros(n, dtype=np.uint8)
    dst = np.full(n, -1, dtype=np.int16)
    src = np.full(n, -1, dtype=np.int16)
    pc = (np.arange(n, dtype=np.int64) * 4) + 0x400000
    block = (np.arange(n, dtype=np.int32) * blocks) // n
    addr = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    target = np.zeros(n, dtype=np.int64)
    return Trace(op, dst, src.copy(), src.copy(), pc, block, addr, flags, target)


class TestTrace:
    def test_length(self):
        assert len(_tiny_trace(10)) == 10

    def test_column_mismatch_rejected(self):
        trace = _tiny_trace(10)
        with pytest.raises(ValueError):
            Trace(
                trace.op,
                trace.dst[:5],
                trace.src1,
                trace.src2,
                trace.pc,
                trace.block,
                trace.addr,
                trace.flags,
                trace.target,
            )

    def test_num_blocks_inferred(self):
        assert _tiny_trace(9, blocks=3).num_blocks == 3

    def test_column_lists_full_cached(self):
        trace = _tiny_trace(6)
        a = trace.column_lists()
        b = trace.column_lists()
        assert a is b  # cached
        assert len(a) == 9 and len(a[0]) == 6

    def test_column_lists_slice(self):
        trace = _tiny_trace(10)
        cols = trace.column_lists(2, 5)
        assert len(cols[0]) == 3
        assert cols[4][0] == trace.pc[2]

    def test_column_lists_slice_served_from_full_cache(self):
        # Arbitrary region slices come from one cached full conversion
        # rather than re-running ndarray.tolist per chunk.
        trace = _tiny_trace(10)
        full = trace.column_lists()
        sliced = trace.column_lists(3, 8)
        for col_full, col_slice in zip(full, sliced):
            assert col_slice == col_full[3:8]
        # Slicing before any full conversion is also correct.
        cold = _tiny_trace(10)
        assert cold.column_lists(3, 8) == sliced

    def test_block_execution_counts(self):
        trace = _tiny_trace(9, blocks=3)
        counts = trace.block_execution_counts()
        assert counts.tolist() == [3, 3, 3]
        assert counts.sum() == len(trace)

    def test_block_execution_counts_range(self):
        trace = _tiny_trace(9, blocks=3)
        assert trace.block_execution_counts(0, 3).tolist() == [3, 0, 0]

    def test_block_entry_counts(self):
        trace = _tiny_trace(9, blocks=3)
        entries = trace.block_entry_counts()
        assert entries.tolist() == [1, 1, 1]

    def test_block_entry_counts_empty_region(self):
        trace = _tiny_trace(9, blocks=3)
        assert trace.block_entry_counts(4, 4).sum() == 0

    def test_interval_bbvs_shape(self):
        trace = _tiny_trace(10, blocks=2)
        bbvs = trace.interval_bbvs(4)
        assert bbvs.shape == (3, 2)  # 4 + 4 + 2
        assert bbvs.sum() == len(trace)

    def test_interval_bbvs_invalid(self):
        with pytest.raises(ValueError):
            _tiny_trace(4).interval_bbvs(0)


class TestRegionMemo:
    def test_hit_returns_memoized_artifact(self):
        trace = _tiny_trace(100)
        first = trace.region_memo(("k", 0, 10), lambda: np.arange(3))
        assert trace.region_memo(("k", 0, 10), lambda: None) is first

    def test_byte_budget_evicts_least_recently_used(self):
        trace = _tiny_trace(100)
        budget = REGION_MEMO_BYTES_PER_INSTRUCTION * len(trace)
        third = budget // 3 // 8  # int64 elements per artifact
        for name in ("a", "b", "c"):
            trace.region_memo((name,), lambda: np.zeros(third, dtype=np.int64))
        trace.region_memo(("a",), lambda: None)  # a is now the most recent
        trace.region_memo(("d",), lambda: np.zeros(third, dtype=np.int64))
        built = []
        for name in ("a", "b", "c", "d"):
            trace.region_memo((name,), lambda: built.append(name))
        # b, the least recently used, made room for d.
        assert built == ["b"]
        assert trace._region_bytes <= budget


class TestTraceBuilder:
    def test_empty_build(self):
        trace = TraceBuilder().build(num_blocks=4)
        assert len(trace) == 0
        assert trace.num_blocks == 4

    def test_concatenation(self):
        t1 = _tiny_trace(4)
        builder = TraceBuilder()
        for _ in range(2):
            builder.append(
                t1.op, t1.dst, t1.src1, t1.src2, t1.pc,
                t1.block, t1.addr, t1.flags, t1.target,
            )
        assert len(builder) == 8
        built = builder.build(num_blocks=t1.num_blocks)
        assert len(built) == 8
        assert built.pc[4] == t1.pc[0]


class TestFlags:
    def test_iterate_flags(self):
        names = set(iterate_flags(FLAG_COND_BRANCH | FLAG_TAKEN))
        assert names == {"cond_branch", "taken"}

    def test_no_flags(self):
        assert list(iterate_flags(0)) == []
