"""Data-parallel batched timing kernel (``numba prange`` over configs).

The split-phase batch path resolves structural outcomes once per batch
(:func:`repro.cpu.kernels.numpy_impl.resolve_detailed`, the numpy
backend's single structural pass over a one-unit schedule) and then
runs N per-config timing loops.  The ``numpy`` backend executes those loops
sequentially as config-specialized generated Python -- the profiled
remaining hot path of a batched sweep.  This module replaces the N
interpreted loops with **one** compiled kernel, which the ``numba``
backend also runs for every single long region as a batch of one:

* every per-config parameter the codegen loop bakes into its source
  (widths, queue sizes, FU latencies, pool sizes, mispredict penalty,
  the trivial-computation flag) is lifted into an int64 parameter
  matrix indexed by config id, so a single ``@njit`` kernel serves
  every config signature instead of one ``exec``'d function each;
* the kernel iterates ``prange`` over the leading config dimension.
  Each config owns disjoint rows of every state matrix, so the result
  is deterministic regardless of thread count -- threads change wall
  clock, never a statistic.

Bit-identical parity with the sequential codegen loop is load-bearing
(CI gates the batched store byte-for-byte against per-run stores), so
the per-instruction body below mirrors ``codegen._body_lines`` /
``codegen._tail_lines`` exactly; the only permitted deviation is the
pool issue scan, where only the *multiset* of unit free times is
observable and a min-scan replaces the sorted-locals shift.

Without numba the ``@njit`` decorators degrade to identity and the
kernel runs interpreted -- slow but bit-identical, which is what the
parity suite exercises on interpreters without numba.  Thread count
resolves flag > ``$REPRO_KERNEL_THREADS`` > numba's own default via
:mod:`repro.settings`.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the identity fallback
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):
        """Identity stand-in for ``numba.njit`` (keeps kernels importable)."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


from repro import settings
from repro.cpu.kernels import numpy_impl
from repro.cpu.kernels.state import LatencyTable
from repro.isa.instructions import NUM_REGS
from repro.obs import phases as obs_phases

# Indices into one config's row of the batch parameter matrix.  One
# flat int64 row per config keeps the kernel signature independent of
# the batch's config signatures, so numba compiles it exactly once.
(
    BP_FW,          # fetch width
    BP_DW,          # dispatch width: min(decode, issue)
    BP_CW,          # commit width
    BP_FD,          # front-end depth
    BP_IFQ,         # instruction fetch queue entries
    BP_ROB,         # reorder buffer entries
    BP_LSQ,         # load/store queue entries
    BP_WB,          # write buffer entries
    BP_PEN,         # mispredict penalty
    BP_IALU_LAT,
    BP_IMUL_LAT,
    BP_IDIV_LAT,
    BP_FPALU_LAT,
    BP_FPMUL_LAT,
    BP_FPDIV_LAT,
    BP_TC,          # trivial-computation enhancement enabled
    BP_POOL0,       # int ALUs
    BP_POOL1,       # int mult/divs
    BP_POOL2,       # FP ALUs
    BP_POOL3,       # FP mult/divs
    BP_POOL4,       # memory ports
    BP_LEN,
) = range(22)

# Indices into one config's row of the packed core-state matrix
# (the scalar slice of ``pipeline._TimingState`` the kernel touches).
(
    BC_FC,
    BC_FETCH_COUNT,
    BC_DC,
    BC_DCOUNT,
    BC_CC,
    BC_CCOUNT,
    BC_INSTR_INDEX,
    BC_MEM_INDEX,
    BC_STORE_INDEX,
    BC_LEN,
) = range(10)


@njit(cache=True)
def _pool_issue(pools, pid, size, ready, occ):
    """Issue against pool ``pid``: min-scan the unit free times.

    The codegen loop keeps each pool sorted in scalar locals; only the
    multiset of free times is observable (issue is always against the
    minimum), so scanning for the minimum and overwriting it in place
    is bit-identical.
    """
    free = pools[pid, 0]
    fj = 0
    for j in range(1, size):
        v = pools[pid, j]
        if v < free:
            free = v
            fj = j
    issue = free if free > ready else ready
    pools[pid, fj] = issue + occ
    return issue


@njit(cache=True)
def _timing_row(
    n, op, dst, src1, src2, triv, params,
    ml, drain, ev_pos, ev_stall, ev_redir,
    reg_ready, rob_ring, lsq_ring, wb_ring, ifq_ring, pools, core,
):
    """One config's segmented timing loop over ``n`` instructions.

    Mirrors the generated loop of :mod:`repro.cpu.kernels.codegen`
    statement for statement, with config literals read from ``params``
    and the sparse event union consumed by a cursor instead of an
    iterator ``zip``.
    """
    FW = params[BP_FW]
    DW = params[BP_DW]
    CW = params[BP_CW]
    FD = params[BP_FD]
    IFQ = params[BP_IFQ]
    ROB = params[BP_ROB]
    LSQ = params[BP_LSQ]
    WB = params[BP_WB]
    PEN = params[BP_PEN]
    ialu_lat = params[BP_IALU_LAT]
    imul_lat = params[BP_IMUL_LAT]
    idiv_lat = params[BP_IDIV_LAT]
    fpalu_lat = params[BP_FPALU_LAT]
    fpmul_lat = params[BP_FPMUL_LAT]
    fpdiv_lat = params[BP_FPDIV_LAT]
    tc = params[BP_TC]

    fc = core[BC_FC]
    dc = core[BC_DC]
    cc = core[BC_CC]
    frem = FW - core[BC_FETCH_COUNT]
    drem = DW - core[BC_DCOUNT]
    crem = CW - core[BC_CCOUNT]
    ifq_slot = core[BC_INSTR_INDEX] % IFQ
    rob_slot = core[BC_INSTR_INDEX] % ROB
    lsq_slot = core[BC_MEM_INDEX] % LSQ
    wb_slot = core[BC_STORE_INDEX] % WB

    mi = 0  # memory-latency cursor (loads + stores)
    di = 0  # write-buffer drain cursor (stores)
    ei = 0  # sparse event cursor
    n_ev = ev_pos.shape[0]
    for p in range(n):
        redir = np.int64(0)
        if ei < n_ev and ev_pos[ei] == p:
            sadd = ev_stall[ei]
            if sadd != 0:
                fc += sadd
                frem = FW
            redir = ev_redir[ei]
            ei += 1

        # ---- front end
        if frem == 0:
            fc += 1
            frem = FW
        frem -= 1
        if fc < ifq_ring[ifq_slot]:
            fc = ifq_ring[ifq_slot]
            frem = FW - 1
        d = fc + FD
        if d < rob_ring[rob_slot]:
            d = rob_ring[rob_slot]
        if d <= dc:
            if drem == 0:
                dc += 1
                drem = DW
            d = dc
            drem -= 1
        else:
            dc = d
            drem = DW - 1
        ifq_ring[ifq_slot] = d
        ifq_slot += 1
        if ifq_slot == IFQ:
            ifq_slot = 0
        ready = d + 1
        if reg_ready[src1[p]] > ready:
            ready = reg_ready[src1[p]]
        if reg_ready[src2[p]] > ready:
            ready = reg_ready[src2[p]]

        # ---- dispatch (classification order matches timing_lists:
        # memory ops never fold; trivial overrides the control fold)
        opc = op[p]
        is_mem = opc == 6 or opc == 7
        drain_v = np.int64(0)
        if is_mem:
            limit = lsq_ring[lsq_slot]
            if ready < limit:
                ready = limit
            issue = _pool_issue(pools, 4, params[BP_POOL4], ready, np.int64(1))
            complete = issue + ml[mi]
            mi += 1
            if opc == 7:
                drain_v = drain[di]
                di += 1
        elif tc != 0 and triv[p] != 0:
            complete = ready
        elif opc >= 8 or opc == 0:
            # Control ops are pool 0 at unit latency; with a 1-cycle
            # integer ALU the two arms coincide (codegen's merge_ctrl).
            issue = _pool_issue(pools, 0, params[BP_POOL0], ready, np.int64(1))
            complete = issue + (ialu_lat if opc == 0 else np.int64(1))
        elif opc == 1:
            issue = _pool_issue(pools, 1, params[BP_POOL1], ready, np.int64(1))
            complete = issue + imul_lat
        elif opc == 2:
            issue = _pool_issue(pools, 1, params[BP_POOL1], ready, idiv_lat)
            complete = issue + idiv_lat
        elif opc == 3:
            issue = _pool_issue(pools, 2, params[BP_POOL2], ready, np.int64(1))
            complete = issue + fpalu_lat
        elif opc == 4:
            issue = _pool_issue(pools, 3, params[BP_POOL3], ready, np.int64(1))
            complete = issue + fpmul_lat
        else:
            issue = _pool_issue(pools, 3, params[BP_POOL3], ready, fpdiv_lat)
            complete = issue + fpdiv_lat

        # ---- tail: write-back / redirect / commit
        reg_ready[dst[p]] = complete
        if redir != 0:
            redirect = complete + PEN
            if redirect > fc:
                fc = redirect
                frem = FW
        if complete <= cc:
            if crem == 0:
                cc += 1
                crem = CW
            c = cc
            crem -= 1
        else:
            cc = complete
            c = complete
            crem = CW - 1
        if opc == 7:
            limit = wb_ring[wb_slot]
            if limit > c:
                c = limit
                cc = c
                crem = CW - 1
            wb_ring[wb_slot] = c + drain_v
            wb_slot += 1
            if wb_slot == WB:
                wb_slot = 0
        rob_ring[rob_slot] = c
        rob_slot += 1
        if rob_slot == ROB:
            rob_slot = 0
        if is_mem:
            lsq_ring[lsq_slot] = c
            lsq_slot += 1
            if lsq_slot == LSQ:
                lsq_slot = 0

    core[BC_FC] = fc
    core[BC_FETCH_COUNT] = FW - frem
    core[BC_DC] = dc
    core[BC_DCOUNT] = DW - drem
    core[BC_CC] = cc
    core[BC_CCOUNT] = CW - crem


@njit(cache=True, parallel=True)
def _batch_kernel(
    k, n, op, dst, src1, src2, triv, params,
    ml, drain, ev_pos, ev_stall, ev_redir,
    reg_ready, rob_ring, lsq_ring, wb_ring, ifq_ring, pools, core,
):
    """All configs' timing loops, data-parallel over the config axis.

    Row ``ci`` of every matrix belongs to config ``ci`` alone, so the
    ``prange`` iterations are fully independent: no reductions, no
    shared writes, deterministic under any thread count.
    """
    for ci in prange(k):
        _timing_row(
            n, op, dst, src1, src2, triv, params[ci],
            ml[ci], drain[ci], ev_pos, ev_stall[ci], ev_redir,
            reg_ready[ci], rob_ring[ci], lsq_ring[ci], wb_ring[ci],
            ifq_ring[ci], pools[ci], core[ci],
        )


def resolve_threads(n_configs: int) -> int:
    """Worker threads for one batch kernel launch (and apply them).

    Resolution is ``$REPRO_KERNEL_THREADS`` (0 = numba's default pool
    size) clamped to numba's configured maximum; without numba the
    kernel runs interpreted on one thread.  Returns the effective
    parallelism -- at most one thread per config does useful work.
    """
    requested = settings.default_kernel_threads()
    if not NUMBA_AVAILABLE:
        return 1
    import numba

    limit = int(numba.config.NUMBA_NUM_THREADS)
    threads = limit if requested <= 0 else min(requested, limit)
    threads = max(1, threads)
    numba.set_num_threads(threads)
    return min(threads, max(1, n_configs))


def _pack_params(batch) -> np.ndarray:
    """The int64 parameter matrix: one row per ``(config, enh)`` pair."""
    params = np.zeros((len(batch), BP_LEN), dtype=np.int64)
    for i, (cfg, enhancements) in enumerate(batch):
        row = params[i]
        row[BP_FW] = cfg.fetch_width
        row[BP_DW] = min(cfg.decode_width, cfg.issue_width)
        row[BP_CW] = cfg.commit_width
        row[BP_FD] = cfg.front_depth
        row[BP_IFQ] = cfg.ifq_size
        row[BP_ROB] = cfg.rob_entries
        row[BP_LSQ] = cfg.lsq_entries
        row[BP_WB] = cfg.write_buffer_entries
        row[BP_PEN] = cfg.mispredict_penalty
        row[BP_IALU_LAT] = cfg.int_alu_lat
        row[BP_IMUL_LAT] = cfg.int_mult_lat
        row[BP_IDIV_LAT] = cfg.int_div_lat
        row[BP_FPALU_LAT] = cfg.fp_alu_lat
        row[BP_FPMUL_LAT] = cfg.fp_mult_lat
        row[BP_FPDIV_LAT] = cfg.fp_div_lat
        row[BP_TC] = 1 if enhancements.trivial_computation else 0
        row[BP_POOL0] = cfg.int_alus
        row[BP_POOL1] = cfg.int_mult_divs
        row[BP_POOL2] = cfg.fp_alus
        row[BP_POOL3] = cfg.fp_mult_divs
        row[BP_POOL4] = cfg.mem_ports
    return params


def _pack_rows(rows) -> np.ndarray:
    """Stack variable-length int vectors into a zero-padded matrix.

    Batch members may disagree on ring sizes (width sweeps) -- each
    row is indexed modulo its own size from ``params``, so the padding
    is never touched.
    """
    width = max(len(row) for row in rows)
    packed = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        packed[i, : len(row)] = row
    return packed


def _pack_pools(states) -> np.ndarray:
    """FU pool free times as a ``(configs, pools, units)`` tensor."""
    n_pools = len(states[0].pools)
    width = max(len(pool) for state in states for pool in state.pools)
    packed = np.zeros((len(states), n_pools, width), dtype=np.int64)
    for i, state in enumerate(states):
        for pid, pool in enumerate(state.pools):
            packed[i, pid, : len(pool)] = pool
    return packed


def _write_row(target: list, row: np.ndarray) -> None:
    """Spill one packed row back into list-backed state."""
    target[:] = row[: len(target)].tolist()


def advance_detailed_batch(machine, trace, start, end, batch, states) -> None:
    """Advance N configs over ``trace[start:end)`` with one kernel launch.

    Same contract as :func:`numpy_impl.advance_detailed_batch` -- one
    shared resolve pass over ``machine``'s structures, then every
    member's timing loop -- but the N loops execute as one
    ``prange``-parallel kernel call.  Per config, the result is
    bit-identical to N independent sequential runs.
    """
    if end - start <= 0:
        return
    if machine.enhancements.next_line_prefetch:
        raise ValueError(
            "config batching requires per-structure event streams; "
            "next-line prefetch resolves serially (callers fall back "
            "to per-config runs)"
        )
    k = len(batch)
    res = numpy_impl.resolve_detailed(machine, trace, start, end, states[0])
    lat = LatencyTable([config for config, _ in batch])
    ml, drain, ev_stall = numpy_impl.assemble_timing_tables(res, lat)

    cols = trace.kernel_columns(machine.il1.block_shift)
    op = cols[0][start:end]
    # Sentinel mapping as in timing_lists: missing destinations write a
    # scratch slot, missing sources read an always-ready slot.
    dst = np.where(cols[1][start:end] < 0, NUM_REGS, cols[1][start:end])
    src1 = np.where(cols[2][start:end] < 0, NUM_REGS + 1, cols[2][start:end])
    src2 = np.where(cols[3][start:end] < 0, NUM_REGS + 1, cols[3][start:end])
    triv = cols[11][start:end]
    ev_pos = np.asarray(res.ev_pos_l, dtype=np.int64)
    ev_redir = np.asarray(res.ev_redir, dtype=np.int64)

    params = _pack_params(batch)
    reg_ready = _pack_rows([s.reg_ready for s in states])
    rob_ring = _pack_rows([s.rob_ring for s in states])
    lsq_ring = _pack_rows([s.lsq_ring for s in states])
    wb_ring = _pack_rows([s.wb_ring for s in states])
    ifq_ring = _pack_rows([s.ifq_ring for s in states])
    pools = _pack_pools(states)
    core = np.zeros((k, BC_LEN), dtype=np.int64)
    for i, state in enumerate(states):
        row = core[i]
        row[BC_FC] = state.fc
        row[BC_FETCH_COUNT] = state.fetch_count
        row[BC_DC] = state.dc
        row[BC_DCOUNT] = state.dcount
        row[BC_CC] = state.cc
        row[BC_CCOUNT] = state.ccount
        row[BC_INSTR_INDEX] = state.instr_index
        row[BC_MEM_INDEX] = state.mem_index
        row[BC_STORE_INDEX] = state.store_index

    threads = resolve_threads(k)
    with obs_phases.measured(
        "timing_batch", instructions=res.n * k, configs=k, threads=threads
    ):
        _batch_kernel(
            k, res.n, op, dst, src1, src2, triv, params,
            ml, drain, ev_pos, ev_stall, ev_redir,
            reg_ready, rob_ring, lsq_ring, wb_ring, ifq_ring, pools, core,
        )

    for i, ((config, enhancements), state) in enumerate(zip(batch, states)):
        _write_row(state.reg_ready, reg_ready[i])
        _write_row(state.rob_ring, rob_ring[i])
        _write_row(state.lsq_ring, lsq_ring[i])
        _write_row(state.wb_ring, wb_ring[i])
        _write_row(state.ifq_ring, ifq_ring[i])
        for pid, pool in enumerate(state.pools):
            _write_row(pool, pools[i, pid])
        state.fc = int(core[i, BC_FC])
        state.fetch_count = int(core[i, BC_FETCH_COUNT])
        state.dc = int(core[i, BC_DC])
        state.dcount = int(core[i, BC_DCOUNT])
        state.cc = int(core[i, BC_CC])
        state.ccount = int(core[i, BC_CCOUNT])
        state.instr_index += res.n
        state.mem_index += res.n_mem
        state.store_index += res.n_mem - res.n_loads
        state.branches += res.n_branches
        state.mispredictions += res.n_redir
        state.loads += res.n_loads
        state.stores += res.n_mem - res.n_loads
        if enhancements.trivial_computation:
            state.trivial_simplified += res.n_trivial
        if res.last_fetch_block is not None:
            state.last_fetch_block = res.last_fetch_block
            state.last_fetch_page = res.last_fetch_page
