"""The ``numpy`` backend: vectorized resolve passes + a lean timing loop.

The key observation making this backend possible is that every
microarchitectural *outcome* in the model -- cache hit/miss, TLB
hit/miss, branch direction correctness, BTB/RAS correctness -- is
fully determined by the trace order alone; the timing loop feeds
nothing back into the structures.  Detailed simulation therefore
splits into two phases that together are bit-identical to the
reference interleaved loop:

1. **Resolve**: build the event streams with NumPy (block-change
   masks, memory indices, branch kinds), then replay each structure's
   events through an unrolled flat-list LRU loop.  Only the L2 is
   shared between il1 and dl1, so only its stream needs a global-order
   merge (il1 before dl1 within one instruction, matching the
   fetch-before-execute order of the reference loop).
2. **Timing**: run the config-specialized loop from
   :mod:`repro.cpu.kernels.codegen` over the precomputed latencies,
   sparse stall events and sparse mispredict redirects.

One function, :func:`resolve`, advances every structure for every
caller; what differs is only the unit schedule it is given.  A
detailed region is one unit covering the region, continuing its timing
state's fetch block and page; functional warming is a pass with no
units (state updates without cache/TLB statistics, memory ops never
branches); a sampled (SMARTS) run resolves once from its first unit to
the end of the trace, warming gaps and detailed units alike, and then
times each unit as its own row (:func:`run_sampled`).  Per-unit
counters come from ``searchsorted`` over the sorted event positions,
and the gaps' counts are the functional-warming statistics.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cpu.kernels.codegen import (
    btb_events,
    cond_combined_events,
    cond_counter_events,
    lru_events,
    lru_grouped,
    ras_events,
    timing_loop_for,
    timing_loops_for,
)
from repro.cpu.kernels.state import (
    PRED_BIMODAL,
    PRED_GSHARE,
    PRED_PERFECT,
    PRED_TAKEN,
    STAT_HITS,
    STAT_MISSES,
    LatencyTable,
)
from repro.isa.trace import BK_CALL, BK_COND, BK_RETURN, BK_UNCOND, FLAG_TRIVIAL
from repro.obs import phases as obs_phases

_INF = 1 << 62


def _int64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _change_mask(values: np.ndarray, previous: int) -> np.ndarray:
    """True where ``values[i]`` differs from its predecessor."""
    mask = np.empty(len(values), dtype=bool)
    if len(values):
        mask[0] = values[0] != previous
        np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask


def _dedup_filter(blocks: np.ndarray, set_mask: int, assoc: int):
    """Pure trivial-hit filter over an access stream, in set order.

    Any access leaves its block MRU in its set, so an event whose
    *previous same-set* event touched the same block is a guaranteed
    way-0 hit with no state change.  Those events (the vast majority:
    loop bodies re-fetching the same I-blocks, stack traffic hitting
    the same D-blocks) are filtered out vectorized and only the
    remainder needs LRU replay.  Returns ``(bases, blocks, pos)``
    lists *sorted by set* for :func:`lru_grouped`, where ``pos`` is
    each survivor's position in the original stream.  Depends only on
    the stream and the geometry, so results are memoizable per region.
    """
    n = len(blocks)
    if n == 0:
        return [], [], []
    sets = blocks & set_mask
    # Small unsigned keys let the stable argsort take its radix path,
    # which is ~7x faster than the int64 merge sort.
    if set_mask < 1 << 8:
        sort_keys = sets.astype(np.uint8)
    elif set_mask < 1 << 16:
        sort_keys = sets.astype(np.uint16)
    else:
        sort_keys = sets
    order = np.argsort(sort_keys, kind="stable")
    sb = sets[order]
    bb = blocks[order]
    live = np.empty(n, dtype=bool)
    live[0] = True
    np.not_equal(sb[1:], sb[:-1], out=live[1:])
    np.logical_or(live[1:], bb[1:] != bb[:-1], out=live[1:])
    return (
        (sb[live] * assoc).tolist(),
        bb[live].tolist(),
        order[live].tolist(),
    )


def _replay(structure, feed) -> list:
    """Replay a filtered feed through a structure; miss positions.

    The positions index the *original* (unfiltered) stream and come
    back in set-grouped order; callers use them as an index set.  Hit
    counts are ``len(stream) - len(misses)`` by construction.
    """
    bases, blks, pos = feed
    return lru_grouped(structure.assoc)(bases, blks, pos, structure.tags)


def _structure_events(structure, blocks: np.ndarray) -> np.ndarray:
    """Filter + replay for streams that are not worth memoizing."""
    miss = _replay(
        structure, _dedup_filter(blocks, structure.set_mask, structure.assoc)
    )
    return _int64(miss)


def _mem_events(trace, start, end):
    """Memory-op mask, indices and load flags of ``trace[start:end)``."""
    op_r = trace.op[start:end]
    mem_mask = (op_r == 6) | (op_r == 7)
    mem_idx = np.flatnonzero(mem_mask)
    return mem_mask, mem_idx, op_r[mem_idx] == 6


def _build_branch_feed(trace, start, end, bk):
    """Branch index sets over ``trace[start:end)`` given its branch kinds."""
    cond_idx = np.flatnonzero(bk == BK_COND)
    t_cond = trace.taken_bits()[start:end][cond_idx]
    cr_idx = np.flatnonzero((bk == BK_CALL) | (bk == BK_RETURN))
    cr_is_call = bk[cr_idx] == BK_CALL
    unc_idx = np.flatnonzero(bk == BK_UNCOND)
    return (
        cond_idx,
        t_cond,
        trace.pc[start:end][cond_idx],
        cr_idx,
        cr_is_call,
        cr_is_call.tolist(),
        unc_idx,
    )


def _correct_mask(wrong_l, count) -> np.ndarray:
    """Bool correctness array from a sparse mispredict-position list."""
    correct = np.ones(count, dtype=bool)
    if wrong_l:
        correct[_int64(wrong_l)] = False
    return correct


def _btb_resolve(machine, n, pc_r, tg_r, cond_btb_idx, call_idx, unc_idx):
    """Replay BTB lookups in instruction order; correctness flags.

    The three sorted index sets are merged by scattering into a
    full-length flag array and reading the nonzero positions back --
    O(n) but branch-free, cheaper than sorting the concatenation.
    Returns a full-length 0/1 array indexable by any of the inputs.
    """
    btb = machine.btb
    sel = np.zeros(n, dtype=bool)
    sel[cond_btb_idx] = True
    sel[call_idx] = True
    sel[unc_idx] = True
    merged = np.flatnonzero(sel)
    bkeys = pc_r[merged] >> 2
    bbases = ((bkeys & btb.set_mask) * btb.assoc).tolist()
    bmiss_l = btb_events(btb.assoc)(
        bbases, bkeys.tolist(), tg_r[merged].tolist(), btb.keys, btb.targets
    )
    btb.stats[STAT_HITS] += len(merged) - len(bmiss_l)
    btb.stats[STAT_MISSES] += len(bmiss_l)
    bcorrect_full = np.zeros(n, dtype=bool)
    bcorrect_full[merged] = True
    if bmiss_l:
        bcorrect_full[merged[_int64(bmiss_l)]] = False
    return bcorrect_full


def _resolve_predictor(trace, tag, start, end, predictor, pc_cond, t_cond):
    """Direction-predictor correctness per conditional branch.

    The global history register is trace-determined, so the gshare
    index of every event is precomputed vectorized: history before
    event ``j`` is the previous ``W`` taken bits (plus the incoming
    register shifted in for the first ``W`` events).  The whole index
    feed is pure given the entry history, so it is memoized per
    region (``tag`` None: not memoized); only the counter-table replay
    runs per call.
    """
    kind = predictor.kind
    count = len(pc_cond)
    if kind == PRED_TAKEN:
        return t_cond != 0
    if kind == PRED_PERFECT:
        return np.ones(count, dtype=bool)
    mask = predictor.mask
    h0 = int(predictor.state[0])

    def build():
        taken_l = t_cond.tolist()
        base_index = (pc_cond >> 2) & mask
        if kind == PRED_BIMODAL:
            return taken_l, base_index.tolist(), None, 0
        width = mask.bit_length()
        history = np.zeros(count + 1, dtype=np.int64)
        if h0:
            span = min(width, count + 1)
            history[:span] |= h0 << np.arange(span, dtype=np.int64)
        for age in range(1, width + 1):
            if age > count:
                break
            np.bitwise_or(
                history[age:],
                t_cond[: count + 1 - age] << (age - 1),
                out=history[age:],
            )
        history &= mask
        gs_index = (base_index ^ history[:count]) & mask
        return taken_l, base_index.tolist(), gs_index.tolist(), int(history[count])

    if tag is None:
        taken_l, base_l, gs_l, h_final = build()
    else:
        taken_l, base_l, gs_l, h_final = trace.region_memo(
            (tag, "pred", start, end, kind, mask, h0), build
        )
    if kind == PRED_BIMODAL:
        wrong_l = cond_counter_events(base_l, taken_l, predictor.bimodal)
        return _correct_mask(wrong_l, count)
    if kind == PRED_GSHARE:
        wrong_l = cond_counter_events(gs_l, taken_l, predictor.gshare)
    else:  # combined
        wrong_l = cond_combined_events(
            base_l, gs_l, taken_l,
            predictor.bimodal, predictor.gshare, predictor.chooser,
        )
    predictor.state[0] = h_final
    return _correct_mask(wrong_l, count)


def _resolve_branches(machine, trace, tag, start, end, feed) -> np.ndarray:
    """Train predictor, RAS and BTB over one branch feed.

    Returns the full-length mispredict mask of ``trace[start:end)``.
    """
    (
        cond_idx, t_cond, pc_cond, cr_idx, cr_is_call, cr_push_l, unc_idx,
    ) = feed
    pred_correct = _resolve_predictor(
        trace, tag, start, end, machine.predictor, pc_cond, t_cond
    )

    ras = machine.ras
    depth, overflow_delta, ret_correct_l = ras_events(
        cr_push_l, int(ras.state[0]), ras.entries
    )
    ras.state[0] = depth
    ras.state[1] += overflow_delta
    call_idx = cr_idx[cr_is_call]
    ret_idx = cr_idx[~cr_is_call]
    ret_correct = _int64(ret_correct_l) != 0

    taken_sel = pred_correct & (t_cond != 0)
    cond_btb_idx = cond_idx[taken_sel]
    n = end - start
    bcorrect_full = _btb_resolve(
        machine, n, trace.pc[start:end], trace.target[start:end],
        cond_btb_idx, call_idx, unc_idx,
    )
    cond_correct = pred_correct.copy()
    cond_correct[taken_sel] = bcorrect_full[cond_btb_idx]

    wrong = np.zeros(n, dtype=bool)
    wrong[cond_idx[~cond_correct]] = True
    wrong[call_idx[~bcorrect_full[call_idx]]] = True
    wrong[ret_idx[~ret_correct]] = True
    wrong[unc_idx[~bcorrect_full[unc_idx]]] = True
    return wrong


def _resolve_l2(l2, pc_r, addr_r, il1_g, dl1_g):
    """Replay L1 misses through the shared L2; per-miss L2-missness.

    The L2 sees the il1 misses (instruction positions ``il1_g``) and
    dl1 misses (``dl1_g``) merged in global instruction order, il1
    (fetch) before dl1 (execute) within one instruction.  Returns the
    L2-miss flags aligned with ``il1_g`` and with ``dl1_g``.
    """
    merge_keys = np.concatenate([il1_g * 2, dl1_g * 2 + 1])
    order = np.argsort(merge_keys)
    l2_blocks = (
        np.concatenate([pc_r[il1_g], addr_r[dl1_g]]) >> l2.block_shift
    )[order]
    l2_miss = _structure_events(l2, l2_blocks)
    missmask = np.zeros(len(l2_blocks), dtype=bool)
    missmask[order[l2_miss]] = True
    return missmask[: len(il1_g)], missmask[len(il1_g):]


class RegionResolution:
    """Latency-independent outcomes of one resolved region.

    Everything a config needs that is *not* a latency: sparse miss
    index sets with per-miss L2-missness flags, the shared sparse
    event union for the segmented timing loop, and the counter totals
    inside the units (for a detailed region, the region's).  One
    resolution serves any number of latency configs -- the structures
    were advanced while producing it, and no field depends on a
    latency parameter (the serial prefetch path is the one exception;
    it bakes its single config's latencies into
    ``stall_cache``/``dl1_lat_ev`` and is never used for batches).
    """

    __slots__ = (
        "n", "n_mem", "n_loads", "n_branches", "n_redir", "n_trivial",
        "fetch_idx", "il1_miss", "il1_l2miss", "itlb_pos", "itlb_miss",
        "mem_idx", "is_load", "dl1_miss", "dl1_l2miss", "dtlb_miss",
        "stall_cache", "dl1_lat_ev", "stall_ev", "stall_slot",
        "ev_pos_l", "ev_redir", "last_fetch_block", "last_fetch_page",
    )


def resolve(
    machine, trace, start, end, units,
    entry_block: int = -1, entry_page: int = -1, tag=None,
):
    """Advance the structures over ``trace[start:end)``; resolve events.

    The one structural pass of this backend: every structure (caches,
    TLBs, predictor, BTB, RAS) is trained and its statistics updated,
    and the returned :class:`RegionResolution` records which accesses
    missed -- but no latency is applied.  Because the model feeds no
    timing back into the structures, the same resolution is valid for
    *every* latency configuration sharing this geometry.  Detailed
    regions, functional warming and sampled runs differ only in the
    data passed in:

    * ``units`` lists region-relative ``(warm_start, sample_start,
      anchor)`` bounds in order: ``[warm_start, anchor)`` runs detailed
      and is measured from ``sample_start``, the gaps between units warm
      functionally.  A detailed region is the single unit ``(0, 0, n)``;
      a warming call has no units.
    * ``entry_block``/``entry_page`` are the fetch block and page the
      region continues (a detailed region's timing state), ``-1`` for
      none.  Every later segment start (a unit's start or end) fetches
      afresh, since each warming call and each ``detail()`` starts from
      "no previous fetch block".
    * ``tag`` names the region-memo namespace of the branch feeds
      (``"branch"`` detailed, ``"branchw"`` warming) and turns the memo
      on; sampled passes pass ``None``, as their keys never repeat.

    Inside gaps memory ops are never branches (the reference warming
    loop skips them); cache/TLB statistics and L2 memory counts advance
    only inside units, while the BTB counts every lookup, as the
    reference loops do.

    Returns ``(res, counters, gaps)``: the timing-facing resolution
    (events restricted to the units), each unit's measured-slice
    counters as SimulationStats field -> per-unit list, and the gaps'
    WarmingStats.  Next-line prefetch walks the caches serially and
    leaves their statistics to the structures, so its counters carry
    no cache misses.
    """
    from repro.cpu.functional import WarmingStats

    il1 = machine.il1
    dl1 = machine.dl1
    l2 = machine.l2
    itlb = machine.itlb
    dtlb = machine.dtlb
    n = end - start
    ws, ss, an = _int64(units).reshape(-1, 3).T
    in_detail = np.zeros(n, dtype=bool)
    for lo, hi in zip(ws.tolist(), an.tolist()):
        in_detail[lo:hi] = True
    # Segment starts after the first.  Only sampled passes have any, and
    # they memoize nothing: the memo keys below do not carry them.
    restarts = np.union1d(ws, an[an < n])
    restarts = restarts[restarts > 0]

    def memo(key, build):
        return build() if tag is None else trace.region_memo(key, build)

    def misses(structure, key, stream):
        """Replay ``structure`` over a (memoized) dedup feed; misses."""
        feed = memo(
            key, lambda: _dedup_filter(stream(), structure.set_mask, structure.assoc)
        )
        return _int64(_replay(structure, feed))

    pc_r = trace.pc[start:end]
    addr_r = trace.addr[start:end]
    mem_mask, mem_idx, is_load = memo(
        ("mem", start, end), lambda: _mem_events(trace, start, end)
    )

    # ---- fetch events (I-cache block changes; page changes within them)
    fb = trace.fetch_blocks(il1.block_shift)[start:end]

    def fetch_events():
        mask = _change_mask(fb, -1)
        mask[restarts] = True
        return np.flatnonzero(mask)

    fetch_idx = memo(("fetch", start, end, il1.block_shift), fetch_events)
    # The memoized index set assumes the first instruction starts a new
    # fetch block (always true from reset); on a warm machine whose
    # last block matches, drop that leading event.
    first_in = int(fb[0]) != entry_block
    if not first_in:
        fetch_idx = fetch_idx[1:]
    pgs = trace.pages()[start:end][fetch_idx]
    page_mask = _change_mask(pgs, entry_page)
    page_mask[np.searchsorted(fetch_idx, restarts)] = True
    itlb_pos = np.flatnonzero(page_mask)

    # Sorted region-relative positions of every counted event, keyed by
    # the SimulationStats field that counts them (plus the ITLB lookups).
    pos = {
        "il1_accesses": fetch_idx,
        "dl1_accesses": mem_idx,
        "itlb_accesses": fetch_idx[itlb_pos],
        "loads": mem_idx[is_load],
    }
    counted = [
        (itlb, "itlb_accesses", "itlb_misses"),
        (dtlb, "dl1_accesses", "dtlb_misses"),
    ]

    # ---- caches
    if machine.enhancements.next_line_prefetch:
        il1_l2miss = dl1_miss = dl1_l2miss = None
        stall_cache, dl1_lat_ev = _caches_serial(
            machine, pc_r, addr_r, fetch_idx, mem_idx, in_detail
        )
        il1_miss = np.flatnonzero(stall_cache)
    else:
        stall_cache = dl1_lat_ev = None
        il1_miss = misses(
            il1,
            ("il1", start, end, il1.block_shift, il1.set_mask, il1.assoc, first_in),
            lambda: fb[fetch_idx],
        )
        dl1_miss = misses(
            dl1, ("dl1", start, end, dl1.set_mask, dl1.assoc),
            lambda: trace.data_blocks(dl1.block_shift)[start:end][mem_idx],
        )
        il1_g = fetch_idx[il1_miss]
        dl1_g = mem_idx[dl1_miss]
        # Only hit-or-miss is resolved here; the fill *latency* of each
        # L2 miss is a per-config quantity applied during assembly.
        il1_l2miss, dl1_l2miss = _resolve_l2(l2, pc_r, addr_r, il1_g, dl1_g)
        pos["il1_misses"] = np.sort(il1_g)
        pos["dl1_misses"] = np.sort(dl1_g)
        pos["l2_accesses"] = np.sort(np.concatenate([il1_g, dl1_g]))
        pos["l2_misses"] = np.sort(
            np.concatenate([il1_g[il1_l2miss], dl1_g[dl1_l2miss]])
        )
        counted += [
            (il1, "il1_accesses", "il1_misses"),
            (dl1, "dl1_accesses", "dl1_misses"),
            (l2, "l2_accesses", "l2_misses"),
        ]

    # ---- TLBs (independent structures; no timing feedback)
    itlb_miss = _structure_events(itlb, pgs[itlb_pos])
    dtlb_miss = misses(
        dtlb, ("dtlb", start, end, dtlb.set_mask, dtlb.assoc),
        lambda: trace.data_pages()[start:end][mem_idx],
    )
    pos["itlb_misses"] = np.sort(fetch_idx[itlb_pos[itlb_miss]])
    pos["dtlb_misses"] = np.sort(mem_idx[dtlb_miss])

    # ---- branches: direction predictor, RAS, BTB
    def branch_feed():
        bk = trace.branch_kinds()[start:end]
        gap_mem = mem_mask & ~in_detail
        if gap_mem.any():
            bk = np.where(gap_mem, 0, bk)
        return _build_branch_feed(trace, start, end, bk)

    feed = memo((tag, start, end), branch_feed)
    wrong = _resolve_branches(machine, trace, tag, start, end, feed)
    # Three disjoint sorted runs: a stable sort merges them.
    pos["branches"] = np.sort(
        np.concatenate([feed[0], feed[3], feed[6]]), kind="stable"
    )
    pos["mispredictions"] = np.flatnonzero(wrong)
    if len(ws):
        # From the flags, not the cached ``trivial_bits`` column: that
        # would hold 8 bytes per trace instruction for every run.
        tv = (trace.flags[start:end] & FLAG_TRIVIAL) != 0
        pos["trivial_simplified"] = np.flatnonzero(tv & ~mem_mask)

    # ---- counters: structure statistics and totals inside the units,
    # WarmingStats in the gaps, per-unit counts of the measured slices.
    def count(events, lo):
        return np.searchsorted(events, an) - np.searchsorted(events, lo)

    inside = {name: int(count(events, ws).sum()) for name, events in pos.items()}
    for structure, accesses, missed in counted:
        structure.stats[STAT_HITS] += inside[accesses] - inside[missed]
        structure.stats[STAT_MISSES] += inside[missed]
    l2.memory.stats[0] += inside.get("l2_misses", 0)
    gap = {name: len(pos[name]) - inside[name] for name in pos}
    gaps = WarmingStats(
        instructions=n - int((an - ws).sum()),
        branches=gap["branches"],
        mispredictions=gap["mispredictions"],
        loads=gap["loads"],
        stores=gap["dl1_accesses"] - gap["loads"],
    )
    del pos["itlb_accesses"]
    counters = {name: count(events, ss).tolist() for name, events in pos.items()}
    counters["stores"] = [
        mem - load
        for mem, load in zip(counters["dl1_accesses"], counters["loads"])
    ]

    res = RegionResolution()
    res.n = n
    res.n_mem = len(mem_idx)
    res.mem_idx = mem_idx
    res.is_load = is_load
    res.fetch_idx = fetch_idx
    res.il1_miss = il1_miss
    res.il1_l2miss = il1_l2miss
    res.itlb_pos = itlb_pos
    res.itlb_miss = itlb_miss
    res.dl1_miss = dl1_miss
    res.dl1_l2miss = dl1_l2miss
    res.dtlb_miss = dtlb_miss
    res.stall_cache = stall_cache
    res.dl1_lat_ev = dl1_lat_ev

    # ---- fetch-stall event positions (il1 miss fill + ITLB walk),
    # inside the units only.  Every stall contribution is strictly
    # positive (validated latencies), so the *set* of stalling fetch
    # events is latency-independent: il1 misses unioned with ITLB walks.
    stall_sel = np.zeros(len(fetch_idx), dtype=bool)
    stall_sel[il1_miss] = True
    stall_sel[itlb_pos[itlb_miss]] = True
    stall_sel &= in_detail[fetch_idx]
    res.stall_ev = np.flatnonzero(stall_sel)

    # ---- merged sparse events for the segmented timing loop: one
    # entry per instruction that stalls fetch and/or redirects it.
    # Redirects come as a full-length mask (no sort needed); the union
    # with the sorted stall positions falls out of a flatnonzero after
    # scattering the stalls into it.  The union is shared by every
    # config; only the stall *values* are per-config, so
    # ``stall_slot`` records where the stall events land inside the
    # union for the assembly scatter.
    _set_event_union(res, n, fetch_idx[res.stall_ev], wrong & in_detail)

    res.n_loads = inside["loads"]
    res.n_branches = inside["branches"]
    res.n_redir = inside["mispredictions"]
    res.n_trivial = inside.get("trivial_simplified", 0)
    if len(fetch_idx):
        res.last_fetch_block = int(fb[-1])
        res.last_fetch_page = int(pgs[-1])
    else:
        res.last_fetch_block = None
        res.last_fetch_page = None
    return res, counters, gaps


def resolve_detailed(machine, trace, start, end, state) -> RegionResolution:
    """:func:`resolve` for one detailed region continuing ``state``'s fetch."""
    res, _, _ = resolve(
        machine, trace, start, end, [(0, 0, end - start)],
        state.last_fetch_block, state.last_fetch_page, "branch",
    )
    return res


def _set_event_union(res, n, stall_pos, redirect) -> None:
    """Fill ``res``'s sparse event union from stall positions and a
    full-length redirect mask over ``n`` instructions."""
    if len(stall_pos) or redirect.any():
        flag = redirect.copy()
        flag[stall_pos] = True
        ev_pos = np.flatnonzero(flag)
        res.ev_pos_l = ev_pos.tolist()
        res.ev_redir = redirect[ev_pos].astype(np.int64).tolist()
        res.stall_slot = np.searchsorted(ev_pos, stall_pos)
    else:
        res.ev_pos_l = []
        res.ev_redir = []
        res.stall_slot = np.empty(0, dtype=np.int64)


def assemble_timing_feed(machine, res: RegionResolution):
    """One config's timing feed from a resolved region (the N=1 case).

    Row 0 of :func:`assemble_timing_tables` for ``machine``'s own
    latencies, as lists: ``(ml_l, drain_l, ev_stall)`` ready for the
    timing loop.
    """
    ml, drain, ev_stall = assemble_timing_tables(
        res, LatencyTable([machine.config])
    )
    return ml[0].tolist(), drain[0].tolist(), ev_stall[0].tolist()


def assemble_timing_tables(res: RegionResolution, lat: LatencyTable):
    """All configs' timing feeds as int64 matrices, vectorized.

    Applies each config's latencies to the resolution's miss sets:
    memory completion latencies per mem event, write-buffer drains per
    store, and the per-event stall magnitudes over the shared event
    union.  Every latency application runs as one 2-D operation over
    the latency table's leading ``n_configs`` axis.  Returns ``(ml,
    drain, ev_stall)`` matrices whose row ``i`` is config ``i``'s feed;
    the data-parallel batch kernel consumes the matrices directly, the
    sequential loops peel rows off.  A serial (prefetch) resolution
    already holds its one config's dl1 latencies and il1 stalls.
    """
    k = lat.n_configs
    n_mem = res.n_mem
    dtlb_extra = np.zeros((k, n_mem), dtype=np.int64)
    dtlb_extra[:, res.dtlb_miss] = lat.dtlb_miss[:, None]
    if res.dl1_lat_ev is not None:
        dl1_lat_ev = res.dl1_lat_ev[None, :]
    else:
        dl1_lat_ev = np.broadcast_to(lat.dl1_hit[:, None], (k, n_mem)).copy()
        if len(res.dl1_miss):
            dl1_lat_ev[:, res.dl1_miss] += (
                lat.l2_hit[:, None] + res.dl1_l2miss[None, :] * lat.l2_fill[:, None]
            )
    ml = np.where(res.is_load[None, :], dl1_lat_ev + dtlb_extra, 1 + dtlb_extra)
    # Write-buffer drain times are consumed by stores only, so the
    # timing loop walks a store-only iterator instead of indexing a
    # list parallel to every memory event.
    drain = dl1_lat_ev[:, ~res.is_load]
    if res.ev_pos_l:
        if res.stall_cache is not None:
            stall_cache = res.stall_cache[None, :].copy()
        else:
            stall_cache = np.zeros((k, len(res.fetch_idx)), dtype=np.int64)
            stall_cache[:, res.il1_miss] = (
                lat.l2_hit[:, None] + res.il1_l2miss[None, :] * lat.l2_fill[:, None]
            )
        if len(res.itlb_miss):
            stall_cache[:, res.itlb_pos[res.itlb_miss]] += (
                lat.itlb_miss[:, None]
            )
        ev_stall = np.zeros((k, len(res.ev_pos_l)), dtype=np.int64)
        ev_stall[:, res.stall_slot] = stall_cache[:, res.stall_ev]
    else:
        ev_stall = np.zeros((k, 0), dtype=np.int64)
    return ml, drain, ev_stall


def _run_timing_phase(
    cfg, trace, start, end, tc_enabled, res, ml_l, drain_l, ev_stall, state,
    run_timing=None,
) -> None:
    """Phase 2: one config's specialized timing loop + counter updates."""
    instr_l = trace.timing_lists(
        tc_enabled, start, end, merge_ctrl=cfg.int_alu_lat == 1
    )
    if run_timing is None:
        run_timing = timing_loop_for(cfg)
    _advance_timing(
        run_timing, state, instr_l, ml_l, drain_l,
        res.ev_pos_l, ev_stall, res.ev_redir,
    )
    state.branches += res.n_branches
    state.mispredictions += res.n_redir
    state.loads += res.n_loads
    state.stores += res.n_mem - res.n_loads
    if tc_enabled:
        state.trivial_simplified += res.n_trivial
    if res.last_fetch_block is not None:
        state.last_fetch_block = res.last_fetch_block
        state.last_fetch_page = res.last_fetch_page


def _advance_timing(
    run_timing, state, instr_l, ml_l, drain_l, ev_pos_l, ev_stall, ev_redir,
) -> None:
    """Run a timing loop over one slice; advance ``state``'s core timing."""
    (
        state.fc,
        state.fetch_count,
        state.dc,
        state.dcount,
        state.cc,
        state.ccount,
    ) = run_timing(
        instr_l,
        ml_l,
        drain_l,
        ev_pos_l,
        ev_stall,
        ev_redir,
        state.reg_ready,
        state.rob_ring,
        state.lsq_ring,
        state.wb_ring,
        state.ifq_ring,
        state.pools,
        state.fc,
        state.fetch_count,
        state.dc,
        state.dcount,
        state.cc,
        state.ccount,
        state.instr_index,
        state.mem_index,
        state.store_index,
    )
    state.instr_index += len(instr_l)
    state.mem_index += len(ml_l)
    state.store_index += len(drain_l)


def advance_detailed(machine, trace, start, end, state) -> None:
    """Advance the detailed model over ``trace[start:end)`` (split-phase)."""
    if end - start <= 0:
        return
    res = resolve_detailed(machine, trace, start, end, state)
    ml_l, drain_l, ev_stall = assemble_timing_feed(machine, res)
    _run_timing_phase(
        machine.config, trace, start, end,
        machine.enhancements.trivial_computation,
        res, ml_l, drain_l, ev_stall, state,
    )


def advance_detailed_batch(machine, trace, start, end, batch, states) -> None:
    """Advance N latency configs over ``trace[start:end)`` in one pass.

    ``machine`` carries the *shared* structures -- every entry of
    ``batch`` (a list of ``(config, enhancements)`` pairs) builds the
    same geometry, so one resolve pass advances them for all.  The
    assembly broadcasts the resolution across the latency table's
    leading ``n_configs`` axis, and each config then runs its own
    specialized timing loop over its private state in ``states``.
    Per config, the result is bit-identical to N independent
    :func:`advance_detailed` calls.
    """
    if end - start <= 0:
        return
    if machine.enhancements.next_line_prefetch:
        raise ValueError(
            "config batching requires per-structure event streams; "
            "next-line prefetch resolves serially (callers fall back "
            "to per-config runs)"
        )
    res = resolve_detailed(machine, trace, start, end, states[0])
    lat = LatencyTable([config for config, _ in batch])
    ml_rows, drain_rows, ev_stall_rows = (
        table.tolist() for table in assemble_timing_tables(res, lat)
    )
    # Compile every member's loop up front (deduplicated): a codegen
    # failure then surfaces before any per-config state has advanced,
    # leaving the whole batch cleanly retryable.
    loops = timing_loops_for([config for config, _ in batch])
    with obs_phases.measured(
        "timing_batch", instructions=res.n * len(batch),
        configs=len(batch), threads=1,
    ):
        for (config, enhancements), state, ml_l, drain_l, ev_stall, run_timing in zip(
            batch, states, ml_rows, drain_rows, ev_stall_rows, loops
        ):
            _run_timing_phase(
                config, trace, start, end, enhancements.trivial_computation,
                res, ml_l, drain_l, ev_stall, state, run_timing,
            )


def run_sampled(machine, trace, units, checkpoint_key=None):
    """A sampled (SMARTS) schedule in one structural pass.

    Bit-identical to the per-segment loop of
    :meth:`repro.cpu.kernels.registry.Backend.run_sampled` (functional
    warming between the units, a fresh ``detail()`` per unit): the cold
    prefix up to the first unit still goes through
    :func:`repro.cpu.functional.warm_prefix`, and every structure is
    then resolved once from there to the end of the trace by
    :func:`resolve` over the unit schedule.  Each unit's warm-detailed
    and measured slices then run the config's timing loop on a fresh
    timing state, one row per unit; per-unit counters come from
    ``searchsorted`` offsets into the one resolution.  Records one
    ``warming``, one ``warm_detailed`` and one ``detailed`` phase per
    pass, each with its summed instruction count.
    """
    from repro.cpu.functional import WarmingStats, warm_prefix
    from repro.cpu.pipeline import _TimingState
    from repro.cpu.stats import SimulationStats

    backend = machine.backend.name
    warming = WarmingStats()
    start = units[0][0]
    if start > 0:
        warming.merge(
            warm_prefix(machine, trace, start, checkpoint_key=checkpoint_key)
        )
    end = len(trace)
    schedule = _int64(units) - start
    ws, ss, an = schedule.T
    n_warm = (end - start) - int((an - ws).sum())
    tc_enabled = machine.enhancements.trivial_computation

    with obs_phases.measured("warming", instructions=n_warm, backend=backend):
        res, counters, gaps = resolve(machine, trace, start, end, schedule)
        warming.merge(gaps)
        ml_l, drain_l, ev_stall = assemble_timing_feed(machine, res)
    if not tc_enabled:
        del counters["trivial_simplified"]

    cfg = machine.config
    run_timing = timing_loop_for(cfg)
    merge_ctrl = cfg.int_alu_lat == 1
    mem_pos = res.mem_idx
    stores = mem_pos[~res.is_load]
    ev_pos = _int64(res.ev_pos_l)

    def offsets(bounds):
        """Per-unit ``bounds`` and their offsets into the memory-latency,
        store-drain and event streams."""
        return list(zip(
            bounds.tolist(),
            np.searchsorted(mem_pos, bounds).tolist(),
            np.searchsorted(stores, bounds).tolist(),
            np.searchsorted(ev_pos, bounds).tolist(),
        ))

    def advance(state, lo, hi):
        # Rows are built per slice: the units of a dense schedule can
        # cover most of the trace, and their rows all at once would
        # dominate peak memory.
        (s0, m0, d0, e0), (s1, m1, d1, e1) = lo, hi
        rows = trace.timing_rows(tc_enabled, merge_ctrl, start + s0, start + s1)
        _advance_timing(
            run_timing, state, rows, ml_l[m0:m1], drain_l[d0:d1],
            [p - s0 for p in res.ev_pos_l[e0:e1]],
            ev_stall[e0:e1], res.ev_redir[e0:e1],
        )

    # One timing state at a time: each unit runs its warm-detailed then
    # its measured slice, and the two phases' times are summed across
    # units and recorded once each.
    parts = []
    warm_s = 0.0
    started = time.monotonic()
    for i, (lo, mid, hi) in enumerate(zip(offsets(ws), offsets(ss), offsets(an))):
        state = _TimingState(machine)
        sliced = time.monotonic()
        advance(state, lo, mid)
        warm_s += time.monotonic() - sliced
        cycles_before = state.cc
        advance(state, mid, hi)
        stats = SimulationStats(**{f: column[i] for f, column in counters.items()})
        stats.instructions = hi[0] - mid[0]
        stats.cycles = max(1, state.cc - cycles_before)
        parts.append(stats)
    timing_s = time.monotonic() - started
    n_warm_detailed = int((ss - ws).sum())
    if n_warm_detailed:
        obs_phases.record_span(
            "warm_detailed", started, warm_s, n_warm_detailed, backend=backend
        )
    obs_phases.record_span(
        "detailed", started + warm_s, timing_s - warm_s,
        int((an - ss).sum()), backend=backend,
    )
    return parts, warming


def _caches_serial(machine, pc_r, addr_r, fetch_idx, mem_idx, in_detail):
    """Reference-order cache walk (next-line prefetch enabled).

    Prefetching couples the dl1 with the L2 outside the per-structure
    event streams (a dl1 miss also warms ``block + 1`` through the
    shared L2), so the per-structure replay is no longer valid; fall
    back to walking the merged fetch/memory event stream through the
    structures' reference methods: ``access`` inside units (which
    counts the statistics), ``warm`` in the gaps.  Still much faster
    than the reference loop: only events are visited, not every
    instruction.  Returns each fetch event's il1 stall and each memory
    op's dl1 latency, zero in the gaps.
    """
    il1 = machine.il1
    dl1 = machine.dl1
    il1_hit_latency = il1.hit_latency
    il1_access = il1.access
    il1_warm = il1.warm
    dl1_access = dl1.access
    dl1_warm = dl1.warm
    f_l = fetch_idx.tolist()
    m_l = mem_idx.tolist()
    f_unit = in_detail[fetch_idx].tolist()
    m_unit = in_detail[mem_idx].tolist()
    pc_ev = pc_r[fetch_idx].tolist()
    addr_ev = addr_r[mem_idx].tolist()
    nf = len(f_l)
    nm = len(m_l)
    stall_cache = [0] * nf
    dl1_lat = [0] * nm
    fpos = 0
    mpos = 0
    next_f = f_l[0] if nf else _INF
    next_m = m_l[0] if nm else _INF
    while fpos < nf or mpos < nm:
        if next_f <= next_m:  # fetch precedes execute at the same index
            if f_unit[fpos]:
                stall_cache[fpos] = il1_access(pc_ev[fpos]) - il1_hit_latency
            else:
                il1_warm(pc_ev[fpos])
            fpos += 1
            next_f = f_l[fpos] if fpos < nf else _INF
        else:
            if m_unit[mpos]:
                dl1_lat[mpos] = dl1_access(addr_ev[mpos])
            else:
                dl1_warm(addr_ev[mpos])
            mpos += 1
            next_m = m_l[mpos] if mpos < nm else _INF
    return _int64(stall_cache), _int64(dl1_lat)


def run_warming(machine, trace, start, end):
    """Vectorized functional warming over ``trace[start:end)``.

    :func:`resolve` with no units: structures are trained on the same
    event streams, cache/TLB statistics stay untouched, BTB statistics
    and the WarmingStats counters are recorded exactly as the reference
    loop does.
    """
    from repro.cpu.functional import WarmingStats

    if end - start <= 0:
        return WarmingStats(instructions=max(0, end - start))
    # Warming always starts from a local "no previous block" state,
    # mirroring the reference loop's per-call locals.
    _, _, gaps = resolve(machine, trace, start, end, (), tag="branchw")
    return gaps
