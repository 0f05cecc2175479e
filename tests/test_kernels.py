"""Backend registry and cross-backend parity tests.

Every simulation backend (``python`` reference, ``numpy`` vectorized,
``numba`` JIT) must produce bit-identical statistics; these tests pin
that contract with fixed scenarios and a hypothesis sweep over random
configurations and warm-up/measure splits.  Without numba installed the
numba backend's batch timing kernel runs interpreted through the
identity ``njit`` fallback, so its semantics are still exercised here.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.branch import (
    BranchTargetBuffer,
    ReturnAddressStack,
    make_predictor,
)
from repro.cpu.cache import TLB, Cache, MainMemory
from repro.cpu.checkpoint import snapshot_machine
from repro.cpu.config import Enhancements, ProcessorConfig
from repro.cpu.functional import run_functional_warming
from repro.cpu.kernels.codegen import btb_events, ras_events
from repro.cpu.kernels.numpy_impl import _resolve_predictor
from repro.cpu.kernels.registry import (
    BACKEND_ENV_VAR,
    NumbaBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    get_backend,
    numba_available,
    resolve_backend_name,
)
from repro.cpu.kernels.state import (
    KernelBTB,
    KernelCache,
    KernelMemory,
    KernelPredictor,
    KernelRAS,
    KernelTLB,
)
from repro.cpu.machine import Machine
from repro.cpu.pipeline import run_detailed
from repro.cpu.simulator import Simulator
from repro.isa.trace import Trace
from repro.techniques.smarts import SmartsTechnique

from tests.conftest import TEST_SCALE, make_micro_workload

#: Backends compared against the python reference.  Fresh instances so
#: an explicit object (rather than a registry name) also takes the
#: ``get_backend`` instance path.
ARRAY_BACKENDS = [NumpyBackend(), NumbaBackend()]


@pytest.fixture(scope="module")
def trace():
    # ~6000 instructions: long enough that the numpy backend's
    # vectorized path engages (regions >= SMALL_REGION) on both the
    # warming and the detailed segment of every scenario below.
    return make_micro_workload(length_m=1200).trace(TEST_SCALE)


def run_scenario(backend, trace, config, enhancements, warm_end, measure_from):
    """Warm ``[0, warm_end)`` then detail the rest; return all counters."""
    machine = Machine(config, enhancements, backend=backend)
    warming = run_functional_warming(machine, trace, 0, warm_end)
    stats = run_detailed(
        machine, trace, warm_end, len(trace), measure_from=measure_from
    )
    return warming, stats, machine.cache_snapshot()


class TestRegistry:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        expected = "numba" if numba_available() else "numpy"
        assert resolve_backend_name() == expected
        assert resolve_backend_name("auto") == expected

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend_name() == "python"
        assert Machine(ProcessorConfig()).backend.name == "python"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend_name("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend_name("fortran")

    @pytest.mark.skipif(numba_available(), reason="numba is installed")
    def test_numba_request_degrades_gracefully(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend_name("numba") == "numpy"
        assert "numba" not in available_backends()

    def test_available_backends(self):
        names = available_backends()
        assert "python" in names and "numpy" in names

    def test_get_backend_accepts_instance(self):
        backend = NumbaBackend()
        assert get_backend(backend) is backend

    def test_get_backend_caches_by_name(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_cli_flag_exports_backend(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert main(["list", "--backend", "python"]) == 0
        # The flag wins over the environment and is exported so worker
        # processes inherit the resolved choice.
        import os

        assert os.environ[BACKEND_ENV_VAR] == "python"


class TestFixedScenarioParity:
    """Hand-picked configurations covering every structure variant."""

    SCENARIOS = {
        "default": (ProcessorConfig(), Enhancements()),
        "bimodal": (ProcessorConfig(branch_predictor="bimodal"), Enhancements()),
        "gshare": (
            ProcessorConfig(branch_predictor="gshare", bht_entries=1024),
            Enhancements(),
        ),
        "taken": (ProcessorConfig(branch_predictor="taken"), Enhancements()),
        "perfect": (ProcessorConfig(branch_predictor="perfect"), Enhancements()),
        "enhanced": (
            ProcessorConfig(),
            Enhancements(trivial_computation=True, next_line_prefetch=True),
        ),
        "direct-mapped": (
            ProcessorConfig(il1_assoc=1, dl1_assoc=1, btb_assoc=1),
            Enhancements(),
        ),
        "small-window": (
            ProcessorConfig(rob_entries=16, lsq_entries=8, ifq_size=4),
            Enhancements(),
        ),
    }

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_reference(self, trace, backend, scenario):
        config, enhancements = self.SCENARIOS[scenario]
        warm_end = len(trace) // 3
        measure_from = warm_end + (len(trace) - warm_end) // 4
        expected = run_scenario(
            PythonBackend(), trace, config, enhancements, warm_end, measure_from
        )
        actual = run_scenario(
            backend, trace, config, enhancements, warm_end, measure_from
        )
        assert actual == expected

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    def test_reference_warm_segment_handoff(self, trace, backend):
        # A detail-warm segment shorter than SMALL_REGION runs through
        # the reference loop even on array backends, which leaves the
        # function-unit pools in min-scan (arbitrary) order.  The
        # vectorized measured segment that follows must not assume the
        # sorted-pool invariant it maintains internally.
        config = ProcessorConfig(
            branch_predictor="combined", bht_entries=512, btb_entries=256,
            btb_assoc=1, il1_assoc=1, dl1_assoc=1, l2_assoc=2,
            rob_entries=64, lsq_entries=8, ras_entries=4,
        )
        enhancements = Enhancements(
            trivial_computation=False, next_line_prefetch=False
        )
        warm_end = len(trace) // 7          # reference path (< SMALL_REGION)
        measure_from = warm_end + 765       # detail-warm also < SMALL_REGION
        expected = run_scenario(
            PythonBackend(), trace, config, enhancements, warm_end, measure_from
        )
        actual = run_scenario(
            backend, trace, config, enhancements, warm_end, measure_from
        )
        assert actual == expected

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS, ids=lambda b: b.name)
    def test_cold_full_trace(self, trace, backend):
        reference = Simulator(backend=PythonBackend()).run_reference(trace)
        result = Simulator(backend=backend).run_reference(trace)
        assert result.stats == reference.stats

    def test_simulator_accepts_backend_names(self, trace):
        reference = Simulator(backend="python").run_region(trace, 0, 2000)
        result = Simulator(backend="numpy").run_region(trace, 0, 2000)
        assert result.stats == reference.stats


class TestBatchedParity:
    """``run_regions`` with N configs must be bit-identical, per config,
    to N independent ``run_region`` calls -- against both the numpy
    backend's own per-run path and the python reference backend."""

    #: Latency / core-width variants of one geometry: every field a
    #: batch is allowed to vary, including ``int_alu_lat`` (which
    #: selects a different generated timing loop per config).
    def variants(self):
        base = ProcessorConfig()
        return [
            base,
            base.replace(name="lat1", l2_latency=6, mem_latency_first=120),
            base.replace(name="lat2", mem_latency_next=9, mem_bus_width=4),
            base.replace(name="lat3", int_alu_lat=2, int_mult_lat=5),
            base.replace(name="lat4", rob_entries=32, lsq_entries=16,
                         ifq_size=8, mispredict_penalty=3),
        ]

    def per_run(self, backend, trace, specs, start, end, **kwargs):
        return [
            Simulator(config, enh, backend=backend).run_region(
                trace, start, end, **kwargs
            )
            for config, enh in specs
        ]

    def batched(self, trace, specs, start, end, backend="numpy", **kwargs):
        return Simulator(backend=backend).run_regions(
            trace,
            (start, end),
            configs=[config for config, _ in specs],
            enhancements=[enh for _, enh in specs],
            **kwargs,
        )

    def test_latency_batch_matches_per_run(self, trace):
        # Trivial-computation members may share a batch with baseline
        # members (TC affects timing codes, not structure outcomes).
        specs = [
            (config, Enhancements(trivial_computation=(i % 2 == 1)))
            for i, config in enumerate(self.variants())
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_batch_matches_reference_backend(self, trace):
        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = 1500, len(trace)
        reference = self.per_run("python", trace, specs, start, end)
        results = self.batched(trace, specs, start, end)
        assert [r.stats for r in results] == [r.stats for r in reference]

    def test_reference_backend_run_regions_falls_back(self, trace):
        # The API holds on the python backend too: it reports no
        # batching support, so run_regions loops per config.
        specs = [(config, Enhancements()) for config in self.variants()[:3]]
        start, end = 2000, len(trace)
        expected = self.per_run("python", trace, specs, start, end)
        assert self.batched(trace, specs, start, end, backend="python") == expected

    def test_warmed_prefix_batch(self, trace):
        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = len(trace) // 2, len(trace)
        for backend in ("python", "numpy"):
            expected = self.per_run(
                backend, trace, specs, start, end,
                warmup_instructions=300, warmed_prefix=True,
            )
            results = self.batched(
                trace, specs, start, end,
                warmup_instructions=300, warmed_prefix=True,
            )
            assert [r.stats for r in results] == [r.stats for r in expected]
        assert results == expected  # full work profile on numpy too

    def test_checkpoint_resume_batch(self, trace, tmp_path):
        from repro.cpu import checkpoint
        from repro.cpu.checkpoint import CheckpointStore

        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = len(trace) // 2, len(trace)
        expected = self.per_run(
            "numpy", trace, specs, start, end, warmed_prefix=True
        )
        checkpoint.activate(CheckpointStore(tmp_path, 1000))
        try:
            first = self.batched(
                trace, specs, start, end,
                warmed_prefix=True, checkpoint_key="batch-chain",
            )
            # Second batch resumes its shared warming prefix from the
            # checkpoint the first one stored.
            resumed = self.batched(
                trace, specs, start, end,
                warmed_prefix=True, checkpoint_key="batch-chain",
            )
        finally:
            checkpoint.activate(None)
        assert [r.stats for r in first] == [r.stats for r in expected]
        assert [r.stats for r in resumed] == [r.stats for r in expected]

    def test_nlp_batch_falls_back_and_matches(self, trace):
        specs = [
            (config, Enhancements(next_line_prefetch=True))
            for config in self.variants()[:3]
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_nlp_rejected_by_batch_kernel(self, trace):
        from repro.cpu.kernels import numpy_impl
        from repro.cpu.pipeline import _TimingState

        machine = Machine(
            ProcessorConfig(), Enhancements(next_line_prefetch=True),
            backend="numpy",
        )
        batch = [(machine.config, machine.enhancements)]
        with pytest.raises(ValueError, match="next.line.prefetch"):
            numpy_impl.advance_detailed_batch(
                machine, trace, 0, 2000, batch,
                [_TimingState(machine)],
            )

    def test_heterogeneous_geometry_batches(self, trace):
        # Geometry-varying members are eligible: the simulator groups
        # them per geometry internally, and each group's batched pass
        # stays bit-identical to independent runs.
        base = ProcessorConfig()
        specs = [
            (base, Enhancements()),
            (base.replace(name="big-l2", l2_size_kb=2048), Enhancements()),
            (base.replace(name="lat", l2_latency=6), Enhancements()),
            (base.replace(name="gshare", branch_predictor="gshare"),
             Enhancements()),
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(trace, specs, start, end) == expected

    def test_geometry_varying_batch_warmed_prefix(self, trace):
        # Mixed geometries through the warmed-prefix path: each
        # geometry group warms its own machine and the per-config
        # checkpoint keys keep results identical to independent runs.
        base = ProcessorConfig()
        specs = [
            (base, Enhancements()),
            (base.replace(name="small-bht", bht_entries=512),
             Enhancements()),
            (base.replace(name="lat", mem_latency_first=120),
             Enhancements(trivial_computation=True)),
        ]
        start, end = len(trace) // 2, len(trace)
        expected = self.per_run(
            "numpy", trace, specs, start, end,
            warmup_instructions=300, warmed_prefix=True,
        )
        results = self.batched(
            trace, specs, start, end,
            warmup_instructions=300, warmed_prefix=True,
        )
        assert results == expected

    def test_numba_batch_matches_sequential_numpy(self, trace):
        # The data-parallel kernel (interpreted when numba is absent)
        # must be bit-identical to the numpy backend's sequential
        # per-member path -- full results, stats and work profile.
        specs = [
            (config, Enhancements(trivial_computation=(i % 2 == 1)))
            for i, config in enumerate(self.variants())
        ]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(
            trace, specs, start, end, backend=NumbaBackend()
        ) == expected

    def test_numba_single_run_is_a_batch_of_one(self, trace, monkeypatch):
        # A long region on the numba backend runs the batch timing
        # kernel at N=1, bit-identically to numpy's codegen loop.
        from repro.cpu.kernels import batch_impl

        widths = []
        kernel = batch_impl._batch_kernel

        def counted(k, *args):
            widths.append(k)
            return kernel(k, *args)

        monkeypatch.setattr(batch_impl, "_batch_kernel", counted)
        expected = run_scenario(
            NumpyBackend(), trace, ProcessorConfig(), None, 1000, 2500
        )
        got = run_scenario(
            NumbaBackend(), trace, ProcessorConfig(), None, 1000, 2500
        )
        assert got == expected
        assert widths == [1, 1]

    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_thread_count_independence(self, trace, monkeypatch, threads):
        # prange iterations are fully independent, so the thread count
        # must never show up in the results.
        from repro.settings import KERNEL_THREADS_ENV_VAR

        specs = [(config, Enhancements()) for config in self.variants()]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        monkeypatch.setenv(KERNEL_THREADS_ENV_VAR, threads)
        assert self.batched(
            trace, specs, start, end, backend=NumbaBackend()
        ) == expected

    def test_batch_kernel_falls_back_without_numba(self, trace, monkeypatch):
        # With numba unavailable the driver runs the same kernel
        # interpreted, single-threaded, and stays bit-identical.
        from repro.cpu.kernels import batch_impl

        monkeypatch.setattr(batch_impl, "NUMBA_AVAILABLE", False)
        assert batch_impl.resolve_threads(8) == 1
        specs = [(config, Enhancements()) for config in self.variants()[:3]]
        start, end = 2000, len(trace)
        expected = self.per_run("numpy", trace, specs, start, end)
        assert self.batched(
            trace, specs, start, end, backend=NumbaBackend()
        ) == expected

    def test_mismatched_enhancement_count_rejected(self, trace):
        with pytest.raises(ValueError, match="configs but"):
            Simulator(backend="numpy").run_regions(
                trace,
                (0, 2000),
                configs=[ProcessorConfig(), ProcessorConfig()],
                enhancements=[Enhancements()] * 3,
            )


@st.composite
def batch_scenarios(draw):
    """A batch of 2-4 latency/width variants over one shared geometry,
    with per-member trivial-computation and a warm-up split."""
    base = ProcessorConfig(
        branch_predictor=draw(st.sampled_from(["combined", "bimodal", "taken"])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        bht_entries=draw(st.sampled_from([512, 4096])),
    )
    members = []
    for index in range(draw(st.integers(2, 4))):
        config = base.replace(
            name=f"member{index}",
            l2_latency=draw(st.integers(2, 14)),
            mem_latency_first=draw(st.integers(40, 260)),
            mem_latency_next=draw(st.integers(1, 10)),
            mem_bus_width=draw(st.sampled_from([4, 8, 16])),
            int_alu_lat=draw(st.sampled_from([1, 2])),
            rob_entries=draw(st.sampled_from([16, 64])),
            lsq_entries=draw(st.sampled_from([8, 32])),
        )
        enh = Enhancements(trivial_computation=draw(st.booleans()))
        members.append((config, enh))
    warm_frac = draw(st.floats(0.0, 0.5))
    warmed_prefix = draw(st.booleans())
    return members, warm_frac, warmed_prefix


class TestBatchedHypothesisParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=batch_scenarios())
    def test_batched_bit_identical_per_config(self, trace, scenario):
        members, warm_frac, warmed_prefix = scenario
        start = int(len(trace) * warm_frac)
        end = len(trace)
        reference = [
            Simulator(config, enh, backend="python").run_region(
                trace, start, end, warmed_prefix=warmed_prefix
            )
            for config, enh in members
        ]
        per_run = [
            Simulator(config, enh, backend="numpy").run_region(
                trace, start, end, warmed_prefix=warmed_prefix
            )
            for config, enh in members
        ]
        batched = Simulator(backend="numpy").run_regions(
            trace,
            (start, end),
            configs=[config for config, _ in members],
            enhancements=[enh for _, enh in members],
            warmed_prefix=warmed_prefix,
        )
        assert batched == per_run
        assert [r.stats for r in batched] == [r.stats for r in reference]
        # The data-parallel numba kernel serves the same batch
        # bit-identically (interpreted when numba is not installed).
        parallel = Simulator(backend=NumbaBackend()).run_regions(
            trace,
            (start, end),
            configs=[config for config, _ in members],
            enhancements=[enh for _, enh in members],
            warmed_prefix=warmed_prefix,
        )
        assert parallel == per_run


@st.composite
def scenarios(draw):
    config = ProcessorConfig(
        branch_predictor=draw(
            st.sampled_from(["combined", "bimodal", "gshare", "taken", "perfect"])
        ),
        bht_entries=draw(st.sampled_from([512, 2048, 8192])),
        btb_entries=draw(st.sampled_from([256, 2048])),
        btb_assoc=draw(st.sampled_from([1, 2, 4])),
        ras_entries=draw(st.sampled_from([4, 16])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        l2_assoc=draw(st.sampled_from([2, 8])),
        rob_entries=draw(st.sampled_from([16, 64])),
        lsq_entries=draw(st.sampled_from([8, 32])),
    )
    enhancements = Enhancements(
        trivial_computation=draw(st.booleans()),
        next_line_prefetch=draw(st.booleans()),
    )
    warm_frac = draw(st.floats(0.0, 0.5))
    measure_frac = draw(st.floats(0.0, 0.4))
    return config, enhancements, warm_frac, measure_frac


class TestHypothesisParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios())
    def test_backends_bit_identical(self, trace, scenario):
        config, enhancements, warm_frac, measure_frac = scenario
        warm_end = int(len(trace) * warm_frac)
        measure_from = warm_end + int((len(trace) - warm_end) * measure_frac)
        results = [
            run_scenario(
                backend, trace, config, enhancements, warm_end, measure_from
            )
            for backend in (PythonBackend(), NumpyBackend(), NumbaBackend())
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]


# ---------------------------------------------------------------------------
# warm() versus access(): the equivalence the one-pass sampled path rests on
# ---------------------------------------------------------------------------

#: Reference objects and flat-list state (numpy and numba backends).
STORAGES = ("reference", "list")

_STATS = ("hits", "misses", "prefetches")


def _tags_only(snapshot):
    return {k: v for k, v in snapshot.items() if k not in _STATS}


def _hierarchy(storage, next_line_prefetch=False):
    """(memory, l2, dl1) over one storage kind."""
    if storage == "reference":
        memory = MainMemory(100, 5, 8)
        l2 = Cache("l2", 4096, 4, 64, 10, memory=memory)
        l1 = Cache(
            "dl1", 1024, 2, 32, 1, parent=l2,
            next_line_prefetch=next_line_prefetch,
        )
    else:
        memory = KernelMemory(100, 5, 8)
        l2 = KernelCache("l2", 4096, 4, 64, 10, memory=memory)
        l1 = KernelCache(
            "dl1", 1024, 2, 32, 1, parent=l2,
            next_line_prefetch=next_line_prefetch,
        )
    return memory, l2, l1


def _tlb(storage):
    if storage == "reference":
        return TLB("dtlb", 16, 30)
    return KernelTLB("dtlb", 16, 30)


def _addresses(seed, count=3000, span=1 << 14):
    rng = random.Random(seed)
    return [rng.randrange(span) for _ in range(count)]


class TestWarmAccessEquivalence:
    """Functional warming trains every structure exactly as detailed
    simulation does; only statistics differ.  This is what lets one
    structural pass serve both a SMARTS run's warming gaps and its
    detailed units."""

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cache_hierarchy(self, storage, seed):
        warm = _hierarchy(storage)
        access = _hierarchy(storage)
        for addr in _addresses(seed):
            warm[2].warm(addr)
            access[2].access(addr)
        for warmed, accessed in zip(warm[1:], access[1:]):
            assert _tags_only(warmed.warm_state()) == _tags_only(
                accessed.warm_state()
            )
            assert (warmed.hits, warmed.misses, warmed.prefetches) == (0, 0, 0)
            assert accessed.misses > 0 and accessed.hits > 0
        assert warm[0].accesses == 0
        assert access[0].accesses == access[1].misses

    @pytest.mark.parametrize("storage", STORAGES)
    def test_next_line_prefetch_pair(self, storage):
        """``warm`` inserts the next line with ``_warm_insert`` into the
        L1 only; ``access`` goes through ``_prefetch``, which also warms
        the L2.  The L1s agree, the L2s do not -- so next-line prefetch
        keeps the per-segment sampled loop."""
        warm = _hierarchy(storage, next_line_prefetch=True)
        access = _hierarchy(storage, next_line_prefetch=True)
        for addr in _addresses(3):
            warm[2].warm(addr)
            access[2].access(addr)
        assert _tags_only(warm[2].warm_state()) == _tags_only(
            access[2].warm_state()
        )
        assert warm[2].prefetches == 0
        assert access[2].prefetches == access[2].misses
        assert warm[1].warm_state()["sets"] != access[1].warm_state()["sets"]

    @pytest.mark.parametrize("storage", STORAGES)
    def test_tlb(self, storage):
        warm, access = _tlb(storage), _tlb(storage)
        for addr in _addresses(4, span=1 << 20):
            warm.warm(addr)
            access.access(addr)
        assert _tags_only(warm.warm_state()) == _tags_only(access.warm_state())
        assert (warm.hits, warm.misses) == (0, 0)
        assert access.hits > 0 and access.misses > 0

    def test_storages_agree_on_access(self):
        snapshots = []
        for storage in STORAGES:
            memory, l2, l1 = _hierarchy(storage, next_line_prefetch=True)
            tlb = _tlb(storage)
            for addr in _addresses(5):
                l1.access(addr)
                tlb.access(addr << 6)
            snapshots.append(
                (memory.warm_state(), l2.warm_state(), l1.warm_state(),
                 tlb.warm_state())
            )
        assert snapshots[1] == snapshots[0]

    @pytest.mark.parametrize(
        "kind", ["combined", "bimodal", "gshare", "taken", "perfect"]
    )
    def test_predictor(self, kind):
        """Reference and flat predictors, per call and through the
        vectorized resolver, train identically (warming and detailed
        simulation both use ``predict_update``)."""
        rng = random.Random(6)
        pcs = [rng.randrange(1 << 12) * 4 for _ in range(4000)]
        taken = [rng.random() < 0.6 for _ in pcs]
        reference = make_predictor(kind, 256)
        expected = [reference.predict_update(p, t) for p, t in zip(pcs, taken)]
        flat = KernelPredictor(kind, 256)
        assert [flat.predict_update(p, t) for p, t in zip(pcs, taken)] == expected
        assert flat.warm_state() == reference.warm_state()
        resolved = KernelPredictor(kind, 256)
        correct = _resolve_predictor(
            None, None, 0, len(pcs), resolved,
            np.asarray(pcs, dtype=np.int64),
            np.asarray(taken, dtype=np.int64),
        )
        assert correct.tolist() == expected
        assert resolved.warm_state() == reference.warm_state()

    def test_btb(self):
        """The BTB counts in both modes, so its whole state -- counters
        included -- must agree across implementations."""
        rng = random.Random(7)
        pcs = [rng.randrange(1 << 9) * 4 for _ in range(4000)]
        targets = [rng.randrange(4) * 64 for _ in pcs]
        reference = BranchTargetBuffer(64, 4)
        expected = [reference.lookup_update(p, t) for p, t in zip(pcs, targets)]
        flat = KernelBTB(64, 4)
        assert [flat.lookup_update(p, t) for p, t in zip(pcs, targets)] == expected
        assert flat.warm_state() == reference.warm_state()
        flat = KernelBTB(64, 4)
        keys = [p >> 2 for p in pcs]
        misses = btb_events(flat.assoc)(
            [(k & flat.set_mask) * flat.assoc for k in keys],
            keys, targets, flat.keys, flat.targets,
        )
        assert misses == [i for i, ok in enumerate(expected) if not ok]

    def test_ras(self):
        rng = random.Random(8)
        pushes = [rng.random() < 0.5 for _ in range(4000)]
        reference = ReturnAddressStack(8)
        expected = []
        for push in pushes:
            if push:
                reference.push()
            else:
                expected.append(reference.pop())
        flat = KernelRAS(8)
        got = []
        for push in pushes:
            if push:
                flat.push()
            else:
                got.append(flat.pop())
        assert got == expected
        assert flat.warm_state() == reference.warm_state()
        depth, overflows, correct = ras_events(pushes, 0, 8)
        assert [bool(c) for c in correct] == expected
        assert {"depth": depth, "overflows": overflows} == reference.warm_state()


# ---------------------------------------------------------------------------
# Sampled (SMARTS) runs: one structural pass versus the per-segment loop
# ---------------------------------------------------------------------------


def _sampled(backend, trace, config, enhancements, units, checkpoint_key=None):
    simulator = Simulator(config, enhancements, backend=backend)
    machine = simulator.new_machine()
    run = simulator.run_sampled(
        machine, trace, units, checkpoint_key=checkpoint_key
    )
    return (
        [part.counters() for part in run.units],
        run.warming,
        run.cache_delta,
        snapshot_machine(machine),
    )


@st.composite
def sampled_scenarios(draw):
    config = ProcessorConfig(
        branch_predictor=draw(st.sampled_from(["combined", "gshare", "bimodal"])),
        bht_entries=draw(st.sampled_from([512, 4096])),
        btb_assoc=draw(st.sampled_from([1, 4])),
        ras_entries=draw(st.sampled_from([2, 16])),
        il1_size_kb=draw(st.sampled_from([8, 64])),
        il1_assoc=draw(st.sampled_from([1, 2])),
        dl1_size_kb=draw(st.sampled_from([8, 64])),
        dl1_assoc=draw(st.sampled_from([1, 4])),
        l2_assoc=draw(st.sampled_from([2, 8])),
        rob_entries=draw(st.sampled_from([16, 64, 256])),
        int_alu_lat=draw(st.sampled_from([1, 2])),
    )
    enhancements = Enhancements(trivial_computation=draw(st.booleans()))
    u = draw(st.integers(1, 400))
    w = draw(st.integers(0, 800))
    n = draw(st.integers(1, 60))
    return config, enhancements, u, w, n


class TestSampledParity:
    """``numpy``'s one-pass ``run_sampled`` (inherited by ``numba``)
    against the per-segment default the ``python`` reference backend
    runs."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=sampled_scenarios())
    def test_one_pass_matches_per_segment(self, trace, scenario):
        config, enhancements, u, w, n = scenario
        n = SmartsTechnique._cap_samples(n, len(trace), u, w)
        units = SmartsTechnique.schedule(len(trace), n, u, w)
        expected = _sampled("python", trace, config, enhancements, units)
        for backend in ARRAY_BACKENDS:
            assert _sampled(backend, trace, config, enhancements, units) == expected

    @pytest.mark.parametrize(
        "units",
        [
            [(0, 0, 50), (50, 50, 60), (60, 100, 200)],  # back-to-back units
            [(0, 10, 20), (3000, 3000, 3001)],  # no warm-up, one instruction
            [(100, 150, 200), (5000, 5800, 6000)],  # runs to the trace end
        ],
    )
    def test_edge_schedules(self, trace, units):
        units = [u for u in units if u[2] <= len(trace)]
        for enhancements in (
            Enhancements(),
            Enhancements(trivial_computation=True, next_line_prefetch=True),
        ):
            expected = _sampled(
                "python", trace, ProcessorConfig(), enhancements, units
            )
            for backend in ARRAY_BACKENDS:
                got = _sampled(
                    backend, trace, ProcessorConfig(), enhancements, units
                )
                assert got == expected

    @pytest.mark.parametrize("seed", [11, 12])
    def test_memory_ops_with_branch_flags(self, seed):
        """Generated traces never flag a memory op as a branch, but the
        model defines it: detailed simulation counts and resolves it as
        a branch, functional warming skips it.  A random raw trace
        exercises both sides of every segment boundary: in sampled
        schedules, in detailed regions whose detail warm-up continues
        the fetch state (segments below and above ``SMALL_REGION``), and
        in functional warming alone."""
        rng = np.random.default_rng(seed)
        length = 3000
        random_trace = Trace(
            op=rng.integers(0, 13, length).astype(np.uint8),
            dst=rng.integers(-1, 8, length).astype(np.int16),
            src1=rng.integers(-1, 8, length).astype(np.int16),
            src2=rng.integers(-1, 8, length).astype(np.int16),
            pc=(0x1000 + 4 * np.cumsum(rng.integers(-8, 9, length))).astype(
                np.int64
            ),
            block=np.zeros(length, dtype=np.int32),
            addr=(rng.integers(0, 1 << 16, length) * 8).astype(np.int64),
            flags=rng.integers(0, 64, length).astype(np.uint8),
            target=(rng.integers(0, 64, length) * 4).astype(np.int64),
            num_blocks=1,
        )
        units = SmartsTechnique.schedule(length, 15, 30, 60)
        for enhancements in (None, Enhancements(trivial_computation=True)):
            expected = _sampled(
                "python", random_trace, ProcessorConfig(), enhancements, units
            )
            for backend in ARRAY_BACKENDS:
                got = _sampled(
                    backend, random_trace, ProcessorConfig(), enhancements, units
                )
                assert got == expected

        def detailed(backend, start, measure_from, end):
            machine = Machine(
                ProcessorConfig(), Enhancements(trivial_computation=True),
                backend=backend,
            )
            stats = run_detailed(
                machine, random_trace, start, end, measure_from=measure_from
            )
            return stats, machine.cache_snapshot(), snapshot_machine(machine)

        def warmed(backend, start, end):
            machine = Machine(ProcessorConfig(), backend=backend)
            warming = run_functional_warming(machine, random_trace, start, end)
            return warming, machine.cache_snapshot(), snapshot_machine(machine)

        # (warm-up, measured) segment lengths: both long, short then
        # long, long then short.
        for start, measure_from, end in (
            (0, 1500, 3000), (100, 600, 2900), (0, 2000, 2600),
        ):
            expected = detailed(PythonBackend(), start, measure_from, end)
            assert expected[0].branches > 0
            for backend in ARRAY_BACKENDS:
                assert detailed(backend, start, measure_from, end) == expected
        for start, end in ((0, length), (250, 2750)):
            expected = warmed(PythonBackend(), start, end)
            for backend in ARRAY_BACKENDS:
                assert warmed(backend, start, end) == expected

    def test_checkpointed_prefix(self, trace, tmp_path):
        from repro.cpu import checkpoint
        from repro.cpu.checkpoint import CheckpointStore

        units = SmartsTechnique.schedule(len(trace), 12, 40, 120)
        expected = _sampled("python", trace, ProcessorConfig(), None, units)
        for backend in ARRAY_BACKENDS:
            checkpoint.activate(CheckpointStore(tmp_path / backend.name, 100))
            try:
                cold = _sampled(
                    backend, trace, ProcessorConfig(), None, units, "chain"
                )
                resumed = _sampled(
                    backend, trace, ProcessorConfig(), None, units, "chain"
                )
            finally:
                checkpoint.activate(None)
            assert cold == expected
            assert resumed == expected
