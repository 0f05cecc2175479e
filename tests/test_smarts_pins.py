"""SMARTS results pinned bit for bit.

``smarts_pins.json`` holds, for every benchmark, SMARTS permutation and
one of four configurations, the combined statistics' counters, the
measured regions (their count and the sha256 of their JSON list), the
run count and the detailed / warm-detailed / functional instruction
counts, at the ``tiny`` profile and the CLI's default workload seed.
They were recorded with the per-segment SMARTS loop (a warming call
and a ``detail()`` call per sampling unit), so they pin the one-pass
sampled primitive to it.  A pin that moves is a
bug in the change that moved it: never re-record the pins to make this
file pass.

The configurations cover the structure shapes a sweep meets: the base
config, two Plackett-Burman rows with a small and a large ROB (and
different cache geometries), and next-line prefetch plus trivial
computation on the base config (prefetch keeps the per-segment path).
gzip and mcf run with the rest of the suite; the other benchmarks are
marked ``slow``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.characterization.plackett_burman import PlackettBurmanDesign
from repro.cpu.config import Enhancements, ProcessorConfig
from repro.scale import scale_from_profile
from repro.techniques.registry import permutations
from repro.workloads.spec import BENCHMARK_NAMES, get_workload

PINS = json.loads(Path(__file__).with_name("smarts_pins.json").read_text())

#: Plackett-Burman rows: row 2 has a 16-entry ROB and 8 KB L1s, row 1 a
#: 256-entry ROB and a 256 KB L2.
_PB_ROWS = {"pb-small-rob": 2, "pb-large-rob": 1}

CONFIGS = ("base",) + tuple(_PB_ROWS) + ("nlp+tc",)

UNTAGGED = ("gzip", "mcf")


def _config(label):
    if label in _PB_ROWS:
        return PlackettBurmanDesign().configs()[_PB_ROWS[label]], None
    if label == "nlp+tc":
        return ProcessorConfig(), Enhancements(
            next_line_prefetch=True, trivial_computation=True
        )
    return ProcessorConfig(), None


def pin_record(benchmark, permutation, label):
    """The pinned fields of one SMARTS run."""
    technique = {t.permutation: t for t in permutations("SMARTS")}[permutation]
    config, enhancements = _config(label)
    result = technique.run(
        get_workload(benchmark, seed=1234),
        config,
        scale_from_profile("tiny"),
        enhancements,
    )
    regions = json.dumps([list(region) for region in result.regions])
    return {
        "counters": result.stats.counters(),
        "regions_sha256": hashlib.sha256(regions.encode()).hexdigest(),
        "units": len(result.regions),
        "runs": result.runs,
        "detailed": result.detailed_instructions,
        "warm_detailed": result.warm_detailed_instructions,
        "functional": result.functional_warm_instructions,
    }


def _keys(benchmarks):
    return [
        f"{benchmark} | {t.permutation} | {label}"
        for benchmark in benchmarks
        for t in permutations("SMARTS")
        for label in CONFIGS
    ]


def _check(key):
    assert pin_record(*key.split(" | ")) == PINS[key]


def test_pins_cover_every_benchmark_permutation_and_config():
    assert set(PINS) == set(_keys(BENCHMARK_NAMES))


@pytest.mark.parametrize("key", _keys(UNTAGGED))
def test_smarts_pinned(key):
    _check(key)


@pytest.mark.slow
@pytest.mark.parametrize(
    "key", _keys([b for b in BENCHMARK_NAMES if b not in UNTAGGED])
)
def test_smarts_pinned_slow(key):
    _check(key)
