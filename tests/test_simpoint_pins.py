"""SimPoint selections pinned bit for bit.

``simpoint_pins.json`` holds ``(k, intervals, weights)`` for every
benchmark and SimPoint permutation (Table 1 plus Figure 6's single-10M)
at the ``tiny`` profile and the CLI's default workload seed, recorded
with the per-cluster k-means that predates :class:`PointSet`.  Every
SimPoint result downstream depends on these, so a selection that moves
is a bug in the change that moved it: never re-record the pins to make
this file pass.

The two selections the Figure 3/4 sweep makes (gcc and mcf,
``multiple (max_k 100) 10M``) run with the rest of the suite; the full
matrix is marked ``slow``.
"""

import json
from pathlib import Path

import pytest

from repro.scale import scale_from_profile
from repro.techniques.registry import permutations
from repro.workloads.spec import BENCHMARK_NAMES, get_workload

PINS = json.loads(Path(__file__).with_name("simpoint_pins.json").read_text())

SVAT = ("gcc | multiple (max_k 100) 10M", "mcf | multiple (max_k 100) 10M")


def _select(key):
    benchmark, permutation = key.split(" | ")
    technique = {
        t.permutation: t for t in permutations("SimPoint", extras=True)
    }[permutation]
    selection = technique.select(
        get_workload(benchmark, seed=1234), scale_from_profile("tiny")
    )
    return {
        "k": selection.k,
        "intervals": selection.intervals,
        "weights": selection.weights,
    }


def test_pins_cover_every_benchmark_and_permutation():
    expected = {
        f"{benchmark} | {t.permutation}"
        for benchmark in BENCHMARK_NAMES
        for t in permutations("SimPoint", extras=True)
    }
    assert set(PINS) == expected


@pytest.mark.parametrize("key", SVAT)
def test_svat_selection_pinned(key):
    assert _select(key) == PINS[key]


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(set(PINS) - set(SVAT)))
def test_selection_pinned(key):
    assert _select(key) == PINS[key]
