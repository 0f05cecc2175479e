"""One invocation of the stock experiment drivers, as a fresh process.

``python3 perfbench/runner.py SPEC.json`` builds the same
:class:`ExperimentContext` that ``python -m repro.experiments`` builds
for the spec's flags -- plus the workload seed, which the CLI leaves at
its default -- prints each driver's report to stdout exactly as the CLI
does, and writes a JSON record to ``spec["result"]``:

* ``ready``: ``time.monotonic()`` once ``repro.experiments`` is imported
  and the context is built (the parent subtracts its spawn time);
* ``wall_s``: host seconds from ``ready`` until the drivers returned and
  the engine wrote its stats and closed;
* ``trace``: with ``spec["trace"]``, the per-layer span summary of
  :mod:`layers` (meant for ``jobs = 1``, where every call is in-process).

With ``spec["setup_only"]`` it stops after ``ready``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])

    from repro.cpu.kernels.registry import (
        BACKEND_ENV_VAR,
        SMALL_REGION,
        numba_available,
        resolve_backend_name,
    )
    from repro.experiments.__main__ import EXPERIMENTS
    from repro.experiments.common import ExperimentContext, default_benchmarks
    from repro.scale import scale_from_profile
    from repro.settings import KERNEL_THREADS_ENV_VAR

    # What main() exports so pool workers inherit the same choices.
    backend = resolve_backend_name(None)
    os.environ[BACKEND_ENV_VAR] = backend
    os.environ[KERNEL_THREADS_ENV_VAR] = "0"

    drivers = [EXPERIMENTS[name] for name in spec["experiments"]]
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.Tracer(split=SMALL_REGION)
        layers.install(tracer)
        drivers = [
            tracer.wrap(f"experiments.{name}", EXPERIMENTS[name], root=True)
            for name in spec["experiments"]
        ]

    context = ExperimentContext(
        scale=scale_from_profile(spec["profile"]),
        benchmarks=(
            tuple(spec["benchmarks"]) if spec["benchmarks"]
            else default_benchmarks(False)
        ),
        depth=spec["depth"],
        seed=spec["seed"],
        jobs=spec["jobs"],
        cache_dir=Path(spec["cache_dir"]),
        batch_configs=spec["batch_configs"],
    )
    record = {
        "ready": time.monotonic(),
        "backend": backend,
        "numba": numba_available(),
    }
    if spec["setup_only"]:
        context.engine.close()
    else:
        if tracer is not None:
            tracer.begin()
        started = time.perf_counter()
        try:
            for driver in drivers:
                print(driver(context).render())
                print()
        finally:
            context.engine.write_stats()
            context.engine.close()
        record["wall_s"] = time.perf_counter() - started
        sys.stdout.flush()
        if tracer is not None:
            record["trace"] = tracer.summary(tracer.end())
            record["trace"]["per_call_s"] = layers.per_call_cost()
    with open(spec["result"], "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
