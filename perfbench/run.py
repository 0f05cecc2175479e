"""End-to-end and per-layer benchmark of the paper's experiment drivers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pb-sampling --seed 1234 \\
        --seconds 30 --trace 0

Each workload is a closed-loop batch job: one stock experiment-driver
invocation at a time (``python -m repro.experiments`` with the flags in
:data:`WORKLOADS`), each in a fresh interpreter and from a fresh, empty
``--cache-dir``.  ``--seed`` reaches the program only as the
``ExperimentContext.seed`` of the invocation; 1234 is the CLI's default.

``--trace 0`` measures the end-to-end metrics: it runs cold invocations
at ``--jobs 2`` for ``--seconds`` (at least one; another only while it
fits), re-runs each against its warm cache to check that the stored
results reproduce the same tables, and times set-up in each of these
fresh interpreters and in one more that only sets up.  Its times are
reported at a reference host speed: :class:`HostSpeed` times a fixed
calibration unit around every child and divides host seconds by how
much slower than the reference the unit ran.

``--trace 1`` runs one untraced ``--jobs 2`` invocation (engine
counters, utilisation, journal run-wall percentiles) and one traced
``--jobs 1`` invocation whose per-layer spans come from :mod:`layers`;
both must produce identical stdout and result stores.

At the default seed every invocation's stdout and result-store digests
must equal ``expected.json``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the full record,
with the machine fingerprint, goes to ``.perfbench/records/``.  Print
every record's metrics with ``python3 perfbench/report.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 1234
JOBS = 2
#: Set-up-only interpreters per ``--trace 0`` run; each cold invocation
#: and its warm re-run give one more set-up sample each.
SETUP_SAMPLES = 1
#: Every child must end by this many seconds after the run started.
DEADLINE_S = 170.0
#: Median seconds of one :func:`calibration_unit` at the reference host
#: speed (2-CPU x86_64 VM, Python 3.11, numpy 2.4, quiet neighbours).
CALIBRATION_REFERENCE_S = 0.072
#: Calibration units timed at each point of a run (before and after
#: every child).
CALIBRATION_UNITS = 3

WORKLOADS: Dict[str, dict] = {
    # Figures 1+2: 1056 requests dedup to 396 short runs of all six
    # families; SMARTS sampling units and per-run dispatch dominate.
    "pb-sampling": {
        "experiments": ["figure1", "figure2"],
        "profile": "tiny",
        "depth": "quick",
        "benchmarks": ["gzip"],
        "batch_configs": 1,
    },
    # Figures 3+4 (gcc, mcf): 56 runs; SimPoint's k-means selection runs
    # serially in the supervisor, on the critical path.
    "svat": {
        "experiments": ["figure3", "figure4"],
        "profile": "tiny",
        "depth": "quick",
        "benchmarks": None,
        "batch_configs": 1,
    },
    # Reference technique only, 35 same-geometry configs on long regions:
    # the numpy batch kernel does the work; bypasses SMARTS, SimPoint
    # and per-run dispatch.
    "latency-batched": {
        "experiments": ["pb-latency", "latency-sweep"],
        "profile": "quick",
        "depth": "standard",
        "benchmarks": None,
        "batch_configs": 32,
    },
}


# -- one child process ---------------------------------------------------------


class Invocation:
    """A finished runner child: exit status, rusage and its record."""

    def __init__(self, workdir: Path, exit_code: int, rusage, spawned: float):
        self.workdir = workdir
        self.exit_code = exit_code
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
        result = workdir / "result.json"
        self.record = json.loads(result.read_text()) if result.exists() else {}
        self.setup_s = self.record["ready"] - spawned if self.record else 0.0
        self.wall_s = self.record.get("wall_s", 0.0)
        self.stdout = workdir / "stdout.txt"

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and bool(self.record)


def invoke(
    workdir: Path,
    workload: str,
    seed: int,
    deadline: float,
    *,
    jobs: int = JOBS,
    trace: bool = False,
    setup_only: bool = False,
    cache: Optional[Path] = None,
) -> Invocation:
    """Run ``runner.py`` once in a fresh interpreter and wait for it.

    ``cache`` reuses a cache dir (a warm re-run); otherwise the child
    starts from a fresh, empty one under ``workdir``.  The child leads
    its own process group, which is killed at ``deadline``.
    """
    workdir.mkdir(parents=True)
    spec = dict(WORKLOADS[workload])
    spec.update(
        src=str(SRC),
        seed=seed,
        jobs=jobs,
        trace=trace,
        setup_only=setup_only,
        cache_dir=str(cache or workdir / "cache"),
        result=str(workdir / "result.json"),
    )
    (workdir / "spec.json").write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    with open(workdir / "stdout.txt", "wb") as out, open(
        workdir / "stderr.txt", "wb"
    ) as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), str(workdir / "spec.json")],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        # Wait without reaping, so the group id stays ours while the
        # group is killed: the child at the deadline, or strays it left.
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        while os.waitid(os.P_PID, proc.pid, flags) is None:
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _, raw, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(raw)
    return Invocation(workdir, proc.returncode, rusage, spawned)


# -- host speed -----------------------------------------------------------------


def calibration_unit() -> float:
    """Seconds for a fixed unit of interpreter-loop and numpy work.

    The program's hot paths are Python loops and numpy kernels, so this
    unit slows down with them when the shared host does.
    """
    import numpy as np

    started = time.perf_counter()
    table = list(range(1024))
    acc = 0
    for i in range(400_000):
        acc = (acc + table[(i * 31) & 1023] * (i & 7)) & 0xFFFFFF
    data = np.arange(1 << 18, dtype=np.int64)
    for _ in range(12):
        data = (data * 2654435761 + 7) & 0xFFFFF
        data.sort()
    return time.perf_counter() - started


class HostSpeed:
    """Calibration units timed around each child of one run.

    :attr:`factor` is the run's median unit time over the reference
    unit time: how much slower than the reference speed the host ran.
    End-to-end times are divided by it, so a host that slows down or
    speeds up for minutes at a time does not read as a program change.
    """

    def __init__(self) -> None:
        self.units: List[float] = []

    def sample(self) -> None:
        self.units += [calibration_unit() for _ in range(CALIBRATION_UNITS)]

    @property
    def factor(self) -> float:
        return median(self.units) / CALIBRATION_REFERENCE_S


# -- what an invocation left behind --------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def store_digest(cache: Path) -> str:
    """sha256 over the sorted result files ``<cache>/v1/<xx>/*.json``."""
    digest = hashlib.sha256()
    root = cache / "v1"
    for path in sorted(root.glob("*/*.json")):
        if path.parent.name == "history":
            continue
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def engine_stats(cache: Path) -> dict:
    path = cache / "engine-stats.json"
    return json.loads(path.read_text()) if path.exists() else {}


def journal_walls(cache: Path) -> List[float]:
    """Per-run wall seconds of the completed runs in the journal."""
    walls = []
    path = cache / "journal.jsonl"
    if path.exists():
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event.get("event") == "completed" and "wall_s" in event:
                walls.append(event["wall_s"])
    return walls


def tail_percentile(values: List[float]):
    """(pct, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    best = (50, ordered[len(ordered) // 2]) if ordered else (50, 0.0)
    for pct in (75, 90, 95, 99, 99.9):
        beyond = len(ordered) * (100 - pct) / 100
        if beyond < 10:
            break
        rank = min(len(ordered) - 1, int(len(ordered) * pct / 100))
        best = (pct, ordered[rank])
    return best


# -- checks ---------------------------------------------------------------------


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def cold_checks(inv: Invocation, workload: str, seed: int) -> List[str]:
    """Problems with a cold invocation (empty list: it is correct)."""
    if not inv.ok:
        return [f"exit {inv.exit_code} in {inv.workdir.name}"]
    problems = []
    stats = engine_stats(inv.workdir / "cache")
    if stats.get("failures", 1) or stats.get("quarantined", 1):
        problems.append(f"engine failures in {inv.workdir.name}")
    if seed == DEFAULT_SEED:
        expected = load_expected()[workload]
        for what, seen in (
            ("stdout_sha256", sha256_file(inv.stdout)),
            ("store_sha256", store_digest(inv.workdir / "cache")),
        ):
            if seen != expected[what]:
                problems.append(f"{what} {seen} differs in {inv.workdir.name}")
    return problems


def parity_checks(plain: Invocation, traced: Invocation) -> List[str]:
    """The serial traced run must reproduce the parallel run's bytes."""
    problems = []
    if sha256_file(plain.stdout) != sha256_file(traced.stdout):
        problems.append("traced jobs-1 stdout differs from the jobs-2 run")
    if store_digest(plain.workdir / "cache") != store_digest(traced.workdir / "cache"):
        problems.append("traced jobs-1 result store differs from the jobs-2 run")
    return problems


# -- the two kinds of run ---------------------------------------------------------


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, seed: int, seconds: float, work: Path, started: float):
    """Cold jobs-2 invocations for ``seconds``, each re-run warm, plus set-ups."""
    deadline = started + DEADLINE_S
    speed = HostSpeed()
    samples: List[dict] = []
    setups: List[float] = []
    problems: List[str] = []
    attempted = failed = 0
    while True:
        began = time.monotonic()
        attempted += 1
        speed.sample()
        cold = invoke(work / f"cold{attempted}", workload, seed, deadline)
        speed.sample()
        found = cold_checks(cold, workload, seed)
        cache = cold.workdir / "cache"
        if not found:
            stats = engine_stats(cache)
            sample = {
                "wall_s": cold.wall_s,
                "cpu_s": cold.cpu_s,
                "sim_minstr_per_s": stats["instructions"] / cold.wall_s / 1e6,
                "peak_rss_mb": cold.peak_rss_mb,
                "cache_mb": dir_bytes(cache) / 1e6,
                "setup_s": cold.setup_s,
            }
            # The stored results must reproduce the same tables.
            warm = invoke(
                work / f"warm{attempted}", workload, seed, deadline, cache=cache
            )
            speed.sample()
            if not warm.ok or engine_stats(cache).get("runs_launched") != 0:
                found.append(f"warm re-run failed: exit {warm.exit_code}")
            elif sha256_file(warm.stdout) != sha256_file(cold.stdout):
                found.append("warm re-run stdout differs from the cold run")
            else:
                samples.append(sample)
                setups += [cold.setup_s, warm.setup_s]
        shutil.rmtree(cache, ignore_errors=True)
        if found:
            failed += 1
            problems += found + [_stderr_tail(cold)]
        took = time.monotonic() - began
        if time.monotonic() - started + took > seconds:
            break
    for i in range(SETUP_SAMPLES):
        attempted += 1
        setup = invoke(work / f"setup{i}", workload, seed, deadline, setup_only=True)
        shutil.rmtree(setup.workdir / "cache", ignore_errors=True)
        if setup.ok:
            setups.append(setup.setup_s)
        else:
            failed += 1
            problems += [f"set-up exit {setup.exit_code}", _stderr_tail(setup)]
    speed.sample()
    factor = speed.factor
    # Host times at the reference host speed: seconds divided by the
    # run's slow-down factor, rates multiplied by it.
    metrics = {
        name: (median([s[name] for s in samples]) * scale, unit)
        for name, unit, scale in (
            ("wall_s", "s", 1 / factor),
            ("cpu_s", "s", 1 / factor),
            ("sim_minstr_per_s", "Minstr/s", factor),
            ("peak_rss_mb", "MB", 1),
            ("cache_mb", "MB", 1),
        )
    }
    metrics["setup_s"] = (median(setups) / factor, "s")
    metrics["pass_frac"] = ((attempted - failed) / attempted, "ratio")
    raw = {
        "cold": samples,
        "setup_s": setups,
        "calibration_units_s": speed.units,
        "host_factor": factor,
    }
    return metrics, attempted, failed, problems, raw, cold.record


def per_layer(workload: str, seed: int, work: Path, started: float):
    """One untraced jobs-2 invocation and one traced jobs-1 invocation."""
    deadline = started + DEADLINE_S
    plain = invoke(work / "untraced", workload, seed, deadline)
    plain_problems = cold_checks(plain, workload, seed)
    traced = invoke(work / "traced", workload, seed, deadline, jobs=1, trace=True)
    traced_problems = cold_checks(traced, workload, seed)
    if not plain_problems and not traced_problems:
        traced_problems = parity_checks(plain, traced)
    problems = plain_problems + traced_problems
    failed = bool(plain_problems) + bool(traced_problems)
    if plain.ok and traced.ok:
        metrics = layer_metrics(plain, traced)
        raw = {"trace": traced.record["trace"]}
    else:
        metrics = {name: (0.0, unit) for name, unit in PER_LAYER}
        raw = {}
        problems += [_stderr_tail(plain), _stderr_tail(traced)]
    for inv in (plain, traced):
        shutil.rmtree(inv.workdir / "cache", ignore_errors=True)
    return metrics, 2, failed, problems, raw, traced.record


#: Per-layer metric names and units, in report order.
PER_LAYER = [
    ("techniques.smarts.self_s", "s"),
    ("techniques.smarts.calls", "count"),
    ("cpu.detailed_small_s", "s"),
    ("cpu.detailed_small_minstr_per_s", "Minstr/s"),
    ("cpu.warming_small_s", "s"),
    ("cpu.warming_small_minstr_per_s", "Minstr/s"),
    ("techniques.simpoint.select_s", "s"),
    ("techniques.simpoint.kmeans_s", "s"),
    ("techniques.simpoint.kmeans_calls", "count"),
    ("techniques.simpoint.self_s", "s"),
    ("cpu.detailed_large_s", "s"),
    ("cpu.detailed_large_minstr_per_s", "Minstr/s"),
    ("cpu.warming_large_s", "s"),
    ("cpu.warming_large_minstr_per_s", "Minstr/s"),
    ("cpu.batch_s", "s"),
    ("cpu.batch_rows", "count"),
    ("cpu.batch_minstr_per_s", "Minstr/s"),
    ("cpu.sim_self_s", "s"),
    ("engine.self_s", "s"),
    ("engine.plan_s", "s"),
    ("engine.store_put_s", "s"),
    ("engine.store_puts", "count"),
    ("engine.util", "ratio"),
    ("engine.run_wall_p50_ms", "ms"),
    ("engine.run_wall_tail_ms", "ms"),
    ("engine.run_wall_tail_pct", "pct"),
    ("engine.runs_journaled", "count"),
    ("engine.runs_launched", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("engine.batches", "count"),
    ("engine.batched_runs", "count"),
    ("engine.retries", "count"),
    ("engine.failures", "count"),
    ("engine.degradations", "count"),
    ("cpu.checkpoint_hits", "count"),
    ("cpu.checkpoint_hit_ratio", "ratio"),
    ("workloads.trace_store_hits", "count"),
    ("workloads.trace_store_misses", "count"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_calls", "count"),
    ("characterization.self_s", "s"),
    ("analysis.self_s", "s"),
    ("experiments.self_s", "s"),
    ("obs.history_append_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.coverage", "ratio"),
]


def layer_metrics(plain: Invocation, traced: Invocation) -> Dict[str, tuple]:
    trace = traced.record["trace"]
    spans = trace["spans"]
    wall = trace["wall_s"]
    sides = {(name, small): cell for name, small, *cell in trace["sides"]}

    def total(prefix: str, field: str) -> float:
        return sum(s[field] for n, s in spans.items() if n.startswith(prefix))

    def side(name: str, small: bool):
        calls, instructions, seconds = sides.get((name, small), (0, 0, 0.0))
        return seconds, instructions / seconds / 1e6 if seconds else 0.0

    stats = engine_stats(plain.workdir / "cache")
    walls = journal_walls(plain.workdir / "cache")
    tail_pct, tail = tail_percentile(walls)
    checkpoints = stats["checkpoint_hits"] + stats["checkpoint_misses"]
    batch_s = total("cpu.advance_detailed_batch", "total_s")
    values = {
        "techniques.smarts.self_s": total("techniques.SmartsTechnique.", "self_s"),
        "techniques.smarts.calls": total("techniques.SmartsTechnique.", "calls"),
        "techniques.simpoint.select_s": total("techniques.SimPointTechnique.select", "total_s"),
        "techniques.simpoint.kmeans_s": (
            total("techniques.simpoint.kmeans", "outer_s")
            + total("techniques.simpoint.pick_k", "outer_s")
        ),
        "techniques.simpoint.kmeans_calls": total("techniques.simpoint.kmeans", "calls"),
        "techniques.simpoint.self_s": total("techniques.SimPointTechnique.", "self_s"),
        "cpu.batch_s": batch_s,
        "cpu.batch_rows": total("cpu.advance_detailed_batch", "rows"),
        "cpu.batch_minstr_per_s": (
            total("cpu.advance_detailed_batch", "instructions") / batch_s / 1e6
            if batch_s else 0.0
        ),
        "cpu.sim_self_s": total("cpu.Simulator.", "self_s"),
        "engine.self_s": total("engine.Engine.run_many", "self_s"),
        "engine.plan_s": total("engine.Plan.build", "total_s"),
        "engine.store_put_s": total("engine.ResultStore.put", "total_s"),
        "engine.store_puts": total("engine.ResultStore.put", "calls"),
        "engine.util": plain.cpu_s / (JOBS * plain.wall_s),
        "engine.run_wall_p50_ms": median(walls) * 1e3,
        "engine.run_wall_tail_ms": tail * 1e3,
        "engine.run_wall_tail_pct": tail_pct,
        "engine.runs_journaled": len(walls),
        "engine.runs_launched": stats["runs_launched"],
        "engine.dedup_ratio": stats["runs_launched"] / stats["runs_requested"],
        "engine.batches": stats["batches"],
        "engine.batched_runs": stats["batched_runs"],
        "engine.retries": stats["retries"],
        "engine.failures": stats["failures"],
        "engine.degradations": stats["degradations"],
        "cpu.checkpoint_hits": stats["checkpoint_hits"],
        "cpu.checkpoint_hit_ratio": (
            stats["checkpoint_hits"] / checkpoints if checkpoints else 0.0
        ),
        "workloads.trace_store_hits": stats["trace_cache_hits"],
        "workloads.trace_store_misses": stats["trace_cache_misses"],
        "workloads.trace_s": total("workloads.", "outer_s"),
        "workloads.trace_calls": total("workloads.Workload.trace", "calls"),
        "characterization.self_s": total("characterization.", "self_s"),
        "analysis.self_s": total("analysis.", "self_s"),
        "experiments.self_s": total("experiments.", "self_s"),
        "obs.history_append_s": total("obs.history.append", "total_s"),
        "bench.trace_overhead": (
            (trace["calls"] - trace["sized_calls"]) * trace["per_call_s"][0]
            + trace["sized_calls"] * trace["per_call_s"][1]
        ) / wall,
        "bench.coverage": (
            sum(s["self_s"] for n, s in spans.items() if not n.startswith("experiments."))
            / wall
        ),
    }
    for kind, name in (("detailed", "cpu.advance_detailed"), ("warming", "cpu.run_warming")):
        for small, size in ((True, "small"), (False, "large")):
            seconds, rate = side(name, small)
            values[f"cpu.{kind}_{size}_s"] = seconds
            values[f"cpu.{kind}_{size}_minstr_per_s"] = rate
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _stderr_tail(inv: Invocation, limit: int = 2000) -> str:
    path = inv.workdir / "stderr.txt"
    text = path.read_text(errors="replace") if path.exists() else ""
    return f"{inv.workdir.name} stderr: {text[-limit:]}"


# -- the record -----------------------------------------------------------------


def fingerprint(child: dict, loadavg) -> dict:
    """Machine and build identity stored with every result record."""

    def version(package: str) -> Optional[str]:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": child.get("backend"),
        "numba_imports": child.get("numba"),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "loadavg_start": list(loadavg),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    started = time.monotonic()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    work = STATE / "work" / f"{args.workload}-{stamp}-{os.getpid()}"
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, work, started)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, problems, raw, child = result
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp,
        "elapsed_s": time.monotonic() - started,
        "fingerprint": fingerprint(child, loadavg),
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": raw,
    }
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (records / name).write_text(json.dumps(record, indent=1))

    import report

    report.print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
