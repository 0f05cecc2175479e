"""Backend registry: pluggable simulation kernels.

Three backends share one contract -- bit-identical statistics:

* ``python``  -- the reference per-instruction interpreter loops over
  per-set Python-list structures (:mod:`repro.cpu.pipeline`,
  :mod:`repro.cpu.functional`);
* ``numpy``   -- flat-list state, vectorized functional warming and a
  split-phase detailed model (resolve caches/predictors over
  pre-filtered indices, then run a lean timing loop);
* ``numba``   -- numpy's structures, resolve passes, warming and
  sampled runs, with detailed timing on the compiled batch timing
  kernel (a single run is a batch of one); auto-detected, optional.

Selection follows the engine convention: explicit argument > the
``REPRO_BACKEND`` environment variable > default (the fastest available
backend).  Requesting ``numba`` without numba installed degrades
gracefully to ``numpy`` with a warning rather than failing.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Union

#: Environment variable consulted when no explicit backend is given
#: (flag > env > default, as for the PR-1 engine options).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Recognized backend names (``auto`` resolves to the default).
BACKEND_NAMES = ("python", "numpy", "numba")

#: Regions shorter than this are simulated with the reference loops
#: even on array backends: the vectorized set-up cost only pays off on
#: long regions, and both paths produce identical statistics.
SMALL_REGION = 1024

#: Degradation order for kernel failures: a run whose kernel raises is
#: retried one tier down.  All tiers produce bit-identical statistics,
#: so the substitution is invisible in the results (only slower); the
#: ``python`` reference has no tier below it.
KERNEL_FALLBACK: Dict[str, str] = {"numba": "numpy", "numpy": "python"}


class KernelError(RuntimeError):
    """A failure raised from inside a simulation kernel.

    Tagged with the backend it came from so the engine's supervisor can
    retry the run one tier down (:data:`KERNEL_FALLBACK`) instead of
    burning its retry budget on a broken accelerator path.
    """

    def __init__(self, backend: str, message: str) -> None:
        super().__init__(message)
        self.backend = backend

    @property
    def fallback(self) -> Optional[str]:
        return KERNEL_FALLBACK.get(self.backend)

    def __reduce__(self):  # survives pickling back from pool workers
        return (KernelError, (self.backend, str(self)))


_faults = None


def _kernel_guard_check(backend_name: str) -> None:
    """Fault-injection hook: raise if a kernel fault is planned for the
    active run on this backend (no-op when no plan is armed)."""
    global _faults
    if _faults is None:
        from repro.engine import faults  # deferred: avoids a cpu<->engine cycle

        _faults = faults
    _faults.kernel_check(backend_name)


def numba_available() -> bool:
    """Whether the numba JIT compiler can be imported."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def default_backend_name() -> str:
    """The fastest backend available on this interpreter."""
    return "numba" if numba_available() else "numpy"


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: argument > ``$REPRO_BACKEND`` > default."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or "auto"
    name = name.strip().lower()
    if name == "auto":
        return default_backend_name()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {BACKEND_NAMES + ('auto',)}"
        )
    if name == "numba" and not numba_available():
        warnings.warn(
            "numba requested but not installed; falling back to the "
            "numpy backend (statistics are identical)",
            RuntimeWarning,
            stacklevel=2,
        )
        return "numpy"
    return name


class Backend:
    """One simulation backend: structure set plus kernel entry points."""

    #: Subclasses set this.
    name = "abstract"

    #: Whether :meth:`advance_detailed_batch` is implemented.  Callers
    #: (``Simulator.run_regions``, the engine's batching pass) consult
    #: this and fall back to per-config runs when it is False.
    supports_config_batching = False

    def build_structures(self, config, enhancements) -> Optional[Dict[str, object]]:
        """Flat structures for a Machine, or None for the reference set."""
        return None

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        """Advance the detailed timing model over ``trace[start:end)``."""
        raise NotImplementedError

    def advance_detailed_batch(
        self, machine, trace, start, end, batch, states
    ) -> None:
        """Advance N latency configs sharing ``machine``'s structures.

        ``batch`` is a list of ``(config, enhancements)`` pairs and
        ``states`` the matching per-config timing states.  Bit-identical
        per config to N separate :meth:`advance_detailed` runs.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support config batching"
        )

    def run_warming(self, machine, trace, start, end):
        """Functionally warm ``trace[start:end)``; returns WarmingStats."""
        raise NotImplementedError

    def run_sampled(self, machine, trace, units, checkpoint_key=None):
        """Run a sampled schedule over the whole trace on ``machine``.

        ``units`` lists ``(warm_start, sample_start, anchor)`` in trace
        order: ``[warm_start, anchor)`` is simulated in detail on a
        fresh timing state and measured from ``sample_start``; every
        gap between units (and the tail) is functionally warmed, the
        cold prefix checkpoint-assisted.  Returns the per-unit measured
        statistics and the summed WarmingStats of the warming segments.

        This default is the per-segment reference loop: one warming
        call per gap and one ``run_detailed`` per unit.  The ``python``
        backend runs it; ``numpy`` (and ``numba``, which inherits it)
        overrides it with one structural pass per schedule, falling
        back here only for next-line-prefetch configs.
        """
        from repro.cpu.functional import (
            WarmingStats,
            run_functional_warming,
            warm_prefix,
        )
        from repro.cpu.pipeline import run_detailed

        warming = WarmingStats()
        parts = []
        position = 0
        for warm_start, sample_start, anchor in units:
            if warm_start > position:
                if position == 0:
                    # Cold prefix: checkpoint-assisted (bit-identical).
                    warming.merge(
                        warm_prefix(
                            machine, trace, warm_start,
                            checkpoint_key=checkpoint_key,
                        )
                    )
                else:
                    warming.merge(
                        run_functional_warming(machine, trace, position, warm_start)
                    )
            parts.append(
                run_detailed(
                    machine, trace, warm_start, anchor, measure_from=sample_start
                )
            )
            position = anchor
        if position < len(trace):
            warming.merge(
                run_functional_warming(machine, trace, position, len(trace))
            )
        return parts, warming

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name}>"


class PythonBackend(Backend):
    """The reference interpreter loops over Python-list structures."""

    name = "python"

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        from repro.cpu.pipeline import _run_region

        _run_region(machine, trace, start, end, state)

    def run_warming(self, machine, trace, start, end):
        from repro.cpu.functional import _python_warming

        return _python_warming(machine, trace, start, end)


class NumpyBackend(Backend):
    """Flat-list state + vectorized warming + split-phase timing.

    Kernel dispatch is guarded: a failure inside the kernels surfaces
    as :class:`KernelError` so the engine can degrade to ``python``.
    """

    name = "numpy"
    supports_config_batching = True

    def build_structures(self, config, enhancements):
        from repro.cpu.kernels.state import build_structures

        return build_structures(config, enhancements)

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        try:
            _kernel_guard_check(self.name)
            if end - start < SMALL_REGION:
                from repro.cpu.pipeline import _run_region

                _run_region(machine, trace, start, end, state)
                return
            from repro.cpu.kernels.numpy_impl import advance_detailed

            advance_detailed(machine, trace, start, end, state)
        except Exception as exc:
            raise KernelError(self.name, f"detailed kernel failed: {exc!r}") from exc

    def advance_detailed_batch(self, machine, trace, start, end, batch, states):
        try:
            _kernel_guard_check(self.name)
            from repro.cpu.kernels.numpy_impl import advance_detailed_batch

            advance_detailed_batch(machine, trace, start, end, batch, states)
        except Exception as exc:
            raise KernelError(
                self.name, f"batched detailed kernel failed: {exc!r}"
            ) from exc

    def run_warming(self, machine, trace, start, end):
        try:
            _kernel_guard_check(self.name)
            if end - start < SMALL_REGION:
                from repro.cpu.functional import _python_warming

                return _python_warming(machine, trace, start, end)
            from repro.cpu.kernels.numpy_impl import run_warming

            return run_warming(machine, trace, start, end)
        except Exception as exc:
            raise KernelError(self.name, f"warming kernel failed: {exc!r}") from exc

    def run_sampled(self, machine, trace, units, checkpoint_key=None):
        # Next-line prefetch resolves its caches serially, so it keeps
        # the per-segment loop; everything else is one structural pass.
        if not units or machine.enhancements.next_line_prefetch:
            return super().run_sampled(machine, trace, units, checkpoint_key)
        try:
            _kernel_guard_check(self.name)
            from repro.cpu.kernels.numpy_impl import run_sampled

            return run_sampled(machine, trace, units, checkpoint_key)
        except Exception as exc:
            raise KernelError(self.name, f"sampled kernel failed: {exc!r}") from exc


class NumbaBackend(NumpyBackend):
    """Numpy's structures and resolve passes plus the compiled batch
    timing kernel (:mod:`repro.cpu.kernels.batch_impl`).

    A single run is the batch kernel at N=1; short regions and
    next-line-prefetch configs (which the batch kernel rejects) keep
    the inherited numpy path.  Everything else -- warming, sampled
    runs -- is inherited and tagged with this backend's name, so a
    :class:`KernelError` degrades one tier to ``numpy``.
    """

    name = "numba"

    def advance_detailed(self, machine, trace, start, end, state) -> None:
        if end - start < SMALL_REGION or machine.enhancements.next_line_prefetch:
            super().advance_detailed(machine, trace, start, end, state)
            return
        self.advance_detailed_batch(
            machine, trace, start, end,
            [(machine.config, machine.enhancements)], [state],
        )

    def advance_detailed_batch(self, machine, trace, start, end, batch, states):
        # One ``prange`` launch over the config dimension, bit-identical
        # to the sequential per-config loops.
        try:
            _kernel_guard_check(self.name)
            from repro.cpu.kernels.batch_impl import advance_detailed_batch

            advance_detailed_batch(machine, trace, start, end, batch, states)
        except Exception as exc:
            raise KernelError(
                self.name, f"batched detailed kernel failed: {exc!r}"
            ) from exc


_BACKENDS: Dict[str, Backend] = {}


def get_backend(name: Union[str, Backend, None] = None) -> Backend:
    """The backend instance for ``name`` (resolving flag > env > default)."""
    if isinstance(name, Backend):
        return name
    resolved = resolve_backend_name(name)
    backend = _BACKENDS.get(resolved)
    if backend is None:
        backend = {
            "python": PythonBackend,
            "numpy": NumpyBackend,
            "numba": NumbaBackend,
        }[resolved]()
        _BACKENDS[resolved] = backend
    return backend


def available_backends() -> tuple:
    """Names of the backends usable on this interpreter."""
    names = ["python", "numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)
