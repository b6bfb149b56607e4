"""Optional numpy acceleration underneath the pure-Python kernels.

The survey's fastest indexes (TC bitsets, 2-hop label merges, O'Reach's
batched observations, PReaCH's contraction-order sweeps) all assume
machine-word-parallel set operations.  The pure-Python kernels emulate
those with big-int words — correct, portable, but interpreter-bound.
This package drops an array-backed layer underneath the same kernel API:

* :mod:`repro.accel.arrays` — :class:`CSRArrays`, numpy ``int64``
  offset/index arrays frozen from a CSR snapshot, with the cached DAG
  level schedule the sweeps run over;
* :mod:`repro.accel.bitset` — the two kernels that never materialise
  big ints and therefore win: the packed ``uint64[n_vertices, n_words]``
  batched pair sweep behind :func:`repro.kernels.batch_reachable`
  (level-synchronous on DAGs, frontier-synchronous on cyclic
  snapshots) and the ``unpackbits`` decode of one closure row behind
  TC's enumeration.

**The pure-Python path stays authoritative.**  Selection is runtime
detected (:func:`available`), every accelerated kernel is differential
tested against its pure-Python twin and ships only with a
``bench_accel`` row showing it beats that twin on the condition that
dispatches to it, and two switches force the fallback: the
``REPRO_ACCEL=0`` environment kill switch and :func:`set_backend`
(``"python"`` | ``"numpy"`` | ``"auto"``).  Nothing in this library
imports numpy unconditionally — without it, every entry point silently
keeps its original behaviour.
"""

from __future__ import annotations

import os

__all__ = [
    "MIN_VERTICES",
    "available",
    "backend_name",
    "describe",
    "enabled",
    "backend_labels",
    "kill_switch_engaged",
    "set_backend",
    "use_for_graph",
]

#: Below this many vertices the numpy kernels rarely beat the
#: interpreter (fixed per-call array setup dominates); ``auto`` keeps
#: the pure-Python path.  ``set_backend("numpy")`` overrides.
MIN_VERTICES = 512

#: The environment kill switch: any of these values disables the layer
#: no matter what :func:`set_backend` chose.
_KILL_VALUES = frozenset({"0", "false", "off", "no"})

_backend = "auto"  # "auto" | "python" | "numpy" (set_backend)
_numpy_module: object | None = None
_numpy_checked = False


def _numpy() -> object | None:
    """The numpy module, imported once, or None when unavailable."""
    global _numpy_module, _numpy_checked
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy_module = numpy
        _numpy_checked = True
    return _numpy_module


def available() -> bool:
    """Whether numpy is importable in this interpreter."""
    return _numpy() is not None


def kill_switch_engaged() -> bool:
    """Whether ``REPRO_ACCEL`` disables the layer (checked per call)."""
    return os.environ.get("REPRO_ACCEL", "").strip().lower() in _KILL_VALUES


def set_backend(name: str) -> None:
    """Select the kernel backend: ``"auto"``, ``"python"`` or ``"numpy"``.

    ``"python"`` forces the authoritative pure-Python kernels;
    ``"numpy"`` forces the accelerated kernels even below the size
    thresholds (differential tests use this); ``"auto"`` (the default)
    picks numpy when available and the input is large enough.  Forcing
    ``"numpy"`` without numpy installed raises ``ValueError`` so a
    misconfigured deployment fails loudly instead of silently running
    slow.  The ``REPRO_ACCEL=0`` kill switch overrides any choice.
    """
    global _backend
    if name not in ("auto", "python", "numpy"):
        raise ValueError(
            f"backend must be 'auto', 'python' or 'numpy', got {name!r}"
        )
    if name == "numpy" and not available():
        raise ValueError("backend 'numpy' requested but numpy is not installed")
    _backend = name


def enabled() -> bool:
    """Whether accelerated kernels may be selected at all right now."""
    if kill_switch_engaged() or _backend == "python":
        return False
    return available()


def backend_name() -> str:
    """The kernel layer answering large inputs: ``"numpy"`` or ``"python"``.

    This is the provenance string stamped into size/build reports and
    ``BENCH_*.json`` envelopes, so benchmark numbers always identify the
    layer that produced them.
    """
    return "numpy" if enabled() else "python"


def use_for_graph(num_vertices: int) -> bool:
    """Whether a graph kernel over ``num_vertices`` should take the numpy path."""
    if not enabled():
        return False
    return _backend == "numpy" or num_vertices >= MIN_VERTICES


def backend_labels() -> dict[str, str]:
    """The backend identity as flat string labels for metric exposition.

    The OpenMetrics ``repro_accel_info`` gauge carries these, so every
    scrape records which kernel layer produced the latencies next to it.
    """
    numpy = _numpy()
    return {
        "backend": backend_name(),
        "selection": _backend,
        "kill_switch": "1" if kill_switch_engaged() else "0",
        "numpy_version": getattr(numpy, "__version__", None) or "absent",
    }


def describe() -> dict[str, object]:
    """A JSON-friendly status snapshot (the ``repro accel`` CLI payload)."""
    numpy = _numpy()
    return {
        "available": available(),
        "enabled": enabled(),
        "backend": backend_name(),
        "selection": _backend,
        "kill_switch": kill_switch_engaged(),
        "numpy_version": getattr(numpy, "__version__", None),
        "min_vertices": MIN_VERTICES,
    }
