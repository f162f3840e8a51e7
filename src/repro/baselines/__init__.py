"""Baseline metadata services the paper compares against (§6.1).

Faithful re-implementations, as the paper itself did ("we re-implement them
faithfully since they are not public"):

* :mod:`~repro.baselines.tectonic` — the DBtable approach: level-by-level
  path resolution over sharded tables, relaxed consistency for directory
  updates (no distributed transactions);
* :mod:`~repro.baselines.infinifs` — speculative parallel path resolution,
  AM-Cache metadata caching, CFS-style two-transaction directory updates and
  a dedicated rename coordinator;
* :mod:`~repro.baselines.locofs` — tiered design: a central directory
  metadata server (Raft-replicated) plus a scalable object-metadata DB.

All of them implement :class:`repro.baselines.base.MetadataSystem`, the same
interface Mantle exposes, so workloads and benchmarks are system-agnostic.
"""

import importlib

#: Each system -> its module, imported on first use (PEP 562): a live role
#: needs ``baselines.base`` only, not the three baselines' code.
_EXPORTS = {
    "MetadataSystem": "repro.baselines.base",
    "TectonicSystem": "repro.baselines.tectonic",
    "InfiniFSSystem": "repro.baselines.infinifs",
    "LocoFSSystem": "repro.baselines.locofs",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
