"""Reproduction of Mantle (SOSP 2025).

Mantle is a hierarchical metadata service for cloud object storage services
(COSSs).  This package implements the full system described in the paper —
the sharded TafDB metadata database, the Raft-replicated per-namespace
IndexNode with its TopDirPathCache and Invalidator, the proxy orchestration
layer — together with the three baselines the paper compares against
(Tectonic, InfiniFS and LocoFS), all running over a from-scratch
discrete-event cluster simulator.

Quickstart::

    from repro import MantleClient, MantleConfig

    with MantleClient(MantleConfig.small()) as client:
        client.mkdir("/datasets/audio/raw", parents=True)
        client.create("/datasets/audio/raw/seg-000.bin")
        print(client.objstat("/datasets/audio/raw/seg-000.bin"))

Operations dispatch through the typed registry in :mod:`repro.ops`; mutating
calls return :class:`~repro.types.OpResult` and span tracing
(:mod:`repro.sim.trace`, ``MANTLE_TRACE=1`` or a tracer on the simulator)
records a hierarchical trace of everything the cluster did.

See ``DESIGN.md`` for the system inventory, ``EXPERIMENTS.md`` for the
paper-versus-measured record of every reproduced table and figure, and
``docs/observability.md`` for the tracing layer.
"""

import importlib

__version__ = "1.1.0"

#: Each public name -> the module that defines it.  They resolve on first
#: use (PEP 562), so importing one subsystem (``repro.runtime.serve``, a
#: live role) does not load the client API or every baseline behind it.
_EXPORTS = {
    "MantleClient": "repro.core.api",
    "BatchResult": "repro.core.api",
    "MantleConfig": "repro.core.config",
    "Op": "repro.ops",
    "OP_NAMES": "repro.ops",
    "make_op": "repro.ops",
    "OpResult": "repro.types",
    "StatResult": "repro.types",
    **{name: "repro.errors" for name in (
        "MetadataError", "NoSuchPathError", "AlreadyExistsError",
        "NotADirectoryError", "NotEmptyError", "PermissionDeniedError",
        "RenameLoopError", "TransactionAbort")},
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
