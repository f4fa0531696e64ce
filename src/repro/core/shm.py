"""Shared-memory array bundles: create once, attach everywhere.

The scale-out layers — multi-process serving (:mod:`repro.serve.workers`)
and data-parallel training (:mod:`repro.train.parallel`) — both move
numpy arrays between processes through ``multiprocessing.shared_memory``
segments.  This module holds the one copy of the leak-free lifecycle
machinery they share:

* :class:`SharedArrays` — one segment holding named arrays, 64-byte
  aligned, written once at creation.  The *owner* (the process that
  called :meth:`SharedArrays.create`) is the only one allowed to
  ``unlink()`` the segment, exactly once; every other process only ever
  :meth:`~SharedArrays.attach`\\ es by name and ``close()``\\ s its
  mapping.  Views are read-only by default so a stray write in a
  consumer raises instead of corrupting shared state; producers opt in
  with ``writeable=True`` (training workers publishing gradients).
* :func:`adopt_parameters` — point a model's parameters at shared views
  zero-copy (``Module.load_state_dict`` copies; assigning ``param.data``
  is the adoption point).

Segment names embed the creating pid, a process-local counter and a
random suffix, so concurrent runs on one host never collide.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing.shared_memory import SharedMemory

import numpy as np

__all__ = ["SharedArrays", "adopt_parameters", "allocate_segment"]

_segment_counter = itertools.count()


def allocate_segment(
    arrays: dict[str, np.ndarray], name_prefix: str = "repro-shm"
) -> tuple[SharedMemory, dict[str, tuple]]:
    """Lay ``arrays`` out in a fresh segment and write each one once.

    Every array is 64-byte aligned (cache-line friendly, and SIMD loads
    never straddle an entry boundary).  Returns the segment and the
    layout table ``name -> (offset, shape, dtype.str)`` that
    :meth:`SharedArrays.attach` needs to map it elsewhere.
    """
    entries: dict[str, tuple] = {}
    offset = 0
    contiguous = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = (offset + 63) // 64 * 64  # 64-byte align every array
        entries[name] = (offset, array.shape, array.dtype.str)
        contiguous[name] = array
        offset += array.nbytes
    shm = SharedMemory(
        name=f"{name_prefix}-{os.getpid()}-{next(_segment_counter)}-"
             f"{os.urandom(3).hex()}",
        create=True,
        size=max(offset, 1),
    )
    for name, array in contiguous.items():
        start = entries[name][0]
        staging = np.ndarray(
            array.shape, dtype=array.dtype, buffer=shm.buf, offset=start
        )
        staging[...] = array
        del staging  # release the writable view before exposing
    return shm, entries


class SharedArrays:
    """One shared-memory segment holding arrays by name.

    The creating process builds it with :meth:`create` (the caller owns
    the segment and must eventually :meth:`unlink` it); consumers
    :meth:`attach` from the picklable :meth:`meta` handle and read
    through :attr:`views` — ndarrays backed directly by the segment, so
    attaching costs pages, not copies.  ``writeable`` controls this
    process's view flags only; the segment itself carries no
    protection, so the convention is enforced here: leave consumers
    read-only unless they are the designated producer for the segment.
    """

    def __init__(self, shm: SharedMemory, entries: dict, owner: bool,
                 writeable: bool) -> None:
        self.shm = shm
        self.entries = entries
        self.owner = owner
        self.views: dict[str, np.ndarray] = {}
        for name, (offset, shape, dtype) in entries.items():
            view = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf,
                offset=offset,
            )
            view.flags.writeable = bool(writeable)
            self.views[name] = view

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray],
               name_prefix: str = "repro-shm",
               writeable: bool = False) -> "SharedArrays":
        """Publish ``arrays`` into a fresh segment (the caller owns it)."""
        shm, entries = allocate_segment(arrays, name_prefix)
        return cls(shm, entries, owner=True, writeable=writeable)

    def meta(self) -> dict:
        """Picklable attachment handle (segment name + layout)."""
        return {"name": self.shm.name, "entries": self.entries}

    @classmethod
    def attach(cls, meta: dict, writeable: bool = False) -> "SharedArrays":
        """Map an existing segment created by another process."""
        shm = SharedMemory(name=meta["name"])
        return cls(shm, meta["entries"], owner=False, writeable=writeable)

    @property
    def payload_bytes(self) -> int:
        """Bytes of actual array data (alignment padding excluded)."""
        return sum(view.nbytes for view in self.views.values())

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self.views = {}
        try:
            self.shm.close()
        except BufferError:
            # Some ndarray view (an old index, a cached row) still pins
            # the buffer; the mapping is released when it dies and the
            # fd at process exit — never an error worth crashing over.
            pass

    def unlink(self) -> None:
        """Destroy the segment (parent/owner only, exactly once)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def adopt_parameters(model, views: dict[str, np.ndarray]) -> None:
    """Point every model parameter at its shared view, zero-copy.

    ``Module.load_state_dict`` copies; assigning ``param.data`` directly
    is the zero-copy adoption point.  Shapes and dtypes must match the
    model exactly — the segment was written from the same architecture's
    ``state_dict``, so a mismatch means a wiring bug, not bad input.
    """
    for name, param in model.named_parameters():
        view = views.get(name)
        if view is None:
            raise KeyError(f"shared segment is missing parameter {name!r}")
        data = np.asarray(param.data)
        if view.shape != data.shape or view.dtype != data.dtype:
            raise ValueError(
                f"shared parameter {name!r} is {view.shape} {view.dtype} "
                f"but the model expects {data.shape} {data.dtype}"
            )
        param.data = view
