"""Packed result transport for fault responses crossing the fork pool.

The worker pool used to ship ``FaultResponse`` objects back to the parent
as pickled per-cell dicts of small numpy vectors — thousands of tiny
objects per chunk, each paying full pickle overhead (``pool.pickle_s``
made the cost visible).  This module packs a chunk's responses into a
handful of flat arrays plus **one** contiguous ``(total_cells, words)``
``uint64`` error matrix, which pickles as a single buffer copy; with
``REPRO_SHM`` (default on) matrices above a size threshold bypass the
result pipe entirely through a ``multiprocessing.shared_memory`` segment
created by the child and drained + unlinked by the parent.

The codec is lossless: ``unpack_response_chunk(pack_response_chunk(x))``
rebuilds bit-identical responses (fault objects, cell ids, error vectors,
pattern counts), so forked results stay bit-identical to the serial loop.
Chunk items may be bare ``FaultResponse`` objects or lists of them (the
fault-batched kernel returns one list per batch).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Sequence

import numpy as np

from ..parallel import Codec
from ..telemetry import log

#: Error matrices at or above this many bytes ride shared memory instead
#: of the result pipe (when available and not disabled via REPRO_SHM=0).
SHM_MIN_BYTES = 1 << 20


def shm_enabled() -> bool:
    return os.environ.get("REPRO_SHM", "1").strip() != "0"


def pack_response_chunk(items: Sequence[Any]) -> Dict[str, Any]:
    """Encode a chunk of responses (or per-batch response lists)."""
    from .faultsim import FaultResponse

    shapes: List[int] = []
    flat: List[FaultResponse] = []
    for item in items:
        if isinstance(item, FaultResponse):
            shapes.append(-1)
            flat.append(item)
        else:
            shapes.append(len(item))
            flat.extend(item)
    cell_counts = np.array([len(r.cell_errors) for r in flat], dtype=np.int64)
    pattern_counts = np.array([r.num_patterns for r in flat], dtype=np.int64)
    cells = np.array(
        [c for r in flat for c in r.cell_errors], dtype=np.int64
    )
    words = max((vec.shape[0] for r in flat for vec in r.cell_errors.values()),
                default=0)
    matrix = np.empty((len(cells), words), dtype=np.uint64)
    row = 0
    for response in flat:
        for vec in response.cell_errors.values():
            matrix[row] = vec
            row += 1
    payload: Dict[str, Any] = {
        "kind": "fault-responses",
        "shapes": shapes,
        "faults": [r.fault for r in flat],
        "cell_counts": cell_counts,
        "pattern_counts": pattern_counts,
        "cells": cells,
        "words": words,
    }
    payload.update(_ship_matrix(matrix))
    return payload


def unpack_response_chunk(payload: Dict[str, Any]) -> List[Any]:
    """Decode :func:`pack_response_chunk`'s payload back into chunk items."""
    from .faultsim import FaultResponse

    matrix = _receive_matrix(payload)
    cells = payload["cells"]
    flat: List[FaultResponse] = []
    row = 0
    for fault, count, num_patterns in zip(
        payload["faults"], payload["cell_counts"], payload["pattern_counts"]
    ):
        cell_errors = {
            int(cells[row + j]): matrix[row + j] for j in range(int(count))
        }
        row += int(count)
        flat.append(FaultResponse(fault, cell_errors, int(num_patterns)))
    items: List[Any] = []
    pos = 0
    for shape in payload["shapes"]:
        if shape < 0:
            items.append(flat[pos])
            pos += 1
        else:
            items.append(flat[pos:pos + shape])
            pos += shape
    return items


def payload_nbytes(payload: Dict[str, Any]) -> int:
    """Approximate wire size of an encoded payload (numpy buffers dominate;
    a shared-memory matrix costs the pipe nothing but is still counted as
    transported data so the metric tracks bytes moved, not bytes piped)."""
    total = 0
    for value in payload.values():
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
        elif isinstance(value, (list, tuple)):
            total += 32 * len(value)
        else:
            total += 32
    if "shm_shape" in payload:
        total += int(np.prod(payload["shm_shape"])) * 8
    return total


# -- shared-memory shipping ---------------------------------------------------


def _ship_matrix(matrix: np.ndarray) -> Dict[str, Any]:
    """Package the error matrix for the pipe: inline for small payloads,
    shared memory for big ones (child side).

    The child *creates and detaches* the segment (unregistering it from
    its resource tracker so the tracker does not race the parent's
    unlink); the parent drains and unlinks it in :func:`_receive_matrix`.
    Any failure falls back to the inline array.
    """
    if matrix.nbytes >= SHM_MIN_BYTES and shm_enabled():
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=matrix.nbytes)
            view = np.ndarray(matrix.shape, dtype=matrix.dtype, buffer=shm.buf)
            view[:] = matrix
            del view
            name = shm.name
            _untrack(name)
            shm.close()
            return {
                "shm": name,
                "shm_shape": tuple(matrix.shape),
                "shm_dtype": str(matrix.dtype),
            }
        except Exception as exc:  # noqa: BLE001 - transport must not fail work
            log(f"transport: shared-memory ship failed ({exc!r}); "
                "falling back to inline array")
    return {"matrix": matrix}


def _receive_matrix(payload: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`_ship_matrix` (parent side): attach, copy out,
    close and unlink."""
    if "matrix" in payload:
        return payload["matrix"]
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=payload["shm"])
    try:
        matrix = np.ndarray(
            payload["shm_shape"],
            dtype=np.dtype(payload["shm_dtype"]),
            buffer=shm.buf,
        ).copy()
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-drain race
            pass
    return matrix


def _untrack(name: str) -> None:
    """Unregister a segment from this process's resource tracker.

    The parent owns cleanup (it unlinks after draining); without this the
    child's tracker would try to unlink the same segment at exit and log
    leak warnings.  Private API, so failures are ignored — the worst case
    is a harmless warning, never a leak.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:  # noqa: BLE001
        pass


#: The codec :func:`repro.parallel.parallel_map` uses for fault-response
#: populations (one packed chunk per fault batch).
RESPONSE_CODEC = Codec(
    encode=pack_response_chunk,
    decode=unpack_response_chunk,
    nbytes=payload_nbytes,
)
