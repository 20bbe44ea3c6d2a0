"""Build, cache and bind the compiled kernels in ``_sweep.c``: the
single-item sweep, the block-move primitives and the trace reader.

The library is built on first use, never at import, with the system C
compiler at ``-O2 -ffp-contract=off`` and no fast-math, so that every double
it computes is the one the interpreter computes. It is cached in this
package's ``__pycache__`` under a hash of the source, the flags and the
machine architecture, written by an atomic rename; where that directory
cannot be written, the library is built in a fresh temporary directory for
this process alone. When it can be
neither built nor loaded, ``library()`` logs one warning saying why and
returns None: chains run the Python sweep and ``pipeline.read_trace`` runs
the Python trace reader, the compiled reader's port.

``SweepArrays`` holds one chain in the flat arrays of the kernel's one
struct: its tables -- the prior's urn tables, whatever the family, and the
engines' marginal tables -- its state in ``gibbs.ChainState``'s layout (slots
are its cluster ids, ``free_slots`` its stack of unused ones, and a target
is a slot or ``-1 - c`` for a new cluster of colour c), the block a subset
move acts on, and the record buffers. ``ChainState.run`` copies a chain's
state in once, at its first sweep, and keeps it there, running each block
of sweeps with ``run``, each subset move through ``withdraw``,
``price_block`` and ``place``, and each record between blocks with
``record``, until it copies the state back at the chain's end. ``run`` and
``record`` write their records into the same buffers, allocated once per
chain for the most records one block takes.

``read_body`` maps a ``trace.csv`` read-only and reads its body in place in
two passes, into buffers sized once from the body's byte count. The first
indexes each line: its chain, its sweep and the index of its
label-and-colour row among the distinct rows, numbered in order of first
occurrence. The second parses each distinct row once, from its first text.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .errors import NumericalError

SOURCE = Path(__file__).with_name("_sweep.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# the kernel's status codes, as NumericalError messages of the Python sweep
_ERRORS = {1: "posterior rate collapsed to a non-positive value",
           2: "all reallocation weights vanished"}
_BAD_BLOCK = 3


def _compile(target: Path) -> None:
    """Compile ``SOURCE`` into ``target``, through a temporary file beside it."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) found on PATH")
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    import subprocess  # only a build runs the compiler, so a cached library loads without it
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:  # library() catches OSError alone
        raise OSError(f"{cc} could not run: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _writable(directory: Path) -> bool:
    """Whether ``directory`` exists, or can be made, and takes new files."""
    try:
        directory.mkdir(exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _load() -> ctypes.CDLL:
    """The kernel library, built into the cache first if it is not there."""
    # a cache shared between machines keeps one library per architecture
    stamp = " ".join((*FLAGS, platform.machine())).encode()
    key = hashlib.sha256(SOURCE.read_bytes() + stamp).hexdigest()[:16]
    cached = SOURCE.parent / "__pycache__" / f"_sweep-{key}.so"
    if not cached.exists():
        if not _writable(cached.parent):
            with tempfile.TemporaryDirectory(prefix="cdpmix-") as tmp:
                private = Path(tmp) / cached.name
                _compile(private)
                return ctypes.CDLL(str(private))  # stays mapped once the file is gone
        _compile(cached)
    return ctypes.CDLL(str(cached))


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded kernel, or None (after one logged warning) if it is unavailable."""
    try:
        lib = _load()
    except OSError as exc:
        import logging  # only this warning needs it
        logging.getLogger(__name__).warning(
            "compiled kernels unavailable, using the Python sweep and the Python trace "
            "reader: %s", exc)
        return None
    kernel, buffer, i64 = ctypes.POINTER(_Kernel), ctypes.c_void_p, ctypes.c_int64
    lib.cdpmix_sweeps.argtypes = (kernel, buffer, i64, i64)
    lib.cdpmix_sweeps.restype = ctypes.c_int
    lib.cdpmix_record.argtypes = (kernel,)
    lib.cdpmix_record.restype = None
    lib.cdpmix_withdraw.argtypes = lib.cdpmix_price_block.argtypes = (kernel,)
    lib.cdpmix_withdraw.restype = lib.cdpmix_price_block.restype = ctypes.c_int
    lib.cdpmix_place.argtypes = (kernel, i64, ctypes.c_double, ctypes.c_int)
    lib.cdpmix_place.restype = ctypes.c_int
    lib.cdpmix_read_trace.argtypes = lib.cdpmix_parse_rows.argtypes = (ctypes.POINTER(_Trace),)
    lib.cdpmix_read_trace.restype = lib.cdpmix_parse_rows.restype = ctypes.c_int
    return lib


_TABLES = ("offsets", "factors", "new", "by_degree", "p", "rate_base", "z0", "xi", "yy",
           "singles", "recips", "a_post", "cnst")
_STATE = ("n_clusters", "n_free", "order", "free_slots", "colour", "count", "z", "yty", "log_m",
          "item_slot", "colour_totals", "logw", "after", "totals", "target", "rank", "zs",
          "block", "block_colour", "block_size", "block_least", "block_log_m", "block_after")
_RECORDS = ("at", "degree", "labels", "colours", "cl_colour", "cl_size", "cl_log_m")


# the trace reader's buffers, and its status at a line outside the form
_TRACE_BUFFERS = ("body", "chain", "sweep", "index", "rows", "hashes", "starts", "slots")
_READ_BAD = 1


class _Kernel(ctypes.Structure):
    """Mirror of the ``Kernel`` struct in ``_sweep.c``."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("n", "n_colours", "pmax")]
                + [(name, ctypes.c_void_p) for name in _TABLES + _STATE + _RECORDS]
                + [(name, ctypes.c_int64) for name in ("m", "live")])


class _Trace(ctypes.Structure):
    """Mirror of the ``Trace`` struct in ``_sweep.c``."""

    _fields_ = [(name, ctypes.c_void_p if name in _TRACE_BUFFERS else ctypes.c_int64)
                for name in ("body", "size", "cells", "chain", "sweep", "index", "lines",
                             "max_lines", "rows", "hashes", "starts", "n_rows", "slots",
                             "n_slots")]


class SweepArrays:
    """One chain's urn tables, engines, state, moved block and records as the
    flat arrays of the kernel's one struct.

    ``urn`` is the prior's ``urn_tables(n)``, ``engines`` a colour's
    ``NIGEngine`` each: the kernel's ``log_marginal`` ports ``log_marginal_z``
    from ``xi``, ``yy``, ``singles``, ``z0``, ``rate_base`` and ``table``.
    The state arrays are public and hold a whole chain's state: ``run``
    sweeps them in place, and ``withdraw``, ``price_block``, ``place`` and
    ``record`` act on them between blocks. Each raises the Python sweep's errors.

    The record buffers (``degree``, ``labels``, ``colours`` and ``cl_*``)
    have room for ``records`` records, allocated here once, and hold the
    records of the last ``run`` or ``record`` as ``Kernel`` in ``_sweep.c``
    lays them out, until the next call overwrites them.
    """

    def __init__(self, lib: ctypes.CDLL, urn, engines, n: int, records: int):
        if records < 1:  # record() writes record 0
            raise ValueError(f"the record buffers need room for a record, got {records}")
        C = len(engines)
        p = [len(eng.z0) for eng in engines]
        pmax = max(p + [1])
        f64, i64 = np.float64, np.int64
        offsets, factors, new, by_degree = urn
        # reshaped to the sizes the kernel reads, so a short table raises here
        self.offsets = np.array(offsets, dtype=f64).reshape(C)
        self.factors = np.array(factors, dtype=f64).reshape(C, n + 1)
        self.new = np.array(new, dtype=f64).reshape(C, n + 1)
        self.by_degree = np.array(by_degree, dtype=f64).reshape(n + 1)
        self.p = np.array(p, dtype=i64)
        self.rate_base = np.array([eng.rate_base for eng in engines], dtype=f64)
        self.z0 = np.zeros((C, pmax))
        self.xi = np.zeros((C, n, pmax))
        self.yy = np.array([eng.yy for eng in engines], dtype=f64).reshape(C, n)
        self.singles = np.array([eng.singles for eng in engines], dtype=f64).reshape(C, n)
        self.recips = np.zeros((C, n + 2, pmax))
        self.a_post = np.zeros((C, n + 2))
        self.cnst = np.zeros((C, n + 2))
        for c, eng in enumerate(engines):
            pc = p[c]
            self.z0[c, :pc] = eng.z0
            self.xi[c, :, :pc] = eng.xi
            rows = eng.table(n + 1)[1:n + 2]
            self.recips[c, 1:, :pc] = np.array([r[0] for r in rows], dtype=f64).reshape(n + 1, pc)
            self.a_post[c, 1:] = [r[1] for r in rows]
            self.cnst[c, 1:] = [r[2] for r in rows]
        self.n_clusters, self.n_free = np.zeros(1, dtype=i64), np.zeros(1, dtype=i64)
        self.order, self.free_slots, self.colour, self.count, self.item_slot = (
            np.zeros(n, dtype=i64) for _ in range(5))
        self.z = np.zeros((n, pmax))
        self.yty, self.log_m = np.zeros(n), np.zeros(n)
        self.colour_totals = np.zeros(C, dtype=i64)
        self.logw, self.after, self.totals = (np.zeros(n + C) for _ in range(3))
        self.target = np.zeros(n + C, dtype=i64)
        self.rank = np.zeros(n, dtype=i64)
        self.zs = np.zeros(pmax)
        # the block being moved, and what price_block reports of it
        self.block, self.block_colour, self.block_size, self.block_least = (
            np.zeros(n, dtype=i64) for _ in range(4))
        self.block_log_m, self.block_after = np.zeros(n), np.zeros(n + C)
        # the record buffers, left unset: the kernel writes each record before it is read
        self.at, self.degree = (np.empty(records, dtype=i64) for _ in range(2))
        self.labels, self.colours = (np.empty((records, n), dtype=np.int32) for _ in range(2))
        self.cl_colour, self.cl_size = (np.empty(records * n, dtype=i64) for _ in range(2))
        self.cl_log_m = np.empty(records * n)
        # for moving state in and out: per colour its coordinate count and
        # the zeros that pad its z to pmax
        self.dims = p
        self.padding = [[0.0] * (pmax - pc) for pc in p]
        # the struct holds raw pointers; the arrays above keep their buffers alive
        self._struct = _Kernel(n, C, pmax, *(getattr(self, name).ctypes.data
                                             for name in _TABLES + _STATE + _RECORDS))
        self._kernel = ctypes.byref(self._struct)
        self._lib = lib
        self.n = n

    def run(self, uniforms: np.ndarray, sweeps: int, record_at=()) -> None:
        """``sweeps`` sweeps over the state arrays, item i of sweep t drawn with
        ``uniforms[t * n + i]``, taking record r after sweep ``record_at[r]``
        (increasing) into the record buffers, which must have room for them;
        raises the Python sweep's ``NumericalError``."""
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        if uniforms.shape != (sweeps * self.n,):
            raise ValueError(f"need {sweeps * self.n} uniforms, got shape {uniforms.shape}")
        rows = len(record_at)
        if rows:
            at = np.array(record_at, dtype=np.int64)
            if not (at[0] >= 0 and at[-1] < sweeps and (np.diff(at) > 0).all()):
                raise ValueError(f"record_at must increase within [0, {sweeps}), "
                                 f"got {record_at!r}")
            if rows > len(self.at):
                raise ValueError(f"record_at asks for {rows} records, the record buffers "
                                 f"hold {len(self.at)}")
            self.at[:rows] = at
        _check(self._lib.cdpmix_sweeps(self._kernel, uniforms.ctypes.data, sweeps, rows))

    def record(self) -> None:
        """Take the state now as record 0 of the record buffers."""
        self._lib.cdpmix_record(self._kernel)

    def withdraw(self, items) -> None:
        """Take ``items``, increasing and all of one cluster, out of it as
        ``ChainState._withdraw`` does; they are the block that ``price_block``
        and ``place`` then act on."""
        m = len(items)
        self.block[:m] = items
        self._struct.m = m
        _check(self._lib.cdpmix_withdraw(self._kernel))

    def price_block(self) -> int:
        """Fill ``block_colour``, ``block_size``, ``block_least`` and
        ``block_log_m`` with each live cluster's colour, size, least member
        and log marginal, in insertion order, and ``block_after`` with its log
        marginal once the withdrawn block joins it, then with the block's log
        marginal alone in a new cluster of each colour; returns the number of
        live clusters."""
        _check(self._lib.cdpmix_price_block(self._kernel))
        return self._struct.live

    def place(self, target: int, log_m_after: float, reprice: bool = False) -> None:
        """Put the withdrawn block into slot ``target`` or, for ``-1 - c``, a
        new cluster of colour c, as ``ChainState._place`` does; with
        ``reprice`` its marginal is priced afresh once the items are in."""
        _check(self._lib.cdpmix_place(self._kernel, target, log_m_after, reprice))


def _check(status: int) -> None:
    """Raise the Python sweep's error for a kernel status other than 0, or a
    ValueError for a block that the kernel refused before touching the state."""
    if status == _BAD_BLOCK:
        raise ValueError("a block must hold increasing items of one cluster, withdrawn "
                         "before it is priced or placed, and be placed in a live slot "
                         "or a new cluster of a model colour")
    if status:
        raise NumericalError(_ERRORS[status])


def _slot_table(rows: int) -> np.ndarray:
    """An empty hash table for ``rows`` rows: a power of two at least 4 per row."""
    return np.zeros(1 << (4 * rows - 1).bit_length(), dtype=np.int64)


def read_body(lib: ctypes.CDLL, fh, offset: int, cells: int):
    """``(chain, sweep, index, rows)`` of the binary trace file ``fh`` from
    byte ``offset`` on, whose rows have ``cells`` cells (2n, the labels and
    then the colours of n items): per line its chain, sweep and the position
    of its row among ``rows``, the distinct rows in order of first
    occurrence. None where the file cannot be mapped, and at a line outside
    the form ``pipeline.write_trace`` writes.

    The file is mapped read-only and read in place. The buffers are sized
    once: a line takes at least two bytes a cell, which bounds the lines, and
    no body has more distinct rows than lines. Only ``rows`` waits for the
    indexing pass, which counts them.
    """
    import mmap  # only a trace read maps a file, so a run does not load it
    try:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return None
    with mapped:
        body = np.frombuffer(mapped, dtype=np.uint8, offset=offset)
        size, address = len(body), body.ctypes.data
        del body  # a view of the map, which cannot close while one is held
        max_lines = size // (2 * (cells + 2)) + 1
        chain, sweep = (np.empty(max_lines, dtype=np.int32) for _ in range(2))
        index, starts = (np.empty(max_lines, dtype=np.int64) for _ in range(2))
        hashes, slots = np.empty(max_lines, dtype=np.uint64), _slot_table(max_lines)
        trace = _Trace(body=address, size=size, cells=cells, chain=chain.ctypes.data,
                       sweep=sweep.ctypes.data, index=index.ctypes.data, max_lines=max_lines,
                       hashes=hashes.ctypes.data, starts=starts.ctypes.data,
                       slots=slots.ctypes.data, n_slots=len(slots))
        if lib.cdpmix_read_trace(trace) == _READ_BAD:
            return None
        rows = np.empty((trace.n_rows, cells), dtype=np.int32)
        trace.rows = rows.ctypes.data
        if lib.cdpmix_parse_rows(trace) == _READ_BAD:
            return None
    lines = trace.lines
    return chain[:lines], sweep[:lines], index[:lines], rows
