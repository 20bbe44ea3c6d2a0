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

``SweepArrays`` holds one chain's tables in the flat arrays the kernel
reads -- the prior's urn tables, whatever the family, and the engines'
marginal tables -- and its state in ``gibbs.ChainState``'s layout: slots are
its cluster ids, ``free_slots`` its stack of unused ones, and a target is a
slot or ``-1 - c`` for a new cluster of colour c. ``ChainState.run`` copies
a chain's state in once, at its first sweep, and keeps it there, running each
block of sweeps with ``run``, each subset move through ``withdraw``,
``price_block`` and ``place``, and each record between blocks with
``record``, until it copies the state back at the chain's end. A block
returns the ``Records`` of the sweeps it was asked to record; ``record``
writes one into buffers allocated once per chain.

``TraceReader`` owns the trace reader: it reads a ``trace.csv`` body from
the file one chunk at a time, hands each chunk's complete lines to the
reader, grows a buffer whenever the reader asks for room, and carries the
partial last line over to the next chunk. Per line it keeps the chain, the
sweep and the index of the line's label-and-colour row among the distinct
rows, which it keeps once each, in order of first occurrence.
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
from typing import NamedTuple

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
    records, block = ctypes.POINTER(_Records), ctypes.POINTER(_Block)
    lib.cdpmix_sweeps.argtypes = (kernel, buffer, i64, records)
    lib.cdpmix_sweeps.restype = ctypes.c_int
    lib.cdpmix_record.argtypes = (kernel, records)
    lib.cdpmix_record.restype = i64
    lib.cdpmix_withdraw.argtypes = lib.cdpmix_price_block.argtypes = (kernel, block)
    lib.cdpmix_withdraw.restype = lib.cdpmix_price_block.restype = ctypes.c_int
    lib.cdpmix_place.argtypes = (kernel, block, i64, ctypes.c_double, ctypes.c_int)
    lib.cdpmix_place.restype = ctypes.c_int
    lib.cdpmix_read_trace.argtypes = (ctypes.POINTER(_Trace), buffer, i64, ctypes.POINTER(i64))
    lib.cdpmix_read_trace.restype = ctypes.c_int
    return lib


_TABLES = ("offsets", "factors", "new", "by_degree", "p", "rate_base", "z0", "xi", "yy",
           "singles", "recips", "a_post", "cnst")
_STATE = ("n_clusters", "n_free", "order", "free_slots", "colour", "count", "z", "yty", "log_m",
          "item_slot", "colour_totals", "logw", "after", "totals", "target", "rank", "zs")


# the trace reader's buffers, and its status codes
_TRACE_BUFFERS = ("chain", "sweep", "index", "rows", "hashes", "ends", "arena", "slots")
_READ_OK, _READ_BAD, _ROOM_ROWS, _ROOM_TEXT = range(4)


class _Kernel(ctypes.Structure):
    """Mirror of the ``Kernel`` struct in ``_sweep.c``."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("n", "n_colours", "pmax")]
                + [(name, ctypes.c_void_p) for name in _TABLES + _STATE])


class _Records(ctypes.Structure):
    """Mirror of the ``Records`` struct in ``_sweep.c``."""

    _fields_ = ([("count", ctypes.c_int64)]
                + [(name, ctypes.c_void_p) for name in ("at", "labels", "colours", "degree",
                                                        "cl_colour", "cl_size", "log_m")])


class _Block(ctypes.Structure):
    """Mirror of the ``Block`` struct in ``_sweep.c``."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("m", "live")]
                + [(name, ctypes.c_void_p) for name in ("items", "colour", "size", "least",
                                                        "log_m", "after")])


class _Trace(ctypes.Structure):
    """Mirror of the ``Trace`` struct in ``_sweep.c``."""

    _fields_ = [(name, ctypes.c_void_p if name in _TRACE_BUFFERS else ctypes.c_int64)
                for name in ("cells", "chain", "sweep", "index", "lines", "max_lines", "rows",
                             "hashes", "ends", "n_rows", "max_rows", "arena", "arena_size",
                             "slots", "n_slots", "hashed")]


class Records(NamedTuple):
    """The sweeps a block recorded, as the kernel writes them: per record its
    canonical labels and colours (rows of ``labels`` and ``colours``) and its
    cluster count ``degree``; per cluster, record after record, its colour and
    size in canonical order and its log marginal in insertion order."""

    labels: np.ndarray
    colours: np.ndarray
    degree: np.ndarray
    cluster_colour: np.ndarray
    cluster_size: np.ndarray
    log_m: np.ndarray


class SweepArrays:
    """One chain's urn tables, engines and state as the kernel's flat arrays.

    ``urn`` is the prior's ``urn_tables(n)``, ``engines`` a colour's
    ``NIGEngine`` each: the kernel's ``log_marginal`` ports ``log_marginal_z``
    from ``xi``, ``yy``, ``singles``, ``z0``, ``rate_base`` and ``table``.
    The state arrays are public and hold a whole chain's state: ``run``
    sweeps them in place, and ``withdraw``, ``price_block``, ``place`` and
    ``record`` act on them between blocks. Each raises the Python sweep's errors.
    """

    def __init__(self, lib: ctypes.CDLL, urn, engines, n: int):
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
        # for moving state in and out: per colour its coordinate count and
        # the zeros that pad its z to pmax
        self.dims = p
        self.padding = [[0.0] * (pmax - pc) for pc in p]
        # the struct holds raw pointers; the arrays above keep their buffers alive
        self._struct = _Kernel(n, C, pmax,
                               *(getattr(self, name).ctypes.data for name in _TABLES + _STATE))
        self._kernel = ctypes.byref(self._struct)
        # the block being moved, and what price_block reports of it
        self.block = np.zeros(n, dtype=i64)
        self.block_colour, self.block_size, self.block_least = (
            np.zeros(n, dtype=i64) for _ in range(3))
        self.block_log_m, self.block_after = np.zeros(n), np.zeros(n + C)
        self._block = _Block(0, 0, *(getattr(self, name).ctypes.data for name in (
            "block", "block_colour", "block_size", "block_least", "block_log_m",
            "block_after")))
        self._block_ref = ctypes.byref(self._block)
        # one record's buffers, which record() fills
        self._taken = Records(np.empty((1, n), dtype=np.int32),
                              np.empty((1, n), dtype=np.int32), np.empty(1, dtype=i64),
                              np.empty(n, dtype=i64), np.empty(n, dtype=i64), np.empty(n))
        self._taken_struct = _Records(1, None, *(a.ctypes.data for a in self._taken))
        self._taken_ref = ctypes.byref(self._taken_struct)
        self._lib = lib
        self.n = n

    def run(self, uniforms: np.ndarray, sweeps: int, record_at=()) -> Records | None:
        """``sweeps`` sweeps over the state arrays, item i of sweep t drawn with
        ``uniforms[t * n + i]``, recording the state after each sweep t in the
        increasing ``record_at`` (None when it is empty); raises the Python
        sweep's ``NumericalError``."""
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        if uniforms.shape != (sweeps * self.n,):
            raise ValueError(f"need {sweeps * self.n} uniforms, got shape {uniforms.shape}")
        out = rec = None
        if len(record_at):
            at = np.array(record_at, dtype=np.int64)
            if not (at[0] >= 0 and at[-1] < sweeps and (np.diff(at) > 0).all()):
                raise ValueError(f"record_at must increase within [0, {sweeps}), "
                                 f"got {record_at!r}")
            rows, n = at.size, self.n
            out = Records(np.empty((rows, n), dtype=np.int32),
                          np.empty((rows, n), dtype=np.int32), np.empty(rows, dtype=np.int64),
                          np.empty(rows * n, dtype=np.int64), np.empty(rows * n, dtype=np.int64),
                          np.empty(rows * n))
            rec = ctypes.byref(_Records(rows, at.ctypes.data, *(a.ctypes.data for a in out)))
        _check(self._lib.cdpmix_sweeps(self._kernel, uniforms.ctypes.data, sweeps, rec))
        if out is None:
            return None
        packed = int(out.degree.sum())
        return out._replace(**{name: getattr(out, name)[:packed]
                               for name in ("cluster_colour", "cluster_size", "log_m")})

    def record(self) -> Records:
        """The state now as one record, in buffers that the next call overwrites."""
        d = self._lib.cdpmix_record(self._kernel, self._taken_ref)
        out = self._taken
        return out._replace(cluster_colour=out.cluster_colour[:d],
                            cluster_size=out.cluster_size[:d], log_m=out.log_m[:d])

    def withdraw(self, items) -> None:
        """Take ``items``, increasing and all of one cluster, out of it as
        ``ChainState._withdraw`` does; they are the block that ``price_block``
        and ``place`` then act on."""
        m = len(items)
        self.block[:m] = items
        self._block.m = m
        _check(self._lib.cdpmix_withdraw(self._kernel, self._block_ref))

    def price_block(self) -> int:
        """Fill ``block_colour``, ``block_size``, ``block_least`` and
        ``block_log_m`` with each live cluster's colour, size, least member
        and log marginal, in insertion order, and ``block_after`` with its log
        marginal once the withdrawn block joins it, then with the block's log
        marginal alone in a new cluster of each colour; returns the number of
        live clusters."""
        _check(self._lib.cdpmix_price_block(self._kernel, self._block_ref))
        return self._block.live

    def place(self, target: int, log_m_after: float, reprice: bool = False) -> None:
        """Put the withdrawn block into slot ``target`` or, for ``-1 - c``, a
        new cluster of colour c, as ``ChainState._place`` does; with
        ``reprice`` its marginal is priced afresh once the items are in."""
        _check(self._lib.cdpmix_place(self._kernel, self._block_ref, target, log_m_after,
                                      reprice))


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


def _grown(a: np.ndarray, size: int, keep: int) -> np.ndarray:
    """``a`` with room for ``size`` entries along its first axis, its first ``keep`` kept."""
    out = np.empty((size,) + a.shape[1:], dtype=a.dtype)
    out[:keep] = a[:keep]
    return out


class TraceReader:
    """The compiled trace reader and its buffers, for the rest of the binary
    file ``fh``, a trace body whose rows have ``cells`` cells (2n, the
    labels and then the colours of n items).

    The per-line buffers are sized once from the body's byte count: a line
    takes at least two bytes a cell. The distinct rows and their texts start
    with room for ``room`` rows; when the reader asks for more, a buffer
    grows to its use so far scaled up to the whole body, at least doubling,
    and never past what the rest of the body could need.
    """

    def __init__(self, lib: ctypes.CDLL, fh, cells: int, room: int):
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        lines = size // (2 * (cells + 2)) + 1
        self.chain = np.empty(lines, dtype=np.int32)
        self.sweep = np.empty(lines, dtype=np.int32)
        self.index = np.empty(lines, dtype=np.int64)
        self.rows = np.empty((room, cells), dtype=np.int32)
        self.hashes = np.empty(room, dtype=np.uint64)
        self.ends = np.empty(room, dtype=np.int64)
        self.arena = np.empty(room * 2 * cells, dtype=np.uint8)  # a text is >= 2 cells - 1 bytes
        self.slots = _slot_table(room)
        self._struct = _Trace(cells=cells)
        self._ref = ctypes.byref(self._struct)
        self._lib = lib
        self._fh = fh
        self._size, self._read = size, 0
        self._bind()

    def _bind(self) -> None:
        """Point the struct at the buffers, which may have been replaced."""
        t = self._struct
        for name in _TRACE_BUFFERS:
            setattr(t, name, getattr(self, name).ctypes.data)
        t.max_lines, t.max_rows, t.arena_size, t.n_slots = (
            len(self.chain), len(self.rows), len(self.arena), len(self.slots))

    def _room(self, used: int, room: int, most: int) -> int:
        """Room for a buffer using ``used`` of its ``room`` entries: the use
        so far scaled to the whole body, at least ``2 * room``, at most ``most``."""
        return min(max(2 * room, used * self._size // max(self._read, 1)), most)

    def _grow(self, status: int, ahead: int) -> None:
        """Make the room the reader asked for, with ``ahead`` bytes in hand
        from the line it stopped at (more than ``_size`` promised if the
        file grew)."""
        t = self._struct
        rest = max(self._size - self._read, ahead)
        if status == _ROOM_ROWS:
            room = self._room(t.n_rows, len(self.rows), t.n_rows + 1 + rest // (2 * (t.cells + 2)))
            self.rows, self.hashes, self.ends = (_grown(a, room, t.n_rows)
                                                 for a in (self.rows, self.hashes, self.ends))
            self.slots = _slot_table(room)
            t.hashed = 0
        else:
            used = int(self.ends[t.n_rows - 1]) if t.n_rows else 0
            self.arena = _grown(self.arena, self._room(used, len(self.arena), used + rest), used)
        self._bind()

    def read(self, chunk: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(chain, sweep, index, rows)`` of the body: per line its chain,
        sweep and the position of its row among ``rows``, the distinct rows
        in order of first occurrence. None at a line outside the form
        ``pipeline.write_trace`` writes.

        The body is read ``chunk`` bytes at a time into one buffer; each
        chunk's complete lines are parsed, and its partial last line is
        carried over to the start of the buffer for the next chunk.
        """
        buf = np.empty(chunk, dtype=np.uint8)
        kept, used = 0, ctypes.c_int64()
        # a line longer than the buffer leaves an empty view to read into, and None
        while got := self._fh.readinto(buf[kept:]):
            filled, done = kept + got, 0
            while True:
                status = self._lib.cdpmix_read_trace(self._ref, buf.ctypes.data + done,
                                                     filled - done, used)
                done += used.value
                self._read += used.value
                if status == _READ_OK:
                    break
                if status == _READ_BAD:
                    return None
                self._grow(status, filled - done)
            kept = filled - done
            buf[:kept] = buf[done:filled]
        if kept:
            return None
        lines, n_rows = self._struct.lines, self._struct.n_rows
        return self.chain[:lines], self.sweep[:lines], self.index[:lines], self.rows[:n_rows]
