"""Build, cache and bind the compiled kernels in ``_sweep.c``: the
single-item sweep and the trace reader.

The library is built on first use, never at import, with the system C
compiler at ``-O2 -ffp-contract=off`` and no fast-math, so that every double
it computes is the one the interpreter computes. It is cached in this
package's ``__pycache__`` under a hash of the source, the flags and the
machine architecture, written by an atomic rename; where that directory
cannot be written, the library is built in a fresh temporary directory for
this process alone. When it can be
neither built nor loaded, ``library()`` logs one warning saying why and
returns None: chains run the Python sweep and ``pipeline.read_trace`` parses
with numpy.

``SweepArrays`` holds one chain's tables in the flat arrays the kernel
reads -- the prior's urn tables, whatever the family, and the engines'
marginal tables -- and a working copy of its state: ``gibbs.ChainState``
copies its state in before each block and back after it. A block returns the
``Records`` of the sweeps it was asked to record.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_sweep.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# the kernel's status codes, as NumericalError messages of the Python sweep
_ERRORS = {1: "posterior rate collapsed to a non-positive value",
           2: "all reallocation weights vanished"}


def _compile(target: Path) -> None:
    """Compile ``SOURCE`` into ``target``, through a temporary file beside it."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc or gcc) found on PATH")
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, target)
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
    except (OSError, subprocess.SubprocessError) as exc:
        logger.warning("compiled kernels unavailable, using the Python sweep and numpy's "
                       "trace reader: %s", exc)
        return None
    kernel, buffer, i64 = ctypes.POINTER(_Kernel), ctypes.c_void_p, ctypes.c_int64
    lib.cdpmix_sweeps.argtypes = (kernel, buffer, i64, ctypes.POINTER(_Records))
    lib.cdpmix_sweeps.restype = ctypes.c_int
    lib.cdpmix_read_ints.argtypes = (buffer, i64, i64, buffer, i64, ctypes.POINTER(i64))
    lib.cdpmix_read_ints.restype = i64
    return lib


_TABLES = ("offsets", "factors", "new", "by_degree", "p", "rate_base", "z0", "xi", "yy",
           "singles", "recips", "a_post", "cnst")
_STATE = ("n_clusters", "next_cid", "n_free", "order", "free_slots", "cid", "colour",
          "count", "z", "yty", "log_m", "item_slot", "colour_totals", "logw", "after",
          "totals", "target", "rank")


class _Kernel(ctypes.Structure):
    """Mirror of the ``Kernel`` struct in ``_sweep.c``."""

    _fields_ = ([(name, ctypes.c_int64) for name in ("n", "n_colours", "pmax")]
                + [(name, ctypes.c_void_p) for name in _TABLES + _STATE])


class _Records(ctypes.Structure):
    """Mirror of the ``Records`` struct in ``_sweep.c``."""

    _fields_ = ([("count", ctypes.c_int64)]
                + [(name, ctypes.c_void_p) for name in ("at", "labels", "colours", "degree",
                                                        "cl_colour", "cl_size", "log_m")])


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

    ``urn`` is the prior's ``urn_tables(n)``, one ``NIGEngine`` per colour:
    the kernel's ``log_marginal`` ports its ``log_m`` from ``xi``, ``yy``,
    ``singles``, ``z0`` and its evaluator's ``table`` and ``rate_base``.
    The state arrays are public; ``run`` sweeps them in place.
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
        self.rate_base = np.array([eng.evaluator.rate_base for eng in engines], dtype=f64)
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
            rows = eng.evaluator.table(n + 1)[1:n + 2]
            self.recips[c, 1:, :pc] = np.array([r[0] for r in rows], dtype=f64).reshape(n + 1, pc)
            self.a_post[c, 1:] = [r[1] for r in rows]
            self.cnst[c, 1:] = [r[2] for r in rows]
        self.n_clusters, self.next_cid, self.n_free = (np.zeros(1, dtype=i64) for _ in range(3))
        self.order, self.free_slots, self.cid, self.colour, self.count, self.item_slot = (
            np.zeros(n, dtype=i64) for _ in range(6))
        self.z = np.zeros((n, pmax))
        self.yty, self.log_m = np.zeros(n), np.zeros(n)
        self.colour_totals = np.zeros(C, dtype=i64)
        self.logw, self.after, self.totals = (np.zeros(n + C) for _ in range(3))
        self.target = np.zeros(n + C, dtype=i64)
        self.rank = np.zeros(n, dtype=i64)
        # for moving state in and out: slot numbers, and per colour its
        # coordinate count and the zeros that pad its z to pmax
        self.slots = np.arange(n, dtype=i64)
        self.dims = p
        self.padding = [[0.0] * (pmax - pc) for pc in p]
        # the struct holds raw pointers; the arrays above keep their buffers alive
        self._struct = _Kernel(n, C, pmax,
                               *(getattr(self, name).ctypes.data for name in _TABLES + _STATE))
        self._kernel = ctypes.byref(self._struct)
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
        status = self._lib.cdpmix_sweeps(self._kernel, uniforms.ctypes.data, sweeps, rec)
        if status:
            raise NumericalError(_ERRORS[status])
        if out is None:
            return None
        packed = int(out.degree.sum())
        return out._replace(**{name: getattr(out, name)[:packed]
                               for name in ("cluster_colour", "cluster_size", "log_m")})
