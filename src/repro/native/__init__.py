"""Compiled simulation core of both engines, loaded through ``ctypes``.

:mod:`repro.sim.fastkernel` walks every batch of a run through one C routine
in ``serve.c``: the arrival-order walk of the per-disk Lindley / DPM-ladder
recursion, bit for bit the Python one, with write placement by the run's
rule-table row and the shared whole-file cache's lookups, pending
admissions and evictions merged in; it also writes each request's
completion and response and bills its service per disk.
:func:`stable_order` puts completions (and scheduler releases) in order
with the same library's bucket sort, :func:`p2_fold` folds
observations into a P² percentile estimator
(:class:`~repro.control.telemetry.P2Quantile`), and :func:`release_core`
decides the release times of a block of arrivals for the forecasting
request schedulers of :mod:`repro.system.scheduling` (``slack_defer``,
``spinup_coalesce``) with their disk forecast, from a :class:`SchedArgs`
block each scheduler builds once per run: one call per fast-kernel block,
one per arrival on the event engine.  :func:`bin_spans` adds logged
``[start, end)`` state spans into per-interval, per-disk overlap seconds,
from which a controlled fast-kernel run builds its power trace.  The
shared library is
built from that source with the host's C compiler the first time this
package is imported and cached under ``~/.cache/repro/native/``, named by a
hash of the source, the compiler, the flags and the Python ABI, so later
imports only load it.
The build writes to a temporary name and renames it into place, so
processes that build at the same moment (parallel sweep workers) never
load a half-written file.  If the cache directory is not writable the
library is built in a private temporary directory instead.

Every simulation needs the library, on either engine: no routine in it
has a Python fallback.  A failed build is reported only when the library
is used, so on a host without a C compiler ``import repro``,
:mod:`repro.analysis` and the lint still work, while every function
here that calls into the library raises the
:class:`~repro.errors.ConfigError` of :func:`library`, naming the missing
compiler; ``StorageSystem.run`` calls it before it dispatches to either
engine.

Tests may :func:`build` with extra compiler flags (a sanitizer or
warnings-as-errors build) and :func:`load` the result; the flags are
hashed into the library name, so it never shadows the normal build.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "CFLAGS",
    "CoupledArgs",
    "LIBS",
    "RULES",
    "SchedArgs",
    "ServeArgs",
    "bin_spans",
    "build",
    "cache_dir",
    "compiler",
    "coupled_core",
    "library",
    "load",
    "p2_fold",
    "release_core",
    "stable_order",
]

SOURCE = Path(__file__).with_name("serve.c")

#: No ``-ffast-math`` or ``-march=native``: the core must round exactly like
#: the Python recursion, and ``-ffp-contract=off`` forbids fused multiply-adds.
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

#: Libraries linked after the source: libm for ``ceil``, which the
#: compiler inlines on some targets and leaves an external call on others.
LIBS = ("-lm",)


_p = ctypes.c_void_p
_i = ctypes.c_int64


class ServeArgs(ctypes.Structure):
    """Mirror of ``serve_args`` in ``serve.c`` (pointers as addresses)."""

    _fields_ = [
        ("D", _i), ("maxR", _i), ("W", _i),
        ("T", ctypes.c_double), ("ci", ctypes.c_double),
        ("oh", _p), ("R", _p), ("dn", _p), ("wk", _p),
        ("avail", _p), ("load", _p), ("pt", _p), ("pv", _p),
        ("n_up", _p), ("n_down", _p),
        ("park", _p), ("down", _p), ("wake", _p),
        ("seek_t", _p), ("active_t", _p), ("n_req", _p),
        ("ent", _p), ("th", _p), ("k", _i),
        ("gap_cap", _i), ("n_gap", _i),
        ("gap_g", _p), ("gap_th", _p), ("gap_d", _p),
        ("span_cap", _i), ("n_span", _i),
        ("span_key", _p), ("span_d", _p), ("span_s", _p), ("span_e", _p),
        ("out_d", _p), ("out_s", _p), ("out_e", _p), ("key_n", _p),
    ]


class CoupledArgs(ctypes.Structure):
    """Mirror of ``coupled_args`` in ``serve.c``: the bank it serves
    through, the placement rule and its record buffers, the cache state in
    per-file-id arrays (``cached`` 0: none), the pending-admission and LFU
    heaps, the batch and the cache-event buffers."""

    _fields_ = [
        ("s", ctypes.POINTER(ServeArgs)),
        ("cached", _i), ("policy", _i), ("nf", _i), ("capacity", ctypes.c_double),
        ("size", _p), ("map", _p), ("rate", _p),
        ("free", _p), ("ap", _p),
        ("pl_spin", _i), ("pl_key", _i), ("pl_max", _i), ("pl_fallback", _i),
        ("cursor", _i),
        ("pl_cap", _i), ("pl_n", _i), ("pl_t", _p), ("pl_f", _p), ("pl_d", _p),
        ("csize", _p), ("nxt", _p), ("prv", _p), ("res", _p), ("ref", _p),
        ("freq", _p),
        ("head", _i), ("tail", _i), ("count", _i),
        ("used", ctypes.c_double),
        ("hits", _i), ("misses", _i), ("insertions", _i), ("evictions", _i),
        ("rejected", _i),
        ("bytes_hit", ctypes.c_double), ("bytes_missed", ctypes.c_double),
        ("lh", _p), ("lh_n", _i), ("lh_cap", _i), ("lh_seq", _i),
        ("ad", _p), ("ad_n", _i), ("ad_cap", _i),
        ("n", _i), ("base", _i), ("final", _i),
        ("fid", _p), ("t", _p), ("w", _p), ("starts", _p), ("dreq", _p),
        ("comp", _p), ("resp", _p), ("hold", _p),
        ("hit_lat", ctypes.c_double),
        ("ev_cap", _i), ("ev_n", _i), ("ev_t", _p), ("ev_k", _p), ("ev_f", _p),
        ("stop", _i),
    ]


class SchedArgs(ctypes.Structure):
    """Mirror of ``sched_args`` in ``serve.c``: a deferring request
    scheduler's rule (:data:`RULES`), the ``file -> disk`` mapping and file
    sizes, its disk forecast's per-disk constants and state (``avail``,
    ``group_until``, updated in place), and the rule's parameters."""

    _fields_ = [
        ("rule", _i), ("nf", _i),
        ("map", _p), ("size", _p),
        ("oh", _p), ("rate", _p), ("th", _p), ("down", _p), ("up", _p),
        ("avail", _p), ("group_until", _p),
        ("budget", ctypes.c_double), ("window", ctypes.c_double),
        ("max_hold", ctypes.c_double),
    ]


#: Scheduler name -> ``SchedArgs.rule`` (the rule ``repro_release`` runs).
RULES = {"slack_defer": 0, "spinup_coalesce": 1}


def compiler() -> Optional[str]:
    """Path of the C compiler the build uses: the one Python was built
    with (by name, looked up on ``PATH``), else ``cc``; ``None`` if neither
    is found."""
    for name in _compiler_names():
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _compiler_names() -> List[str]:
    names = []
    configured = (sysconfig.get_config_var("CC") or "").split()
    if configured:
        names.append(os.path.basename(configured[0]))
    if "cc" not in names:
        names.append("cc")
    return names


def cache_dir() -> Path:
    """Where built libraries are kept, next to the sweep cache."""
    return Path.home() / ".cache" / "repro" / "native"


def _library_name(cc: str, flags: Tuple[str, ...]) -> str:
    """File name keyed by the source, the compiler, the flags and the ABI."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    abi = sysconfig.get_config_var("SOABI") or sys.implementation.cache_tag
    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        f"{real}:{st.st_size}:{st.st_mtime_ns}".encode(),
        " ".join(flags).encode(),
        str(abi).encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return f"serve-{key.hexdigest()[:20]}.so"


def build(directory: Path, cc: str, extra_flags: Tuple[str, ...] = ()) -> Path:
    """Build the library into ``directory`` (with ``extra_flags`` after
    :data:`CFLAGS`) unless it is already there; returns its path.  The
    compiler writes a private temporary file that is renamed into place,
    so a concurrent builder never sees it half-written."""
    flags = CFLAGS + tuple(extra_flags)
    target = directory / _library_name(cc, flags + LIBS)
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=directory
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-o", tmp, str(SOURCE), *LIBS],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ConfigError(
                f"could not build the compiled simulation core with {cc}:\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Build (or find) and load the library: ``(library, None)``, or
    ``(None, reason)`` when it cannot be had."""
    cc = compiler()
    if cc is None:
        return None, (
            "simulation needs a C compiler to build its compiled core, and "
            f"none was found on PATH (looked for {', '.join(_compiler_names())}); "
            "install one"
        )
    try:
        try:
            path = build(cache_dir(), cc)
        except OSError:
            # Unwritable cache: build in a private directory for this
            # process only.
            private = Path(tempfile.mkdtemp(prefix="repro-native-"))
            atexit.register(shutil.rmtree, private, True)
            path = build(private, cc)
        return load(path), None
    except (ConfigError, OSError) as exc:
        return None, str(exc)


def load(path: Path) -> ctypes.CDLL:
    """Load a built library and declare its entry points (a
    :class:`~repro.errors.ConfigError` if its structures do not match)."""
    lib = ctypes.CDLL(str(path))
    for size_fn, mirror in (
        (lib.repro_serve_args_size, ServeArgs),
        (lib.repro_coupled_args_size, CoupledArgs),
        (lib.repro_sched_args_size, SchedArgs),
    ):
        size_fn.argtypes = []
        size_fn.restype = ctypes.c_int64
        if size_fn() != ctypes.sizeof(mirror):
            raise ConfigError(
                f"{path} does not match {mirror.__name__}; delete it to rebuild"
            )
    lib.repro_serve_coupled.argtypes = [ctypes.POINTER(CoupledArgs), _i]
    lib.repro_serve_coupled.restype = _i
    lib.repro_cache_order.argtypes = [ctypes.POINTER(CoupledArgs), _p]
    lib.repro_cache_order.restype = None
    lib.repro_stable_order.argtypes = [_p, _i, _p]
    lib.repro_stable_order.restype = _i
    lib.repro_p2_fold.argtypes = [_p, _p, _p, _i]
    lib.repro_p2_fold.restype = None
    lib.repro_bin_spans.argtypes = [_p, _p, _p, _i, _p, _i, _i, _p]
    lib.repro_bin_spans.restype = _i
    # Declared without argtypes: callers pass ctypes objects, so the event
    # engine's call per request converts nothing.
    lib.repro_release.restype = None
    return lib


_LIB, _REASON = _load()


def library() -> ctypes.CDLL:
    """The loaded library; raises :class:`~repro.errors.ConfigError`
    (why it could not be built) when there is none."""
    if _LIB is None:
        raise ConfigError(_REASON)
    return _LIB


def coupled_core() -> Tuple[Callable[..., int], Callable[..., None]]:
    """The compiled ``repro_serve_coupled(CoupledArgs *, pos)`` walk and
    ``repro_cache_order(CoupledArgs *, out)``, which lists the resident
    files in eviction order; raises :class:`~repro.errors.ConfigError`
    when the library could not be built."""
    lib = library()
    return lib.repro_serve_coupled, lib.repro_cache_order


def stable_order(values: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(values, kind="stable")`` of a 1-D float
    array (NaN last), from the compiled bucket sort: the fast kernel's
    completion order.  Raises :class:`~repro.errors.ConfigError` when the
    library could not be built, and :class:`MemoryError` when the sort's
    work space could not be allocated."""
    x = np.ascontiguousarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"stable_order sorts 1-D arrays, got shape {x.shape}")
    out = np.empty(x.size, dtype=np.int64)
    if library().repro_stable_order(x.ctypes.data, x.size, out.ctypes.data):
        raise MemoryError(f"no work space to order {x.size} values")
    return out


def p2_fold(markers: np.ndarray, dn: np.ndarray, xs: np.ndarray) -> None:
    """Fold the observations ``xs`` (as float64, in C order) into one P²
    estimator's 15 ``markers`` (heights, positions, desired positions) with
    the 5 desired-position increments ``dn``, in order, by the compiled
    recursion.  Raises :class:`~repro.errors.ConfigError` when the library
    could not be built, and :class:`ValueError` unless both arrays are
    contiguous float64 of those sizes, as the recursion writes ``markers``
    in place."""
    lib = library()
    x = np.ascontiguousarray(xs, dtype=float)
    for a, n in ((markers, 15), (dn, 5)):
        if a.shape != (n,) or a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError(
                f"p2_fold needs {n} contiguous float64 values, got "
                f"{a.dtype} of shape {a.shape}"
            )
    lib.repro_p2_fold(markers.ctypes.data, dn.ctypes.data, x.ctypes.data, x.size)


def bin_spans(disks, starts, ends, edges, num_disks: int) -> np.ndarray:
    """Overlap seconds of the ``[start, end)`` spans on ``disks`` with the
    ``K`` contiguous windows ``[edges[k], edges[k+1])``, as a new ``(K,
    num_disks)`` float64 matrix.

    Spans are clipped to ``[edges[0], edges[-1]]``; those that clip to
    nothing (empty, reversed, NaN or wholly outside) are dropped, also
    when their disk is out of range.  The compiled routine runs in
    O(N log K + K * D): each span's first and last partial windows are
    added directly and the windows it covers fully through per-disk
    cover counts, in the passes and order of the NumPy scatter-adds it
    replaced, so the matrix is bit for bit theirs (the oracle
    ``tests/control/bin_spans_oracle.py``).  Raises
    :class:`~repro.errors.ConfigError` when the library could not be
    built, :class:`ValueError` for columns of different lengths, edges
    that are not finite and ascending, or a binned span's disk outside
    ``[0, num_disks)``, and :class:`MemoryError` when the work space
    could not be allocated."""
    lib = library()
    edges = np.ascontiguousarray(edges, dtype=float)
    d = np.ascontiguousarray(disks, dtype=np.int64)
    s = np.ascontiguousarray(starts, dtype=float)
    e = np.ascontiguousarray(ends, dtype=float)
    if edges.ndim != 1 or not d.ndim == s.ndim == e.ndim == 1 or not (
        d.size == s.size == e.size
    ):
        raise ValueError(
            f"bin_spans needs 1-D edges and equal-length 1-D span columns, "
            f"got edges {edges.shape}, disks {d.shape}, starts {s.shape}, "
            f"ends {e.shape}"
        )
    k = edges.size - 1
    out = np.zeros((max(k, 0), num_disks))
    if not d.size or k <= 0:
        return out
    status = lib.repro_bin_spans(
        d.ctypes.data, s.ctypes.data, e.ctypes.data, d.size,
        edges.ctypes.data, k, num_disks, out.ctypes.data,
    )
    if status == -1:
        raise ValueError(
            f"bin_spans edges must be finite and ascending, got {edges}"
        )
    if status == -2:
        raise MemoryError(f"no work space to bin {d.size} spans")
    if status:
        raise ValueError(
            f"span {status - 1} is on disk {d[status - 1]}, outside "
            f"[0, {num_disks})"
        )
    return out


def release_core() -> Callable[..., None]:
    """The compiled ``repro_release(SchedArgs *, t, fid, n, stressed,
    out)``, which writes the release times of ``n`` arrivals ``t`` of files
    ``fid`` (float64 and int64 buffers) into the float64 buffer ``out`` and
    updates the forecast state the arguments point at; raises
    :class:`~repro.errors.ConfigError` when the library could not be
    built.  It has no declared argument types: pass the arguments as
    ctypes objects (a ``byref(SchedArgs)``, buffers or ``c_void_p``
    addresses, ``c_int64`` counts)."""
    return library().repro_release
