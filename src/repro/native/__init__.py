"""Compiled serve core of the fast kernel, loaded through ``ctypes``.

:mod:`repro.sim.fastkernel` walks every batch of a run through one C routine
in ``serve.c``: the arrival-order walk of the per-disk Lindley / DPM-ladder
recursion, bit for bit the Python one, with write placement by the run's
rule-table row and the shared whole-file cache's lookups, pending
admissions and evictions merged in.  The shared library is built from that
source with the host's C compiler the first time this package is imported
and cached under ``~/.cache/repro/native/``, named by a hash of the source,
the compiler, the flags and the Python ABI, so later imports only load it.
The build writes to a temporary name and renames it into place, so
processes that build at the same moment (parallel sweep workers) never
load a half-written file.  If the cache directory is not writable the
library is built in a private temporary directory instead.

There is no Python fallback: on a host without a C compiler the import still
succeeds, but :func:`coupled_core` raises :class:`~repro.errors.ConfigError`
naming the missing compiler, so ``engine="fast"`` fails loudly while the
event engine keeps working.

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

from repro.errors import ConfigError

__all__ = [
    "CFLAGS",
    "CoupledArgs",
    "ServeArgs",
    "build",
    "cache_dir",
    "compiler",
    "coupled_core",
    "load",
]

SOURCE = Path(__file__).with_name("serve.c")

#: No ``-ffast-math`` or ``-march=native``: the core must round exactly like
#: the Python recursion, and ``-ffp-contract=off`` forbids fused multiply-adds.
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")


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
        ("ent", _p), ("th", _p), ("k", _i), ("first", _p),
        ("gap_cap", _i), ("n_gap", _i),
        ("gap_g", _p), ("gap_th", _p), ("gap_d", _p), ("gap_tmp", _p),
        ("gap_n", _p),
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
        ("ev_cap", _i), ("ev_n", _i), ("ev_t", _p), ("ev_k", _p), ("ev_f", _p),
        ("stop", _i),
    ]


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
    target = directory / _library_name(cc, flags)
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=directory
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ConfigError(
                f"engine='fast' could not build its serve core with {cc}:\n"
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
            "engine='fast' needs a C compiler to build its serve core, and "
            f"none was found on PATH (looked for {', '.join(_compiler_names())}); "
            "install one or use engine='event'"
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
    return lib


_LIB, _REASON = _load()


def _lib() -> ctypes.CDLL:
    if _LIB is None:
        raise ConfigError(_REASON)
    return _LIB


def coupled_core() -> Tuple[Callable[..., int], Callable[..., None]]:
    """The compiled ``repro_serve_coupled(CoupledArgs *, pos)`` walk and
    ``repro_cache_order(CoupledArgs *, out)``, which lists the resident
    files in eviction order; raises :class:`~repro.errors.ConfigError`
    when the library could not be built."""
    lib = _lib()
    return lib.repro_serve_coupled, lib.repro_cache_order
