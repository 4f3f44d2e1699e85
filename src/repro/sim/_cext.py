"""Compile-on-demand loader for the C tick kernel.

``src/repro/sim/_batch_kernel.c`` ships with the package and is compiled
once per host with the system C compiler (``cc`` / ``gcc`` / ``clang``)
into a shared object under a per-user cache directory, then loaded with
:mod:`ctypes`; nothing is installed.  Its one entry point,
``repro_kernel_run``, is the resumable tick loop:
:mod:`repro.sim.batch_engine` calls it once per replicate of a
materialized arena and :mod:`repro.sim.stream_engine` drives it over a
sliding window, both through the :class:`Arena` and :class:`KState`
mirrors below.  Without the kernel, materialized runs take the
reference engine (:mod:`repro.sim.dispatch`) with identical results,
and streaming runs raise :class:`~repro.errors.KernelUnavailableError`.

The shared object's name digests everything that shapes the binary --
the source, the compiler's ``--version`` banner, :data:`_CFLAGS`, the
interpreter's ``EXT_SUFFIX`` and the numpy version -- so a cache never
serves an artifact built from other source, toolchain or ABI.  The cache
directory must be owned by the current user with mode ``0700``; any
other is refused, and the refusal is :func:`kernel_unavailable_reason`.

``REPRO_CEXT=0`` disables the kernel, ``REPRO_CEXT=1`` requests it and
warns once (:class:`RuntimeWarning`) when it cannot be built or loaded,
unset tries silently.  ``REPRO_CEXT_CACHE`` overrides the cache
directory (default ``<tempdir>/repro-kernel-<uid>``).  Resolution is
lazy (nothing compiles at import) and cached per process; tests reset
the module globals to probe each path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

#: Victim-draw block size of every engine (C ``BLOCK``): one block is one
#: ``rng.integers(0, m - 1, size=BLOCK)`` call, the same as
#: UniformVictim's default block, refilled lazily.
BLOCK = 4096

#: The "never" tick (C ``IDLE_AT``): idle workers' finish tick and the
#: next-arrival tick once every job has arrived.
IDLE_AT = 1 << 62

#: Return causes of ``repro_kernel_run`` (C ``RC_*``), by code.
RETURN_CAUSES = ("done", "max_ticks", "need_segment", "checkpoint", "log_full")
RC_DONE, RC_MAX_TICKS, RC_NEED_SEGMENT, RC_CHECKPOINT, RC_LOG_FULL = range(5)

#: Compiler flags; part of the cache key, so overriding this list (the
#: sanitizer runner in ``tools/sanitize_kernel.py`` does) builds and
#: loads a separate shared object.  ``-ffp-contract=off`` keeps the
#: flow sums free of FMA contraction, which would change the last bit
#: on hosts that contract by default.
_CFLAGS: List[str] = [
    "-O2", "-shared", "-fPIC", "-Wall", "-Werror", "-ffp-contract=off",
]

#: The refill callback signature: C hands back the replicate index whose
#: draw block is exhausted; Python refills it in place from that rep's
#: Generator (keeping the PCG64 stream bit-identical to serial runs).
REFILL_CFUNC = ctypes.CFUNCTYPE(None, ctypes.c_int64)

_KERNEL_SOURCE = Path(__file__).with_name("_batch_kernel.c")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p


#: Arena's array pointers, in C order (NULL where a caller has none).
ARENA_ARRAYS = (
    "works", "eo", "et", "chain", "job_of", "jro", "roots", "arr_ticks",
    "arrivals", "preds", "unfin", "completions", "cur", "fin", "fails",
    "idles", "dq_head", "dq_tail", "dq_next", "dq_prev", "rdy", "raw",
    "flow_log", "busy_log",
)


class Arena(ctypes.Structure):
    """Mirror of the C ``Arena``: table pointers plus run parameters."""

    _fields_ = [(name, _ptr) for name in ARENA_ARRAYS] + [
        (name, _i64)
        for name in (
            "flow_cap", "busy_cap", "n", "wn", "exhausted", "m", "k",
            "sigma", "max_ticks", "ckpt_at", "fast_forward",
        )
    ] + [("speed", _f64)]


#: KState's integer fields, in C order.
KSTATE_INTS = (
    "t", "next_arr", "next_at", "q_head", "p", "n_busy", "completed",
    "nf", "ne_count", "steal_attempts", "failed_steals", "idle_steps",
    "admission_wait_ticks", "ff_skipped_ticks", "max_queue_depth",
    "job_base", "argmax_job", "flow_n", "busy_n", "busy_last", "t_top",
)
#: KState's float fields (the exact online flow accumulators), in C order.
KSTATE_FLOATS = (
    "max_flow", "argmax_completion", "flow_sum", "last_completion",
)
#: The KState counters that are SimulationStats fields of the same name.
KSTATE_STATS = (
    "steal_attempts", "failed_steals", "idle_steps", "admission_wait_ticks",
    "ff_skipped_ticks", "max_queue_depth",
)


class KState(ctypes.Structure):
    """Mirror of the C ``KState``: every scalar of the tick loop."""

    _fields_ = [(name, _i64) for name in KSTATE_INTS] + [
        (name, _f64) for name in KSTATE_FLOATS
    ]


_cext_fn: Any = None
_cext_resolved = False
_cext_warned = False
#: Why the last resolution left the kernel unavailable (None when loaded).
_cext_error: Optional[str] = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CEXT_CACHE")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-kernel-{uid}"


def _private_cache_dir() -> Path:
    """The cache directory, created ``0700``; refuses one others control.

    A shared object is executed as soon as it is loaded, so the
    directory it comes from must be writable by this user alone.
    """
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not hasattr(os, "getuid"):
        return cache
    info = cache.stat()
    if info.st_uid != os.getuid():
        raise PermissionError(
            f"kernel cache {cache} is owned by uid {info.st_uid}, not "
            f"{os.getuid()}; refusing to load code from it"
        )
    mode = stat.S_IMODE(info.st_mode)
    if mode != 0o700:
        raise PermissionError(
            f"kernel cache {cache} has mode {mode:o}, expected 700; "
            f"chmod 700 it or set REPRO_CEXT_CACHE to a private directory"
        )
    return cache


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_key(compiler: str) -> str:
    """Digest of everything that shapes the compiled shared object."""
    banner = subprocess.run(
        [compiler, "--version"], check=True, capture_output=True
    ).stdout
    h = hashlib.sha256()
    for part in (
        _KERNEL_SOURCE.read_bytes(),
        banner,
        "\0".join(_CFLAGS).encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
        np.__version__.encode(),
    ):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def _bind(lib: ctypes.CDLL) -> Any:
    """The kernel's entry point, typed, once the struct layout checks."""
    abi = (_i64 * 4)()
    lib.repro_kernel_abi.argtypes = [_ptr]
    lib.repro_kernel_abi.restype = None
    lib.repro_kernel_abi(abi)
    expected = (
        ctypes.sizeof(Arena), ctypes.sizeof(KState), Arena.speed.offset,
        KState.last_completion.offset,
    )
    if tuple(abi) != expected:
        raise RuntimeError(
            f"kernel struct layout {tuple(abi)} does not match the ctypes "
            f"mirror {expected}"
        )
    run = lib.repro_kernel_run
    run.argtypes = [
        ctypes.POINTER(Arena), ctypes.POINTER(KState), REFILL_CFUNC, _i64
    ]
    run.restype = _i64
    return run


def _build_and_load() -> Any:
    """Compile (if not cached) and load the kernel; raises on failure."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    cache = _private_cache_dir()
    so_path = cache / f"batch_kernel-{_cache_key(compiler)}.so"
    if not so_path.exists():
        # Compile to a unique temp name, then atomically rename: two
        # processes racing to build the same kernel both succeed.
        fd, tmp_name = tempfile.mkstemp(
            suffix=".so", prefix="batch_kernel-", dir=cache
        )
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_name, str(_KERNEL_SOURCE)],
                check=True,
                capture_output=True,
            )
            os.replace(tmp_name, so_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    return _bind(ctypes.CDLL(str(so_path)))


def resolve_batch_kernel() -> Any:
    """The compiled ``repro_kernel_run``, or ``None`` for the Python path.

    Resolution is cached per process.  ``REPRO_CEXT=0`` disables,
    ``REPRO_CEXT=1`` requests the compiled kernel and warns once
    (RuntimeWarning) when it cannot be built, unset auto-detects
    silently.
    """
    global _cext_fn, _cext_resolved, _cext_warned, _cext_error
    if _cext_resolved:
        return _cext_fn
    _cext_fn = None
    pref = os.environ.get("REPRO_CEXT", "").strip()
    if pref == "0":
        _cext_error = "REPRO_CEXT=0"
        _cext_resolved = True
        return None
    _cext_error = None
    try:
        _cext_fn = _build_and_load()
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
            detail += " -- " + exc.stderr.decode(errors="replace").strip()
        _cext_error = f"C kernel unavailable ({detail})"
        if pref == "1" and not _cext_warned:
            _cext_warned = True
            warnings.warn(
                f"REPRO_CEXT=1 requested the compiled tick kernel, but "
                f"it could not be built or loaded ({detail}); falling "
                f"back to the Python engines (results are identical, "
                f"only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
    _cext_resolved = True
    return _cext_fn


def kernel_unavailable_reason() -> Optional[str]:
    """Why the compiled kernel cannot run here, or ``None`` when it can.

    Resolves the kernel (cached per process) first; the reason is
    ``"REPRO_CEXT=0"`` or names the build/load error.
    """
    if resolve_batch_kernel() is not None:
        return None
    return _cext_error or "C kernel unavailable"
