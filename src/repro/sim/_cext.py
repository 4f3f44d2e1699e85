"""Compile-on-demand loader for the batched C tick kernel.

The batch engine's hot loop (:mod:`repro.sim.batch_engine`) is a C
transcription of the flat kernel's native-scope semantics
(``src/repro/sim/_batch_kernel.c``).  Nothing is installed and no build
backend is required: the source ships with the package and is compiled
once per host with the system C compiler (``cc`` / ``gcc`` / ``clang``)
into a content-addressed shared object under a per-user cache
directory, then loaded with :mod:`ctypes`.  Hosts without a compiler --
or with ``REPRO_CEXT=0`` -- run the pure-Python reference engine instead
(:mod:`repro.sim.dispatch`; direct :func:`~repro.sim.batch_engine.run_batch`
calls use the flat kernel per replicate); results are bit-identical
either way.

Environment override ``REPRO_CEXT``: ``0`` disables the compiled kernel
even when a compiler exists, ``1`` requests it and emits a one-time
:class:`RuntimeWarning` when it cannot be built or loaded, unset tries
silently.  ``REPRO_CEXT_CACHE`` overrides the shared-object cache
directory (default: ``<tempdir>/repro-cext-<uid>``).

Resolution is cached per process, exactly like the numba scanner in
:mod:`repro.sim.flat_engine`; tests reset the module globals to probe
each path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional

#: Victim-draw block size; must match flat_engine._BLOCK and the C
#: kernel's BLOCK constant (one block = one
#: ``rng.integers(0, m - 1, size=BLOCK)`` call).
BLOCK = 4096

#: The refill callback signature: C hands back the replicate index whose
#: draw block is exhausted; Python refills it in place from that rep's
#: Generator (keeping the PCG64 stream bit-identical to serial runs).
REFILL_CFUNC = ctypes.CFUNCTYPE(None, ctypes.c_int64)

_KERNEL_SOURCE = Path(__file__).with_name("_batch_kernel.c")

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
    return Path(tempfile.gettempdir()) / f"repro-cext-{uid}"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _bind(lib: ctypes.CDLL) -> Any:
    """Attach argtypes/restype to the kernel entry point."""
    fn = lib.repro_batch_run_rep
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    # 21 array pointers, 5 int64 scalars, speed, io pointer, callback,
    # rep index -- the exact order of the C signature.
    fn.argtypes = (
        [ptr] * 21 + [i64] * 5 + [ctypes.c_double, ptr, REFILL_CFUNC, i64]
    )
    fn.restype = i64
    return fn


def _build_and_load() -> Any:
    """Compile (if not cached) and load the kernel; raises on failure."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"batch_kernel-{digest}.so"
    if not so_path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        # Compile to a unique temp name, then atomically rename: two
        # processes racing to build the same kernel both succeed.
        fd, tmp_name = tempfile.mkstemp(
            suffix=".so", prefix="batch_kernel-", dir=cache
        )
        os.close(fd)
        try:
            subprocess.run(
                [
                    compiler,
                    "-O2",
                    "-shared",
                    "-fPIC",
                    "-o",
                    tmp_name,
                    str(_KERNEL_SOURCE),
                ],
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
    """The compiled kernel entry point, or ``None`` for the Python path.

    Resolution is cached per process.  ``REPRO_CEXT=0`` disables,
    ``REPRO_CEXT=1`` requests the compiled kernel and warns once
    (RuntimeWarning) when it cannot be built, unset auto-detects
    silently.
    """
    global _cext_fn, _cext_resolved, _cext_warned, _cext_error
    if _cext_resolved:
        return _cext_fn
    pref = os.environ.get("REPRO_CEXT", "").strip()
    if pref == "0":
        _cext_fn = None
        _cext_error = "REPRO_CEXT=0"
        _cext_resolved = True
        return None
    _cext_error = None
    try:
        _cext_fn = _build_and_load()
    except Exception as exc:
        _cext_error = (
            f"C kernel unavailable ({type(exc).__name__}: {exc})"
        )
        if pref == "1" and not _cext_warned:
            _cext_warned = True
            warnings.warn(
                f"REPRO_CEXT=1 requested the compiled batch kernel, but "
                f"it could not be built or loaded "
                f"({type(exc).__name__}: {exc}); falling back to the "
                f"Python engines (results are identical, only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
        _cext_fn = None
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
