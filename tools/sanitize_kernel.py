"""Run the kernel's test suites against a sanitizer build of the C kernel.

The compiled tick kernel (``src/repro/sim/_batch_kernel.c``) indexes raw
arrays that Python allocates, rebases and resizes between calls, so it
must be memory-safe, not just bit-identical.  This runner rebuilds it
with AddressSanitizer and UndefinedBehaviorSanitizer -- by extending
``repro.sim._cext._CFLAGS`` in this process; the flags are part of the
shared object's cache key, so the instrumented build never shadows the
normal one -- and runs the batch, stream, golden, checkpoint, dispatch,
sweep-batching and Figure 2 identity suites on it under
``REPRO_CEXT=1`` (the last three cover the single-run path the figure
runners take).  Any sanitizer report aborts the run.

The interpreter itself is not instrumented, so the sanitizer runtime
must be preloaded::

    LD_PRELOAD="$(cc -print-file-name=libasan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 \\
    PYTHONPATH=src python tools/sanitize_kernel.py [extra pytest args]

Exits non-zero when the instrumented kernel cannot be built or loaded
(for instance without the preload): a sanitizer job whose kernel tests
were skipped must not pass.
"""

from __future__ import annotations

import os
import sys

SANITIZE = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer",
    "-g",
]

SUITES = [
    "tests/sim/test_batch_engine.py",
    "tests/sim/test_stream_engine.py",
    "tests/sim/test_stream_golden.py",
    "tests/sim/test_checkpoint.py",
    "tests/sim/test_dispatch.py",
    "tests/experiments/test_sweep_batching.py",
    "tests/experiments/test_figure2_flat_identity.py",
]


def main(argv: list) -> int:
    os.environ["REPRO_CEXT"] = "1"
    import pytest

    from repro.sim import _cext

    _cext._CFLAGS = _cext._CFLAGS + SANITIZE
    reason = _cext.kernel_unavailable_reason()
    if reason is not None:
        print(
            f"sanitizer build unavailable: {reason}\n"
            f"(preload the runtime: LD_PRELOAD=$(cc -print-file-name="
            f"libasan.so))",
            file=sys.stderr,
        )
        return 1
    print(f"kernel built with {' '.join(_cext._CFLAGS)}", flush=True)
    return int(pytest.main(["-q", "-p", "no:cacheprovider", *SUITES, *argv]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
