"""Compiled-kernel hygiene: cache keying and cache-directory trust.

The shared object is executed as soon as it is loaded, so the loader
(:mod:`repro.sim._cext`) must never serve a stale or foreign artifact:
its file name digests the source, the compiler banner, the flags, the
interpreter ABI and the numpy version, and a cache directory that other
users could write to is refused -- the refusal becomes the kernel's
unavailable reason rather than a silent load.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import _cext

needs_compiler = pytest.mark.skipif(
    _cext._find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture
def fresh_resolution(monkeypatch, tmp_path):
    """Re-resolve the kernel against a private cache under ``tmp_path``."""
    monkeypatch.delenv("REPRO_CEXT", raising=False)
    monkeypatch.setattr(_cext, "_cext_fn", None)
    monkeypatch.setattr(_cext, "_cext_resolved", False)
    monkeypatch.setattr(_cext, "_cext_error", None)
    cache = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_CEXT_CACHE", str(cache))
    return cache


@needs_compiler
class TestCacheKey:
    def test_stable_for_identical_inputs(self):
        cc = _cext._find_compiler()
        assert _cext._cache_key(cc) == _cext._cache_key(cc)

    def test_flags_are_part_of_the_key(self, monkeypatch):
        cc = _cext._find_compiler()
        before = _cext._cache_key(cc)
        monkeypatch.setattr(_cext, "_CFLAGS", _cext._CFLAGS + ["-DX=1"])
        assert _cext._cache_key(cc) != before

    def test_numpy_version_is_part_of_the_key(self, monkeypatch):
        cc = _cext._find_compiler()
        before = _cext._cache_key(cc)
        monkeypatch.setattr(_cext.np, "__version__", "0.0.0-other")
        assert _cext._cache_key(cc) != before

    def test_builds_with_warnings_as_errors_and_no_fp_contraction(self):
        assert {"-Wall", "-Werror", "-ffp-contract=off"} <= set(_cext._CFLAGS)


@needs_compiler
class TestCacheDirectoryTrust:
    def test_fresh_directory_is_private_and_loads(self, fresh_resolution):
        assert _cext.kernel_unavailable_reason() is None
        assert (fresh_resolution.stat().st_mode & 0o777) == 0o700
        assert _cext.resolve_batch_kernel() is not None

    def test_group_readable_directory_is_refused(self, fresh_resolution):
        fresh_resolution.mkdir(mode=0o755)
        os.chmod(fresh_resolution, 0o755)
        reason = _cext.kernel_unavailable_reason()
        assert reason is not None and "mode 755" in reason
        assert _cext.resolve_batch_kernel() is None

    def test_foreign_owner_is_refused(self, fresh_resolution, monkeypatch):
        fresh_resolution.mkdir(mode=0o700)
        other = os.getuid() + 1
        monkeypatch.setattr(_cext.os, "getuid", lambda: other)
        reason = _cext.kernel_unavailable_reason()
        assert reason is not None and "owned by uid" in reason

    def test_flag_override_builds_a_second_object(
        self, fresh_resolution, monkeypatch
    ):
        assert _cext.kernel_unavailable_reason() is None
        monkeypatch.setattr(_cext, "_CFLAGS", _cext._CFLAGS + ["-DX=1"])
        monkeypatch.setattr(_cext, "_cext_resolved", False)
        assert _cext.kernel_unavailable_reason() is None
        assert len(list(fresh_resolution.glob("batch_kernel-*.so"))) == 2
