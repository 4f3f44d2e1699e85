"""Durable checkpoints of live streaming-engine state.

A checkpoint is one ``.npz`` file holding every mutable array of a
:func:`repro.sim.stream_engine._run_stream` run (window CSR tables,
worker state and deque links, the victim-draw block) plus a single JSON
blob (``__state__``) with the scalar state: the compiled kernel's loop
state, the victim RNG's ``bit_generator.state``, the stream cursor, and
the online-metric accumulators (schema 2; schema-1 files, from the
earlier Python stream loop, are refused).  Restoring it reproduces the
engine's state *exactly* -- the resumed run emits the same floats as an
uninterrupted one (``tests/sim/test_checkpoint.py``).

Integrity and atomicity follow the PR 2-4 cache substrate:

* writes go to a ``.tmp`` sibling and ``os.replace`` into place, so a
  kill mid-write can never leave a torn file under the final name;
* the file's sha256 is stored in a ``<name>.sha256`` sidecar written
  *after* the data file; a checkpoint without a matching sidecar is
  treated as incomplete and skipped by :func:`latest_checkpoint`, and a
  hash mismatch raises :class:`repro.errors.CacheCorruptError`;
* the saving run's configuration (engine parameters + stream identity)
  is hashed into the payload, and :func:`load_checkpoint` refuses a
  checkpoint whose configuration differs from the resuming run's
  (:class:`repro.errors.SweepConfigError`) -- resuming a 16-worker run
  with ``m=8`` must fail loudly, not corrupt silently.

File layout under a checkpoint directory::

    ckpt-00000003.npz         # arrays + __state__ JSON
    ckpt-00000003.npz.sha256  # integrity sidecar (written last)
    manifests/manifest-*.json # repro.obs manifest of the latest save

Only the trailing ``keep`` checkpoints are retained (older pairs are
deleted after a successful save), so checkpoint disk usage is bounded
like the engine's memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CacheCorruptError, SweepConfigError

PathLike = Union[str, Path]

#: Version stamp embedded in every checkpoint; bump on layout changes.
CHECKPOINT_SCHEMA = "repro-stream-ckpt/2"

_STATE_KEY = "__state__"


def config_digest(config_token: str) -> str:
    """Stable digest of a run configuration token."""
    return hashlib.sha256(config_token.encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def checkpoint_path(directory: PathLike, index: int) -> Path:
    """Canonical file name of checkpoint ``index`` under ``directory``."""
    return Path(directory) / f"ckpt-{index:08d}.npz"


def save_checkpoint(
    directory: PathLike,
    index: int,
    arrays: Dict[str, np.ndarray],
    state: Dict[str, Any],
    config_token: str,
    keep: int = 3,
) -> Path:
    """Durably write checkpoint ``index``; returns the final path.

    ``arrays`` must not contain the reserved ``__state__`` key;
    ``state`` must be JSON-serializable.  After a successful write,
    checkpoints older than the trailing ``keep`` are deleted.
    """
    if _STATE_KEY in arrays:
        raise ValueError(f"array name {_STATE_KEY!r} is reserved")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = dict(state)
    payload["schema"] = CHECKPOINT_SCHEMA
    payload["config_sha"] = config_digest(config_token)
    payload["index"] = int(index)
    blob = np.frombuffer(
        json.dumps(payload, separators=(",", ":")).encode(), dtype=np.uint8
    )

    path = checkpoint_path(directory, index)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays, **{_STATE_KEY: blob})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write leaves no debris
            tmp.unlink()
    digest = _file_sha256(path)
    sidecar = path.with_name(path.name + ".sha256")
    side_tmp = sidecar.with_suffix(f".{os.getpid()}.tmp")
    side_tmp.write_text(digest + "\n")
    os.replace(side_tmp, sidecar)

    if keep > 0:
        for old in list_checkpoints(directory)[:-keep]:
            old.unlink(missing_ok=True)
            old.with_name(old.name + ".sha256").unlink(missing_ok=True)
    return path


def list_checkpoints(directory: PathLike) -> List[Path]:
    """Complete (sidecar-backed) checkpoints, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.glob("ckpt-*.npz")
        if p.with_name(p.name + ".sha256").is_file()
    )


def latest_checkpoint(directory: PathLike) -> Optional[Path]:
    """Newest complete checkpoint under ``directory``, or ``None``."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def load_checkpoint(
    path: PathLike, config_token: str
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read and verify one checkpoint; returns ``(arrays, state)``.

    Raises :class:`CacheCorruptError` when the file does not match its
    integrity sidecar or carries a foreign schema, and
    :class:`SweepConfigError` when it was saved by a run with a
    different configuration than ``config_token``.
    """
    path = Path(path)
    sidecar = path.with_name(path.name + ".sha256")
    if not sidecar.is_file():
        raise CacheCorruptError(
            f"{path}: missing integrity sidecar {sidecar.name} "
            f"(incomplete checkpoint write?)"
        )
    expected = sidecar.read_text().strip()
    actual = _file_sha256(path)
    if actual != expected:
        raise CacheCorruptError(
            f"{path}: content hash {actual[:16]}... does not match "
            f"sidecar {expected[:16]}..."
        )
    arrays: Dict[str, np.ndarray] = {}
    with np.load(path, allow_pickle=False) as archive:
        for name in archive.files:
            arrays[name] = archive[name]
    blob = arrays.pop(_STATE_KEY, None)
    if blob is None:
        raise CacheCorruptError(f"{path}: no {_STATE_KEY} payload")
    state = json.loads(blob.tobytes().decode())
    schema = state.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        hint = ""
        if str(schema).startswith("repro-stream-ckpt/"):
            hint = (
                " -- another version of the streaming engine wrote it, in "
                "a state layout this one cannot resume; start a fresh run "
                "in a new checkpoint_dir"
            )
        raise CacheCorruptError(
            f"{path}: schema {schema!r} is not {CHECKPOINT_SCHEMA!r}{hint}"
        )
    if state.get("config_sha") != config_digest(config_token):
        raise SweepConfigError(
            f"{path} was saved by a run with a different configuration "
            f"(stream spec, m, k, steals_per_tick, speed, quantiles or "
            f"utilization window changed); refusing to resume.  Point "
            f"checkpoint_dir at a fresh directory or restore the "
            f"original parameters."
        )
    return arrays, state
