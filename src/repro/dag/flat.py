"""Flat CSR interchange format for whole scheduling instances.

A :class:`FlatInstance` encodes a :class:`~repro.dag.job.JobSet` as six
numpy arrays -- the compressed-sparse-row (CSR) layout used by graph
libraries -- instead of a Python object graph:

* ``node_works``        -- ``int64[N]``, per-node work over *all* jobs;
* ``edge_offsets``      -- ``int64[N + 1]``, CSR row pointers: node ``v``'s
  successor ids live in ``edge_targets[edge_offsets[v]:edge_offsets[v+1]]``;
* ``edge_targets``      -- ``int64[E]``, successor node ids (global);
* ``job_node_offsets``  -- ``int64[n_jobs + 1]``, job ``i`` owns the node
  span ``[job_node_offsets[i], job_node_offsets[i+1])``;
* ``arrivals``          -- ``float64[n_jobs]``, release times;
* ``weights``           -- ``float64[n_jobs]``, priority weights.

Node ids are global: job ``i``'s node ``v`` is global id
``job_node_offsets[i] + v``, and every edge stays inside its job's span.

Why it exists (see ISSUE 2): the object graph is the right API for
schedulers, but it is the wrong wire/storage format.  Flat arrays can be
hashed for content-addressed caching, written to disk as a single
``.npz``, and shipped across process boundaries through
``multiprocessing.shared_memory`` without pickling a single Python
object.  The round-trip is lossless: :func:`to_jobset` rebuilds the
exact DAG structure, arrivals and weights that :func:`flatten_jobset`
consumed (asserted by ``tests/dag/test_flat.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from repro.dag.graph import JobDag
from repro.dag.job import Job, JobSet

PathLike = Union[str, Path]

#: Array fields of a FlatInstance, in canonical (hash/serialize) order.
_FIELDS: Tuple[Tuple[str, type], ...] = (
    ("node_works", np.int64),
    ("edge_offsets", np.int64),
    ("edge_targets", np.int64),
    ("job_node_offsets", np.int64),
    ("arrivals", np.float64),
    ("weights", np.float64),
)

#: Version stamp carried by on-disk and shared-memory payloads.
FLAT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FlatInstance:
    """A whole scheduling instance as six flat numpy arrays (see module doc).

    Arrays are read-only views; instances are safe to share between
    threads and to alias onto shared-memory buffers.
    """

    node_works: np.ndarray
    edge_offsets: np.ndarray
    edge_targets: np.ndarray
    job_node_offsets: np.ndarray
    arrivals: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _FIELDS:
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n_jobs = self.n_jobs
        if len(self.arrivals) != n_jobs or len(self.weights) != n_jobs:
            raise ValueError(
                f"arrivals/weights must have one entry per job "
                f"({n_jobs}), got {len(self.arrivals)}/{len(self.weights)}"
            )
        if len(self.edge_offsets) != self.n_nodes + 1:
            raise ValueError(
                f"edge_offsets must have n_nodes + 1 = {self.n_nodes + 1} "
                f"entries, got {len(self.edge_offsets)}"
            )

    # -- shape accessors ----------------------------------------------------

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the instance."""
        return len(self.job_node_offsets) - 1

    @property
    def n_nodes(self) -> int:
        """Total node count over all jobs."""
        return len(self.node_works)

    @property
    def n_edges(self) -> int:
        """Total precedence-edge count over all jobs."""
        return len(self.edge_targets)

    @property
    def nbytes(self) -> int:
        """Total payload size in bytes (the shared-memory footprint)."""
        return sum(getattr(self, name).nbytes for name, _ in _FIELDS)

    def job_slice(self, i: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Job ``i``'s (works, edge_offsets, edge_targets) in local ids.

        The returned ``edge_offsets``/``edge_targets`` are rebased so the
        job reads as a standalone CSR graph with node ids in
        ``[0, n_nodes_i)``.
        """
        lo, hi = int(self.job_node_offsets[i]), int(self.job_node_offsets[i + 1])
        e_lo, e_hi = int(self.edge_offsets[lo]), int(self.edge_offsets[hi])
        return (
            self.node_works[lo:hi],
            self.edge_offsets[lo : hi + 1] - e_lo,
            self.edge_targets[e_lo:e_hi] - lo,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatInstance):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatInstance(n_jobs={self.n_jobs}, n_nodes={self.n_nodes}, "
            f"n_edges={self.n_edges})"
        )


# ----------------------------------------------------------------------
# Object graph -> flat
# ----------------------------------------------------------------------


def flatten_jobset(jobset: JobSet) -> FlatInstance:
    """Encode a :class:`JobSet` into CSR arrays (jobs stay in set order).

    Jobs that share one :class:`JobDag` object (e.g. the adversarial
    instance) are flattened once and their spans replicated, so the cost
    is proportional to the number of *distinct* DAGs plus the output
    size, not to naive per-job re-walks.

    The result is cached on the JobSet: a JobSet is immutable after
    construction (``_jobs`` is a tuple and there is no mutation API), so
    run -> sweep paths that repeatedly flatten the same instance -- the
    measured ``flatten_jobset`` hot spot -- pay the walk once.
    :func:`to_jobset` pre-seeds the same cache on the sets it rebuilds.
    """
    cached = getattr(jobset, "_flat_cache", None)
    if cached is not None:
        return cached
    n_jobs = len(jobset)
    job_nodes = np.empty(n_jobs, dtype=np.int64)
    arrivals = np.empty(n_jobs, dtype=np.float64)
    weights = np.empty(n_jobs, dtype=np.float64)

    # Per distinct DAG (by identity): local works / out-degrees / targets.
    dag_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    per_job: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for i, job in enumerate(jobset):
        key = id(job.dag)
        entry = dag_cache.get(key)
        if entry is None:
            dag = job.dag
            works = np.asarray(dag.works, dtype=np.int64)
            degrees = np.fromiter(
                (len(s) for s in dag.successors), dtype=np.int64,
                count=dag.n_nodes,
            )
            if dag.n_edges:
                targets = np.concatenate(
                    [np.asarray(s, dtype=np.int64) for s in dag.successors
                     if s]
                )
            else:
                targets = np.empty(0, dtype=np.int64)
            entry = (works, degrees, targets)
            dag_cache[key] = entry
        per_job.append(entry)
        job_nodes[i] = len(entry[0])
        arrivals[i] = job.arrival
        weights[i] = job.weight

    job_node_offsets = np.zeros(n_jobs + 1, dtype=np.int64)
    np.cumsum(job_nodes, out=job_node_offsets[1:])
    n_nodes = int(job_node_offsets[-1])

    node_works = np.empty(n_nodes, dtype=np.int64)
    degrees_all = np.empty(n_nodes, dtype=np.int64)
    target_blocks: List[np.ndarray] = []
    for i, (works, degrees, targets) in enumerate(per_job):
        lo = job_node_offsets[i]
        node_works[lo : lo + len(works)] = works
        degrees_all[lo : lo + len(works)] = degrees
        if len(targets):
            target_blocks.append(targets + lo)
    edge_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(degrees_all, out=edge_offsets[1:])
    edge_targets = (
        np.concatenate(target_blocks)
        if target_blocks
        else np.empty(0, dtype=np.int64)
    )
    flat = FlatInstance(
        node_works=node_works,
        edge_offsets=edge_offsets,
        edge_targets=edge_targets,
        job_node_offsets=job_node_offsets,
        arrivals=arrivals,
        weights=weights,
    )
    jobset._flat_cache = flat
    return flat


# ----------------------------------------------------------------------
# Flat -> object graph
# ----------------------------------------------------------------------


def to_jobset(flat: FlatInstance) -> JobSet:
    """Rebuild the exact :class:`JobSet` a :class:`FlatInstance` encodes.

    Structurally identical jobs (same works and edges) share one rebuilt
    :class:`JobDag` object, mirroring -- and often improving on -- the
    sharing of the original object graph.  DAGs are constructed through
    the trusted CSR path (:meth:`JobDag.from_csr`): the arrays came from
    a validated DAG, so re-validating every span would only duplicate
    work already done at first construction.
    """
    jobs: List[Job] = []
    rebuilt: Dict[bytes, JobDag] = {}
    arrivals = flat.arrivals
    weights = flat.weights
    for i in range(flat.n_jobs):
        works, offsets, targets = flat.job_slice(i)
        key = b"".join(
            (works.tobytes(), offsets.tobytes(), targets.tobytes())
        )
        dag = rebuilt.get(key)
        if dag is None:
            dag = JobDag.from_csr(works, offsets, targets)
            rebuilt[key] = dag
        jobs.append(
            Job(
                job_id=i,
                dag=dag,
                arrival=float(arrivals[i]),
                weight=float(weights[i]),
            )
        )
    jobset = JobSet(jobs)
    if flat.n_jobs <= 1 or bool(np.all(arrivals[1:] >= arrivals[:-1])):
        # The round trip is lossless, so flattening the rebuilt set would
        # reproduce `flat` byte for byte -- pre-seed the flatten cache.
        # (Only when arrivals were already sorted: JobSet re-sorts, so an
        # unsorted input permutes job order and the cache would be wrong.)
        jobset._flat_cache = flat
    return jobset


# ----------------------------------------------------------------------
# Derived tables the tick kernels read
# ----------------------------------------------------------------------


def kernel_tables(
    edge_offsets: np.ndarray, edge_targets: np.ndarray, job_node_offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(indeg, chain, roots, job_of, jro)`` of one CSR instance, int64.

    ``indeg`` is each node's in-degree (its initial predecessor count);
    ``chain[v]`` is the sole successor of an out-degree-1 node whose
    successor has in-degree 1 (the O(1) continuation), else -1;
    ``roots`` lists the in-degree-0 nodes in ascending order; ``job_of``
    maps nodes to jobs; job ``j``'s roots are ``roots[jro[j]:jro[j+1]]``.
    Edges never cross jobs, so the tables of a concatenation are the
    rebased tables of its parts.
    """
    n_nodes = len(edge_offsets) - 1
    indeg = np.bincount(edge_targets, minlength=n_nodes).astype(
        np.int64, copy=False
    )
    chain = np.full(n_nodes, -1, dtype=np.int64)
    cand = np.flatnonzero(np.diff(edge_offsets) == 1)
    if cand.size:
        tgt = edge_targets[edge_offsets[cand]]
        ok = indeg[tgt] == 1
        chain[cand[ok]] = tgt[ok]
    roots = np.flatnonzero(indeg == 0).astype(np.int64, copy=False)
    job_of = np.repeat(
        np.arange(len(job_node_offsets) - 1, dtype=np.int64),
        np.diff(job_node_offsets),
    )
    jro = np.searchsorted(roots, job_node_offsets).astype(np.int64, copy=False)
    return indeg, chain, roots, job_of, jro


# ----------------------------------------------------------------------
# Per-job scalars (what OPT reads)
# ----------------------------------------------------------------------


#: Node budget of one :func:`job_spans` block.  Edges never cross jobs,
#: so runs of whole jobs are independent; bounding a run bounds the
#: temporaries (a 3M-node instance would otherwise allocate a dozen
#: full-length arrays at its widest level).
_SPAN_BLOCK_NODES = 1 << 18


def _per_job(
    ufunc: np.ufunc, node_values: np.ndarray, job_offsets: np.ndarray
) -> np.ndarray:
    """``ufunc``-reduce ``node_values`` over each job's nodes (0 if none)."""
    out = np.zeros(len(job_offsets) - 1, dtype=np.int64)
    nonempty = job_offsets[1:] > job_offsets[:-1]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(node_values, job_offsets[:-1][nonempty])
    return out


def job_works(flat: FlatInstance) -> np.ndarray:
    """Per-job total work ``W_i``, ``int64[n_jobs]`` (= ``JobSet.works``)."""
    return _per_job(np.add, flat.node_works, flat.job_node_offsets)


def job_spans(flat: FlatInstance) -> np.ndarray:
    """Per-job critical-path length ``P_i``, ``int64[n_jobs]``.

    Equals ``JobSet.spans`` for any node numbering inside a job (node
    ids need not be topologically ordered).  Runs Kahn's algorithm on
    blocks of whole jobs (see :func:`_finish_times`), so the cost is
    O(nodes + edges) numpy work plus one vectorized step per DAG level
    and block.  Raises :class:`~repro.dag.graph.DagValidationError` on a
    cycle.
    """
    offsets = flat.job_node_offsets
    edge_offsets = flat.edge_offsets
    spans = np.zeros(flat.n_jobs, dtype=np.int64)
    j = 0
    while j < flat.n_jobs:
        lo = int(offsets[j])
        # Jobs j..k-1: as many as fit the node budget, at least one.
        k = int(np.searchsorted(offsets, lo + _SPAN_BLOCK_NODES, "right")) - 1
        k = max(k, j + 1)
        hi = int(offsets[k])
        e_lo, e_hi = int(edge_offsets[lo]), int(edge_offsets[hi])
        finish = _finish_times(
            flat.node_works[lo:hi],
            edge_offsets[lo : hi + 1] - e_lo,
            flat.edge_targets[e_lo:e_hi] - lo,
        )
        spans[j:k] = _per_job(np.maximum, finish, offsets[j : k + 1] - lo)
        j = k
    return spans


def _finish_times(
    works: np.ndarray, edge_offsets: np.ndarray, edge_targets: np.ndarray
) -> np.ndarray:
    """Each node's earliest finish (longest weighted path ending at it).

    Kahn's algorithm on a whole CSR graph at once: each step settles the
    frontier of ready nodes and relaxes only their out-edges.
    """
    from repro.dag.graph import DagValidationError

    n_nodes = len(works)
    remaining = np.bincount(edge_targets, minlength=n_nodes)
    # start[v]: the latest finish of v's predecessors settled so far.
    start = np.zeros(n_nodes, dtype=np.int64)
    finish = np.zeros(n_nodes, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    settled = 0
    while frontier.size:
        settled += frontier.size
        done = start[frontier] + works[frontier]
        finish[frontier] = done
        first = edge_offsets[frontier]
        degree = edge_offsets[frontier + 1] - first
        n_out = int(degree.sum())
        if not n_out:
            break
        # Edge ids of every frontier out-edge, frontier node by node.
        base = np.repeat(first - (np.cumsum(degree) - degree), degree)
        succ = edge_targets[base + np.arange(n_out, dtype=np.int64)]
        np.maximum.at(start, succ, np.repeat(done, degree))
        if 4 * n_out >= n_nodes:
            # A wide level: one O(nodes) count beats sorting its edges,
            # and wide levels are few enough to keep the total linear.
            hits = np.bincount(succ, minlength=n_nodes)
            remaining -= hits
            frontier = np.flatnonzero((hits > 0) & (remaining == 0))
        else:
            succ, hits = np.unique(succ, return_counts=True)
            remaining[succ] -= hits
            frontier = succ[remaining[succ] == 0]
    if settled != n_nodes:
        raise DagValidationError(
            f"instance contains a cycle ({n_nodes - settled} nodes never "
            "became ready)"
        )
    return finish


# ----------------------------------------------------------------------
# Segmented CSR: append
# ----------------------------------------------------------------------


def concat_flat(segments: "List[FlatInstance]") -> FlatInstance:
    """Concatenate instances job-wise into one instance.

    Node ids and CSR offsets are rebased so job ``k`` of segment ``s``
    becomes a global job with identical structure; edges never cross
    jobs, so rebasing targets by each segment's node base is exact.
    This is the materialization step of the streaming workload path
    (:meth:`repro.workloads.stream.StreamSpec.materialize`).
    """
    if not segments:
        raise ValueError("concat_flat needs at least one segment")
    if len(segments) == 1:
        return segments[0]
    node_base = 0
    edge_offset_parts = [np.zeros(1, dtype=np.int64)]
    edge_target_parts = []
    job_offset_parts = [np.zeros(1, dtype=np.int64)]
    edge_base = 0
    job_node_base = 0
    for seg in segments:
        edge_offset_parts.append(seg.edge_offsets[1:] + edge_base)
        edge_target_parts.append(seg.edge_targets + node_base)
        job_offset_parts.append(seg.job_node_offsets[1:] + job_node_base)
        node_base += seg.n_nodes
        edge_base += seg.n_edges
        job_node_base += seg.n_nodes
    return FlatInstance(
        node_works=np.concatenate([s.node_works for s in segments]),
        edge_offsets=np.concatenate(edge_offset_parts),
        edge_targets=np.concatenate(edge_target_parts),
        job_node_offsets=np.concatenate(job_offset_parts),
        arrivals=np.concatenate([s.arrivals for s in segments]),
        weights=np.concatenate([s.weights for s in segments]),
    )


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------


def content_hash(flat: FlatInstance) -> str:
    """A stable sha256 hex digest of the instance's full content.

    The digest covers every array's dtype-tagged bytes plus the format
    version, so two instances hash equal iff :func:`flatten_jobset`
    produced byte-identical arrays -- the key used by the
    content-addressed sweep cache (:mod:`repro.experiments.cache`).
    """
    h = hashlib.sha256()
    h.update(f"repro-flat/{FLAT_FORMAT_VERSION}".encode())
    for name, _ in _FIELDS:
        arr = getattr(flat, name)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.int64(len(arr)).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Disk serialization
# ----------------------------------------------------------------------


def save_flat(flat: FlatInstance, path: PathLike) -> None:
    """Write an instance as an uncompressed ``.npz`` archive."""
    with open(path, "wb") as fh:
        np.savez(fh, **{name: getattr(flat, name) for name, _ in _FIELDS})


def load_flat(path: PathLike) -> FlatInstance:
    """Read an instance written by :func:`save_flat`."""
    with np.load(path, allow_pickle=False) as archive:
        return FlatInstance(**{name: archive[name] for name, _ in _FIELDS})


# ----------------------------------------------------------------------
# Buffer packing (the shared-memory wire format)
# ----------------------------------------------------------------------


def pack_into(flat: FlatInstance, buf) -> Dict[str, Any]:
    """Copy the arrays into ``buf`` back to back; returns the layout meta.

    ``buf`` is any writable buffer of at least :attr:`FlatInstance.nbytes`
    bytes (typically a ``multiprocessing.shared_memory`` block).  The
    returned meta dict is tiny, JSON/pickle-friendly, and everything
    :func:`unpack_from` needs to rebuild zero-copy views.
    """
    layout = []
    offset = 0
    for name, _ in _FIELDS:
        arr = getattr(flat, name)
        end = offset + arr.nbytes
        view = np.frombuffer(buf, dtype=arr.dtype, count=len(arr), offset=offset)
        view[:] = arr
        layout.append((name, str(arr.dtype), int(len(arr)), int(offset)))
        offset = end
    return {
        "format_version": FLAT_FORMAT_VERSION,
        "nbytes": offset,
        "layout": layout,
    }


def unpack_from(buf, meta: Dict[str, Any]) -> FlatInstance:
    """Rebuild a :class:`FlatInstance` of zero-copy views over ``buf``.

    No array data is copied: the returned instance aliases ``buf``, so
    the buffer must outlive the instance (the dispatch layer in
    :mod:`repro.experiments.parallel` guarantees this by holding the
    shared-memory block open for the worker's lifetime).
    """
    version = meta.get("format_version", FLAT_FORMAT_VERSION)
    if version > FLAT_FORMAT_VERSION:
        raise ValueError(
            f"flat payload has format version {version}; this library "
            f"reads up to {FLAT_FORMAT_VERSION}"
        )
    arrays = {}
    for name, dtype, count, offset in meta["layout"]:
        arrays[name] = np.frombuffer(
            buf, dtype=np.dtype(dtype), count=count, offset=offset
        )
    return FlatInstance(**arrays)


def meta_to_json(meta: Dict[str, Any]) -> str:
    """Serialize a :func:`pack_into` meta dict to compact JSON."""
    return json.dumps(meta, separators=(",", ":"))


def meta_from_json(text: str) -> Dict[str, Any]:
    """Inverse of :func:`meta_to_json`."""
    return json.loads(text)
