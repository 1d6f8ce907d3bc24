"""Persistent cross-run layer-report cache: the L2 tier of the cost models.

Layer reports are pure functions of (layer shape, clipped mapping key,
bandwidths, cost-backend configuration), and the gene-matrix path already
fingerprints that whole composite key into content-addressed row bytes
(see :meth:`repro.cost.maestro.CostModel.evaluate_model_matrix`).  This
module turns those fingerprints into a crash-safe on-disk store shared by
every cost model that opens it — the frameworks of one sweep, concurrent
processes (shards, concurrent searches) and successive runs: repeat
queries become lookups instead of engine evaluations.  The scalar tuple
path keeps its in-memory :class:`~repro.cost.cache.LRUCache` as an L1
over this tier; the gene-matrix path probes it once per unique row of a
call.

Keying
------

Entries are addressed by a SHA-1 digest of three parts:

* a **namespace** — :data:`KEY_VERSION`, the cost-backend name, the
  element width and the energy coefficients — so rows priced under
  different backends or technology models can never alias;
* a **statics blob** — the layer's canonical shape signature (operator
  name, dimension sizes, stride).  The in-memory fingerprints embed the
  layer's *process-local* slot in the cost model's vector-engine statics
  table; the digest replaces it with this content form, which is what
  makes the key stable across processes and runs; and
* the **gene tail** — the per-level (spatial, parallel, order, tiles)
  integers plus both bandwidth float bit patterns, exactly the layout of
  a matrix work row after its statics-slot column.

The scalar tuple keys and the packed matrix rows canonicalize to the same
digest, so a search warmed on one engine path serves every other.

Durability
----------

The data file is an append-only log: one JSON header line, then one
text line per row::

    <base64 digest> <type codes> <base64 payload>\n

The 20-byte digest encodes to 28 characters; the type codes hold one
letter per value (``d`` float64, ``q`` int64); the payload is the values
packed little-endian in that order (a ``struct.Struct`` per type
signature).  A 13-value layer report makes a 184-byte line, and
integers outside int64 are not stored (such a row is priced again on a
later miss).

Both files are written under the rules of :mod:`repro.durable`: each
flush is one append of whole lines, whose records take their offsets
from where that append actually landed, and the index is replaced
atomically.  Undecodable lines are counted and reported via
:class:`PersistentCacheCorruption` — a damaged record is *never served*;
lookups re-verify the stored digest before returning a row.  The binary
index sidecar is a rebuildable accelerator covering a prefix of the data
file: it claims only bytes whose rows its writer indexed, so rows other
writers appended past that prefix are picked up by the next opener's
tail scan, and any inconsistency (torn entry, stale header, wrong
version) discards it and rescans the data file, which remains the single
source of truth.  A data file whose header does not match
:data:`FORMAT_NAME`/:data:`KEY_VERSION` — including every store written
in the earlier JSON-record format — is quarantined once and the cache
starts fresh, re-pricing its rows, rather than risk serving rows keyed or
encoded under different rules.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import os
import struct
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro import durable

#: Bump when the digest composition or the record layout changes; stores
#: written under another version are quarantined, never reinterpreted.
#: Version 2 replaced the JSON ``{"k", "v"}`` records with packed base64
#: lines.
KEY_VERSION = 2

#: Header ``format`` field of the data file.
FORMAT_NAME = "repro-layer-cache"

#: File names inside the cache directory.
DATA_FILE = "layers.jsonl"
INDEX_FILE = "layers.index"

#: First line of every data file.
_HEADER = (
    json.dumps({"format": FORMAT_NAME, "version": 1, "key_version": KEY_VERSION})
    + "\n"
).encode()

_INDEX_MAGIC = b"RPLC"
_INDEX_VERSION = 1
#: magic, index version, key version, covered data size, entry count.
_INDEX_HEADER = struct.Struct("<4sIIQQ")
#: 20-byte SHA-1 digest, data-file offset, record length.
_INDEX_RECORD = struct.Struct("<20sQI")


class PersistentCacheCorruption(UserWarning):
    """A persistent cache file contained damaged or mismatched content.

    Mirrors :class:`~repro.experiments.runner.ResultStoreCorruption`
    semantics: the store heals or quarantines and keeps working; nothing
    damaged is ever served back as a layer report.
    """


# -- digest helpers ------------------------------------------------------------

#: Content blobs per canonical statics instance (statics are identity-
#: hashed and immortal — see :mod:`repro.workloads.statics` — so this
#: memo is bounded by the number of distinct layer shapes ever seen).
_STATICS_BLOBS: Dict[object, bytes] = {}


def cache_namespace(
    backend: str,
    bytes_per_element: int,
    energy_coefficients: Sequence[float],
) -> bytes:
    """Digest scoping every key to one cost-backend configuration.

    Joins :data:`KEY_VERSION`, so a format bump invalidates every old
    digest at once; bandwidths live in the gene tail, and the model
    identity is carried by each row's statics blob, so neither needs to
    appear here.
    """
    blob = repr(
        (
            KEY_VERSION,
            str(backend),
            int(bytes_per_element),
            tuple(float(value) for value in energy_coefficients),
        )
    ).encode()
    return hashlib.sha1(blob).digest()


def statics_blob(statics) -> bytes:
    """Stable content form of one layer-shape signature."""
    blob = _STATICS_BLOBS.get(statics)
    if blob is None:
        op_type, dims, stride = statics.signature
        blob = repr((op_type.name, tuple(dims), int(stride))).encode()
        _STATICS_BLOBS[statics] = blob
    return blob


def row_hasher(namespace: bytes, blob: bytes):
    """SHA-1 state over (namespace, statics blob), ready for a gene tail.

    Batch callers hash this prefix once per layer and pass it to
    :func:`matrix_tail_digest` per row, which yields exactly
    :func:`matrix_row_digest`.
    """
    state = hashlib.sha1(namespace)
    state.update(blob)
    return state


def row_digest(namespace: bytes, blob: bytes, tail: bytes) -> bytes:
    """SHA-1 of (namespace, statics blob, gene tail) — the L2 address."""
    state = row_hasher(namespace, blob)
    state.update(tail)
    return state.digest()


def matrix_tail_digest(prefix_state, fingerprint: bytes) -> bytes:
    """Digest of one packed work row from its layer's :func:`row_hasher`.

    The row's 8-byte statics-slot column is process-local, so it is
    stripped and only the gene tail is hashed; ``prefix_state`` is copied,
    not consumed.
    """
    state = prefix_state.copy()
    state.update(fingerprint[8:])
    return state.digest()


def matrix_row_digest(namespace: bytes, blob: bytes, fingerprint: bytes) -> bytes:
    """Digest of one packed work row (slot column stripped, tail kept)."""
    return matrix_tail_digest(row_hasher(namespace, blob), fingerprint)


def tuple_key_digest(
    namespace: bytes,
    statics,
    key: tuple,
    noc_bandwidth: float,
    dram_bandwidth: float,
) -> bytes:
    """Digest of one scalar-path composite cache key.

    Flattens the per-level ``((spatial, parallel, order), tiles)`` tuples
    in matrix gene order and appends both bandwidth float bit patterns,
    reproducing a packed work row's byte tail exactly, so scalar- and
    matrix-path queries for the same logical row share one digest.  Keys
    whose integers exceed int64 (possible on the exact tuple path, never
    on a matrix row) fall back to a ``repr`` tail: still deterministic,
    just not shared with the matrix form that cannot represent them.
    """
    genes = []
    for (spatial, parallel, order), tiles in key:
        genes.append(spatial)
        genes.append(parallel)
        genes.extend(order)
        genes.extend(tiles)
    try:
        tail = struct.pack(f"={len(genes)}q", *genes)
    except (struct.error, OverflowError):
        tail = repr(key).encode()
    tail += struct.pack("=dd", noc_bandwidth, dram_bandwidth)
    return row_digest(namespace, statics_blob(statics), tail)


def _plain(value: Union[int, float]) -> Union[int, float]:
    """Coerce a report scalar to a built-in int or float."""
    kind = type(value)
    if kind is int or kind is float:
        return value
    if isinstance(value, float):
        return float(value)
    return int(value)


# -- record codec --------------------------------------------------------------

#: Packed payload layout per type-code string (``b"ddq"`` -> ``"<ddq"``).
_LAYOUTS: Dict[bytes, struct.Struct] = {}
#: Type codes and layout per tuple of built-in value types, for ``put``.
_SIGNATURES: Dict[tuple, Tuple[bytes, struct.Struct]] = {}


def _layout(codes: bytes) -> struct.Struct:
    """The little-endian ``struct`` layout of one type-code string."""
    layout = _LAYOUTS.get(codes)
    if layout is None:
        if not codes or codes.translate(None, b"dq"):
            raise ValueError(f"bad value type codes {codes!r}")
        layout = _LAYOUTS[codes] = struct.Struct("<" + codes.decode())
    return layout


def _signature(kinds: tuple) -> Tuple[bytes, struct.Struct]:
    """Type codes and layout for a tuple of built-in float/int types."""
    signature = _SIGNATURES.get(kinds)
    if signature is None:
        codes = "".join("d" if kind is float else "q" for kind in kinds).encode()
        signature = _SIGNATURES[kinds] = (codes, _layout(codes))
    return signature


def _unbase64(token: bytes) -> bytes:
    """Strict base64 decode: only the canonical encoding of a value passes."""
    raw = binascii.a2b_base64(token)
    if binascii.b2a_base64(raw, newline=False) != token:
        raise ValueError("non-canonical base64")
    return raw


def _encode_record(digest: bytes, codes: bytes, payload: bytes) -> bytes:
    """One data line: base64 digest, type codes, base64 packed values."""
    return b"%s %s %s\n" % (
        binascii.b2a_base64(digest, newline=False),
        codes,
        binascii.b2a_base64(payload, newline=False),
    )


def _decode_record(line: bytes) -> Tuple[bytes, tuple]:
    """Parse one data line into (digest, values); ``ValueError`` if damaged.

    Bad base64, an unknown type code, or a payload whose length is not 8
    bytes per code all raise, so a damaged line is never served.
    """
    key, codes, payload = line.split()
    digest = _unbase64(key)
    if len(digest) != 20:
        raise ValueError("digest is not 20 bytes")
    try:
        return digest, _layout(codes).unpack(_unbase64(payload))
    except struct.error as error:
        raise ValueError(str(error)) from None


class PersistentLayerCache:
    """Crash-safe shared on-disk store of layer-report value tuples.

    One instance fronts one cache directory.  Opening is lazy (the first
    ``get``/``put`` touches disk), writes buffer in memory until
    :meth:`flush` — which the cost models call once per evaluation pass,
    emitting the whole batch as a single ``O_APPEND`` write — and
    :meth:`close` additionally rewrites the index sidecar atomically.  A
    closed cache transparently reopens on the next lookup, so closing an
    evaluator never leaves its cost model without a working tier.

    Concurrent processes that open the same directory (sweep shards,
    concurrent searches) read and append the same store;
    :func:`repro.durable.append` keeps concurrent appends intact at line
    granularity.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        #: Tier counters (this instance; other processes count their own).
        self.l2_hits = 0
        self.l2_misses = 0
        self.l2_writes = 0
        #: Undecodable / mismatched data lines seen while scanning.
        self.corrupt_lines = 0
        #: Entries found on disk at open — the cross-run carryover.
        self.loaded_entries = 0
        self._offsets: Optional[Dict[bytes, Tuple[int, int]]] = None
        #: digest -> (values, type codes, packed payload) awaiting flush.
        self._buffer: Dict[bytes, Tuple[tuple, bytes, bytes]] = {}
        self._descriptor: Optional[int] = None
        #: Data bytes whose every record is in ``_offsets`` (what the index
        #: may claim), and the file end as this instance last saw it.
        self._covered = 0
        self._known_end = 0

    # -- paths -------------------------------------------------------------

    @property
    def data_path(self) -> Path:
        return self.directory / DATA_FILE

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_FILE

    # -- lookups / inserts -------------------------------------------------

    def get(self, digest: bytes) -> Optional[tuple]:
        """Return the stored value tuple for ``digest`` or ``None``.

        Every served row is re-verified against its stored digest: a
        record that fails to parse or keys differently (bit rot, torn
        write) counts as corruption and reads as a miss — the caller
        falls back to engine pricing, never to a wrong row.
        """
        if self._offsets is None:
            self._open()
        pending = self._buffer.get(digest)
        if pending is not None:
            self.l2_hits += 1
            return pending[0]
        location = self._offsets.get(digest)
        if location is None:
            self.l2_misses += 1
            return None
        offset, length = location
        values = self._read_record(digest, offset, length)
        if values is None:
            del self._offsets[digest]
            self.corrupt_lines += 1
            self.l2_misses += 1
            warnings.warn(
                f"{self.data_path}: dropped one unreadable cache record at "
                f"offset {offset} (served as a miss)",
                PersistentCacheCorruption,
                stacklevel=2,
            )
            return None
        self.l2_hits += 1
        return values

    def put(self, digest: bytes, values: Sequence[Union[int, float]]) -> None:
        """Buffer one freshly priced row for the next :meth:`flush`.

        A tuple of built-in floats and ints is kept as given; anything else
        (NumPy scalars, bools, lists) is coerced to one first.  A row with
        an integer outside int64 cannot be packed: it is skipped without
        raising (not buffered, not counted), and is priced again on a later
        miss.
        """
        if self._offsets is None:
            self._open()
        if digest in self._buffer or digest in self._offsets:
            return
        signature = _SIGNATURES.get(tuple(map(type, values)))
        if signature is None or type(values) is not tuple:
            values = tuple(_plain(value) for value in values)
            signature = _signature(tuple(map(type, values)))
        codes, layout = signature
        try:
            payload = layout.pack(*values)
        except struct.error:
            return
        self._buffer[digest] = (values, codes, payload)
        self.l2_writes += 1

    def flush(self) -> None:
        """Append all buffered rows as one crash-safe ``write`` syscall."""
        if not self._buffer:
            return
        lines = [
            _encode_record(digest, codes, payload)
            for digest, (_, codes, payload) in self._buffer.items()
        ]
        start, newline, whole = durable.append(
            self._ensure_descriptor(), b"".join(lines)
        )
        offsets = self._offsets
        cursor = start + newline
        for digest, line in zip(self._buffer, lines):
            offsets[digest] = (cursor, len(line))
            cursor += len(line)
        if start == self._known_end and whole:
            # Nothing foreign landed since this instance last saw the end
            # of the file (a partial line it scanned is now closed by the
            # newline), so the index may claim these bytes too.
            self._covered = self._known_end = cursor
        self._buffer.clear()

    def close(self) -> None:
        """Flush, persist the index sidecar and release the descriptor.

        Idempotent, and not terminal: the next lookup reopens the store
        (now with a fresh index, so reopening is cheap).
        """
        if self._offsets is None:
            return
        self.flush()
        self._write_index()
        if self._descriptor is not None:
            os.close(self._descriptor)
            self._descriptor = None
        self._offsets = None

    # -- introspection -----------------------------------------------------

    @property
    def entries(self) -> int:
        """Rows addressable right now (opens the store if needed)."""
        if self._offsets is None:
            self._open()
        return len(self._offsets) + len(self._buffer)

    def counters(self) -> Dict[str, int]:
        """The three tier counters, in ``vector_stats`` key form."""
        return {
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "l2_writes": self.l2_writes,
        }

    def stats(self) -> Dict[str, Union[int, float, str]]:
        """JSON-ready tier statistics (counters, sizes, hit rate)."""
        requests = self.l2_hits + self.l2_misses
        return {
            "directory": str(self.directory),
            "hits": self.l2_hits,
            "misses": self.l2_misses,
            "writes": self.l2_writes,
            "hit_rate": (self.l2_hits / requests) if requests else 0.0,
            "entries": self.entries,
            "loaded_entries": self.loaded_entries,
            "corrupt_lines": self.corrupt_lines,
        }

    def verify(self) -> Dict[str, Union[int, bool, str]]:
        """Read-only integrity report of the data file."""
        offsets: Dict[bytes, Tuple[int, int]] = {}
        corrupt, _, _ = self._scan_data(0, offsets)
        return {
            "path": str(self.data_path),
            "entries": len(offsets),
            "corrupt_lines": corrupt,
            "ok": corrupt == 0,
        }

    # -- internals ---------------------------------------------------------

    def _open(self) -> None:
        """Load (or initialize) the store: header check, index, tail scan."""
        path = self.data_path
        if path.exists() and path.stat().st_size > 0 and not self._header_ok():
            self._quarantine()
        descriptor = self._ensure_descriptor()
        if os.fstat(descriptor).st_size == 0:
            durable.append(descriptor, _HEADER)
        offsets: Dict[bytes, Tuple[int, int]] = {}
        corrupt, covered, end = self._scan_data(
            self._load_index(offsets) or 0, offsets
        )
        if corrupt:
            warnings.warn(
                f"{path}: skipped {corrupt} undecodable cache "
                "line(s); damaged rows are re-priced by the "
                "engine, never served",
                PersistentCacheCorruption,
                stacklevel=3,
            )
            self.corrupt_lines += corrupt
        self._offsets = offsets
        self._covered, self._known_end = covered, end
        self.loaded_entries = len(offsets)

    def _header_ok(self) -> bool:
        """True when the data file's first line matches this format/version."""
        try:
            with self.data_path.open("rb") as handle:
                first = handle.readline(4096)
            header = json.loads(first.decode())
            return (
                header.get("format") == FORMAT_NAME
                and header.get("key_version") == KEY_VERSION
            )
        except (OSError, ValueError, UnicodeDecodeError):
            return False

    def _quarantine(self) -> None:
        """Move a mismatched/unreadable store aside and start fresh."""
        target = durable.quarantine(self.data_path, ".quarantined")
        if self.index_path.exists():
            durable.quarantine(self.index_path, ".quarantined")
        warnings.warn(
            f"{self.data_path}: header does not match "
            f"{FORMAT_NAME} v{KEY_VERSION}; quarantined the old store to "
            f"{target.name} and started fresh (rows keyed under other rules "
            "are never served)",
            PersistentCacheCorruption,
            stacklevel=3,
        )

    def _load_index(self, offsets: Dict[bytes, Tuple[int, int]]) -> Optional[int]:
        """Load the sidecar into ``offsets``; None means rebuild by scan.

        Returns the data size the index covers, so the caller only scans
        the tail appended since the index was written.  Any inconsistency
        — wrong magic/version, torn entry, count mismatch, covering more
        data than exists — discards the index (it is an accelerator, the
        data file is the source of truth).
        """
        path = self.index_path
        if not path.exists():
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if len(raw) < _INDEX_HEADER.size:
            return None
        magic, version, key_version, covered, count = _INDEX_HEADER.unpack_from(
            raw, 0
        )
        payload = raw[_INDEX_HEADER.size :]
        if (
            magic != _INDEX_MAGIC
            or version != _INDEX_VERSION
            or key_version != KEY_VERSION
            or len(payload) % _INDEX_RECORD.size != 0
            or len(payload) // _INDEX_RECORD.size != count
            or covered > self.data_path.stat().st_size
        ):
            return None
        for position in range(count):
            digest, offset, length = _INDEX_RECORD.unpack_from(
                payload, position * _INDEX_RECORD.size
            )
            if offset + length > covered:
                offsets.clear()
                return None
            offsets[digest] = (offset, length)
        return covered

    def _write_index(self) -> None:
        """Atomically replace the index with this instance's offset table.

        The index claims only the data prefix this instance has fully
        indexed, so rows another writer appended beyond it are found by
        the next opener's tail scan instead of hidden behind the claim.
        """
        covered = self._covered
        pieces = [
            _INDEX_RECORD.pack(digest, offset, length)
            for digest, (offset, length) in self._offsets.items()
            if offset + length <= covered
        ]
        pieces.insert(
            0,
            _INDEX_HEADER.pack(
                _INDEX_MAGIC, _INDEX_VERSION, KEY_VERSION, covered, len(pieces)
            ),
        )
        durable.replace(self.index_path, b"".join(pieces))

    def _scan_data(
        self, start: int, offsets: Dict[bytes, Tuple[int, int]]
    ) -> Tuple[int, int, int]:
        """Index data records from byte ``start`` on into ``offsets``.

        Returns the corrupt line count, the end of the last complete line
        and the end of the data read.  A trailing line without a newline
        is a partial record from a killed (or still running) writer: it is
        counted corrupt here (it cannot be served), left out of the
        complete prefix, and healed by the newline-prefix check on the
        next append.
        """
        corrupt = 0
        covered = end = start
        try:
            with self.data_path.open("rb") as handle:
                handle.seek(start)
                for line in handle:
                    offset = end
                    end += len(line)
                    if not line.endswith(b"\n"):
                        corrupt += 1 if line.strip() else 0
                        break
                    covered = end
                    if not line.strip():
                        continue
                    try:
                        digest, _ = _decode_record(line)
                    except ValueError:
                        if offset == 0 or b'"format"' in line:
                            continue  # the header line is not a record
                        corrupt += 1
                        continue
                    offsets[digest] = (offset, len(line))
        except OSError:
            pass
        return corrupt, covered, end

    def _read_record(
        self, digest: bytes, offset: int, length: int
    ) -> Optional[tuple]:
        """Fetch and re-verify one record; None when it cannot be trusted."""
        descriptor = self._ensure_descriptor()
        try:
            stored, values = _decode_record(os.pread(descriptor, length, offset))
        except (OSError, ValueError):
            return None
        return values if stored == digest else None

    def _ensure_descriptor(self) -> int:
        if self._descriptor is None:
            self._descriptor = durable.open_log(self.data_path)
        return self._descriptor

    def __del__(self) -> None:
        try:
            if self._buffer and self._descriptor is not None:
                self.flush()
            if self._descriptor is not None:
                os.close(self._descriptor)
        except Exception:
            pass
