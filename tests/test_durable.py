"""Tests of :mod:`repro.durable` and the three stores written through it.

The sweep result store (JSONL records), the persistent layer cache (packed
L2 lines plus their index) and search checkpoints (a header and the
payload it digests) keep their formats and share the module's durability
rules.  Beside unit tests of each primitive, two properties pin them:

* **crash at every offset.**  Each store's file is truncated at every byte
  k, as a writer killed mid-write would leave it, and reopened.  The store
  never raises, never serves a record that differs from what was written,
  serves every record whose line is complete, writes its next append as an
  intact line of its own, and loads a checkpoint exactly or not at all;
* **concurrent writers.**  Several processes append to one result store or
  one layer-cache directory at once.  Every record lands exactly once, in
  its writer's order, and no corruption warning fires.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import shutil
import struct
import warnings
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from repro import durable
from repro.cost.persist import PersistentCacheCorruption, PersistentLayerCache
from repro.experiments.runner import ResultStore, ResultStoreCorruption
from repro.framework.checkpoint import (
    CheckpointCorruption,
    CheckpointStore,
    SearchCheckpoint,
    rng_state_to_jsonable,
)


def _digest(tag: str) -> bytes:
    return hashlib.sha1(tag.encode()).digest()


# -- the primitives ------------------------------------------------------------


class TestPrimitives:
    def test_append_reports_where_it_landed(self, tmp_path):
        path = tmp_path / "new" / "log"
        descriptor = durable.open_log(path)
        try:
            assert durable.append(descriptor, b"one\n") == (0, 0, True)
            os.write(descriptor, b"torn")  # a writer died mid-line
            assert durable.append(descriptor, b"two\n", fsync=True) == (8, 1, True)
        finally:
            os.close(descriptor)
        assert path.read_bytes() == b"one\ntorn\ntwo\n"

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(
            os, "write", lambda descriptor, data: real_write(descriptor, data[:3])
        )
        descriptor = durable.open_log(tmp_path / "log")
        try:
            assert durable.append(descriptor, b"a long line\n") == (0, 0, False)
        finally:
            os.close(descriptor)
        durable.replace(tmp_path / "blob", b"the whole content")
        monkeypatch.undo()
        assert (tmp_path / "log").read_bytes() == b"a long line\n"
        assert (tmp_path / "blob").read_bytes() == b"the whole content"

    def test_replace_renames_a_per_process_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "blob"
        target.write_bytes(b"old")
        staged = []
        real_replace = os.replace

        def spying_replace(source, destination):
            staged.append((Path(source).name, Path(source).read_bytes()))
            assert target.read_bytes() == b"old"  # untouched until the rename
            return real_replace(source, destination)

        monkeypatch.setattr(os, "replace", spying_replace)
        durable.replace(target, b"new")
        monkeypatch.undo()
        assert staged == [(f"blob.{os.getpid()}.tmp", b"new")]
        assert target.read_bytes() == b"new"
        assert [entry.name for entry in tmp_path.iterdir()] == ["blob"]

    def test_quarantine_never_overwrites_a_copy(self, tmp_path):
        path = tmp_path / "store"
        targets = []
        for number in range(3):
            path.write_bytes(b"copy %d" % number)
            targets.append(durable.quarantine(path, ".bad"))
        assert not path.exists()
        assert [target.name for target in targets] == [
            "store.bad", "store.bad.1", "store.bad.2",
        ]
        assert [target.read_bytes() for target in targets] == [
            b"copy 0", b"copy 1", b"copy 2",
        ]


# -- crash at every offset -----------------------------------------------------

#: Result-store records, and the one appended after each simulated crash.
RECORDS = [
    {"job_id": "a", "result": 1},
    {"job_id": "b", "result": [2.5, None]},
    {"job_id": "c", "status": "failed"},
]
NEXT_RECORD = {"job_id": "d", "result": "after the crash"}

#: Layer-cache rows: the first two are indexed at close, the last one is
#: appended past the index's claim.
INDEXED_ROWS = [(_digest("r0"), (1, 0.5, -3)), (_digest("r1"), (2.25, 7))]
TAIL_ROWS = [(_digest("r2"), (4, 8, 1e-300))]
NEXT_ROW = (_digest("next"), (9.0, 10))


def _store_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


class TestCrashAtEveryOffset:
    def test_result_store(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = ResultStore(path)
        for record in RECORDS:
            store._append_record(record)
        full = path.read_bytes()
        assert full == b"".join(map(_store_line, RECORDS))
        ends = list(accumulate(len(_store_line(record)) for record in RECORDS))
        for k in range(len(full) + 1):
            path.write_bytes(full[:k])
            store.corrupt_path.unlink(missing_ok=True)
            complete = sum(end <= k for end in ends)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResultStoreCorruption)
                served = store.records()
                assert served == RECORDS[: len(served)]
                assert len(served) >= complete
                store._append_record(NEXT_RECORD)
                served = store.records()
            assert served[-1] == NEXT_RECORD
            assert served[:-1] == RECORDS[: len(served) - 1]
            assert len(served) - 1 >= complete
            assert store.skipped_lines <= 1
            lines = path.read_bytes().split(b"\n")
            assert lines[-2:] == [_store_line(NEXT_RECORD)[:-1], b""]

    @pytest.mark.parametrize("indexed", [True, False], ids=["index", "no-index"])
    def test_layer_cache(self, tmp_path, indexed):
        source = tmp_path / "source"
        cache = PersistentLayerCache(source)
        for digest, values in INDEXED_ROWS:
            cache.put(digest, values)
        cache.close()
        # The tail rows sit past this index's claim, as a writer that
        # flushed and then died before closing would leave them.
        index = (source / "layers.index").read_bytes()
        for digest, values in TAIL_ROWS:
            cache.put(digest, values)
        cache.close()
        data = (source / "layers.jsonl").read_bytes()
        lines = data.splitlines(keepends=True)
        ends = list(accumulate(len(line) for line in lines))
        rows = dict(INDEXED_ROWS + TAIL_ROWS)
        #: digest -> end offset of its line in the data file.
        line_end = {
            base64.b64decode(line.split()[0]): end
            for line, end in zip(lines[1:], ends[1:])
        }
        assert set(line_end) == set(rows)

        work = tmp_path / "work"
        for k in range(len(data) + 1):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            (work / "layers.jsonl").write_bytes(data[:k])
            if indexed:
                (work / "layers.index").write_bytes(index)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PersistentCacheCorruption)
                reopened = PersistentLayerCache(work)
                for digest, values in rows.items():
                    served = reopened.get(digest)
                    if line_end[digest] <= k:
                        assert served == values, (k, digest)
                    else:
                        assert served in (None, values), (k, digest)
                reopened.put(*NEXT_ROW)
                reopened.close()
                fresh = PersistentLayerCache(work)
                assert fresh.get(NEXT_ROW[0]) == NEXT_ROW[1], k
                for digest, values in rows.items():
                    if line_end[digest] <= k:
                        assert fresh.get(digest) == values, (k, digest)
            assert fresh.verify()["corrupt_lines"] <= 1
            tail = (work / "layers.jsonl").read_bytes().split(b"\n")
            assert tail[-1] == b""
            assert base64.b64decode(tail[-2].split()[0]) == NEXT_ROW[0]
            fresh.close()

    def test_checkpoint(self, tmp_path):
        checkpoint = SearchCheckpoint(
            generation=3,
            rng_state=rng_state_to_jsonable(np.random.default_rng(0)),
            optimizer_state={"kind": "random"},
            tracker_state={"evaluations": 40, "history": [[1, 5.0]]},
        )
        source = CheckpointStore(tmp_path / "source", "job")
        source.save(checkpoint)
        full = source.path.read_bytes()
        for k in range(len(full) + 1):
            store = CheckpointStore(tmp_path / f"cut{k}", "job")
            store.directory.mkdir()
            store.path.write_bytes(full[:k])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CheckpointCorruption)
                loaded = store.load()
            # Only the trailing newline carries no payload byte.
            assert loaded == (checkpoint if k >= len(full) - 1 else None), k
            assert store.path.exists() == (loaded is not None)
            store.save(checkpoint)
            assert store.load() == checkpoint


# -- concurrent writers --------------------------------------------------------

WRITERS = 4
APPENDS = 100
FLUSHES = 100
ROWS_PER_FLUSH = 10


def _padding(writer: int, seq: int) -> int:
    """Record padding from 0 to about 9 KB, varied per append."""
    return (writer * 7919 + seq * 104729) % 9000


def _append_records(path, writer: int, start) -> None:
    warnings.simplefilter("error", ResultStoreCorruption)
    store = ResultStore(path)
    start.wait(60)
    for seq in range(APPENDS):
        store._append_record(
            {"writer": writer, "seq": seq, "pad": "x" * _padding(writer, seq)}
        )


def _flush_rows(directory, writer: int, start) -> None:
    warnings.simplefilter("error", PersistentCacheCorruption)
    cache = PersistentLayerCache(directory)
    # Open before the race: a store opened while another writer's append
    # is landing counts that line as a partial record and warns, because
    # its scan cannot tell a live writer from a dead one.
    cache.entries
    start.wait(60)
    for flush in range(FLUSHES):
        for row in range(ROWS_PER_FLUSH):
            seq = flush * ROWS_PER_FLUSH + row
            cache.put(_digest(f"{writer}/{seq}"), (writer, seq, seq / 7))
        cache.flush()
    cache.close()


def _run_writers(target, location) -> None:
    """Run every writer, released together by a barrier; all must exit 0."""
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(WRITERS)
    writers = [
        context.Process(target=target, args=(location, writer, start))
        for writer in range(WRITERS)
    ]
    try:
        for process in writers:
            process.start()
        for process in writers:
            process.join(120)
        assert [process.exitcode for process in writers] == [0] * WRITERS
    finally:
        for process in writers:
            if process.is_alive():
                process.kill()


def _assert_each_once_in_order(pairs, count: int) -> None:
    assert sorted(pairs) == [
        (writer, seq) for writer in range(WRITERS) for seq in range(count)
    ]
    for writer in range(WRITERS):
        assert [seq for owner, seq in pairs if owner == writer] == list(
            range(count)
        )


class TestConcurrentWriters:
    def test_result_store_appends(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _run_writers(_append_records, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResultStoreCorruption)
            records = ResultStore(path).records()
        _assert_each_once_in_order(
            [(record["writer"], record["seq"]) for record in records], APPENDS
        )
        for record in records:
            assert record["pad"] == "x" * _padding(record["writer"], record["seq"])

    def test_layer_cache_flushes(self, tmp_path):
        directory = tmp_path / "cache"
        created = PersistentLayerCache(directory)
        assert created.entries == 0  # writes the header before the race
        created.close()
        _run_writers(_flush_rows, directory)
        count = FLUSHES * ROWS_PER_FLUSH
        with warnings.catch_warnings():
            warnings.simplefilter("error", PersistentCacheCorruption)
            fresh = PersistentLayerCache(directory)
            for writer in range(WRITERS):
                for seq in range(count):
                    assert fresh.get(_digest(f"{writer}/{seq}")) == (
                        writer, seq, seq / 7
                    )
        assert fresh.loaded_entries == WRITERS * count
        assert fresh.verify()["ok"]
        pairs = []
        for line in (directory / "layers.jsonl").read_bytes().splitlines()[1:]:
            if not line:
                # A writer that read the file's end while another's
                # multi-page write was landing closed that "partial" line
                # early; the blank line this leaves is skipped by readers.
                continue
            _, codes, payload = line.split()
            values = struct.unpack("<" + codes.decode(), base64.b64decode(payload))
            pairs.append(values[:2])
        _assert_each_once_in_order(pairs, count)
