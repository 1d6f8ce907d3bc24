"""Tests for the persistent cross-run layer-cache tier.

Covers the on-disk store's crash-safety contract (truncation healing,
torn-index rebuild, version quarantine, tampered records served as
misses), the packed record format, concurrent writers sharing one store,
the digest scheme's anti-aliasing, and the end-to-end tiering: a warm
rerun must answer its layer pricings from disk with bit-identical
results.
"""

import base64
import hashlib
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.cost.cache import LRUCache
from repro.cost.maestro import CostModel
from repro.cost.persist import (
    FORMAT_NAME,
    PersistentCacheCorruption,
    PersistentLayerCache,
    cache_namespace,
    matrix_row_digest,
    statics_blob,
    tuple_key_digest,
)
from repro.encoding.genome import GenomeSpace
from repro.encoding.genome_matrix import GenomeMatrix, mapping_from_row, repaired_matrix
from repro.workloads.model import build_model
from repro.workloads.statics import layer_statics
from repro.framework.cooptimizer import CoOptimizationFramework
from repro.framework.objective import Objective
from repro.optim.registry import get_optimizer

NOC = 32.0
DRAM = 8.0


def _digest(tag: str) -> bytes:
    return hashlib.sha1(tag.encode()).digest()


def _fill(cache: PersistentLayerCache, count: int, tag: str = "row") -> None:
    for i in range(count):
        cache.put(_digest(f"{tag}{i}"), (i, float(i) * 1.5, i * 3))
    cache.flush()


class TestStoreRoundtrip:
    def test_put_flush_get_same_instance(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("a"), (1, 2.5, 3))
        assert cache.get(_digest("a")) == (1, 2.5, 3)  # buffered, pre-flush
        cache.flush()
        assert cache.get(_digest("a")) == (1, 2.5, 3)
        assert cache.get(_digest("missing")) is None
        assert cache.counters() == {"l2_hits": 2, "l2_misses": 1, "l2_writes": 1}

    def test_cross_instance_warm_reuse(self, tmp_path):
        first = PersistentLayerCache(tmp_path)
        _fill(first, 5)
        first.close()

        second = PersistentLayerCache(tmp_path)
        for i in range(5):
            assert second.get(_digest(f"row{i}")) == (i, float(i) * 1.5, i * 3)
        assert second.loaded_entries == 5
        assert second.counters()["l2_hits"] == 5
        assert second.counters()["l2_writes"] == 0

    def test_values_round_trip_floats_exactly(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        values = (0.1 + 0.2, 1e-300, 2**53 + 1.0, 12345678901234567)
        cache.put(_digest("exact"), values)
        cache.close()
        reopened = PersistentLayerCache(tmp_path)
        assert reopened.get(_digest("exact")) == values

    def test_put_deduplicates(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("a"), (1,))
        cache.put(_digest("a"), (1,))
        cache.flush()
        cache.put(_digest("a"), (1,))
        assert cache.counters()["l2_writes"] == 1
        assert cache.entries == 1

    def test_close_is_idempotent_and_reopenable(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        cache.close()
        assert cache.get(_digest("row0")) == (0, 0.0, 0)  # reopens lazily
        cache.put(_digest("late"), (9,))
        cache.close()
        assert PersistentLayerCache(tmp_path).get(_digest("late")) == (9,)

    def test_pickles_by_path_not_contents(self, tmp_path):
        cache = PersistentLayerCache(tmp_path, durability="fsync")
        _fill(cache, 3)
        cache.close()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.durability == "fsync"
        assert clone.counters()["l2_hits"] == 0  # counters are per-process
        assert clone.get(_digest("row1")) == (1, 1.5, 3)

    def test_rejects_unknown_durability(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            PersistentLayerCache(tmp_path, durability="yolo")


class TestCorruptionHandling:
    def test_truncated_data_file_heals(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 4)
        cache.close()

        # Kill the last record mid-line, as a dying writer would.
        data = cache.data_path.read_bytes()
        cache.data_path.write_bytes(data[:-9])

        with pytest.warns(PersistentCacheCorruption):
            survivor = PersistentLayerCache(tmp_path)
            assert survivor.get(_digest("row3")) is None  # the torn row
        for i in range(3):
            assert survivor.get(_digest(f"row{i}")) is not None
        assert survivor.corrupt_lines == 1

        # The next append closes the partial line; both rows then serve.
        survivor.put(_digest("fresh"), (7,))
        survivor.close()
        healed = PersistentLayerCache(tmp_path)
        assert healed.get(_digest("fresh")) == (7,)
        assert healed.get(_digest("row2")) is not None

    def test_torn_index_is_rebuilt_from_data(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 4)
        cache.close()

        # Tear the index mid-entry: it is only an accelerator, so every
        # row must still be served after a rescan of the data file.
        raw = cache.index_path.read_bytes()
        cache.index_path.write_bytes(raw[: len(raw) - 7])

        reopened = PersistentLayerCache(tmp_path)
        for i in range(4):
            assert reopened.get(_digest(f"row{i}")) is not None
        assert reopened.corrupt_lines == 0

    def test_missing_index_is_fine(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 3)
        cache.close()
        cache.index_path.unlink()
        assert PersistentLayerCache(tmp_path).get(_digest("row1")) is not None

    # Key version 1 is the JSON-record format written before the packed
    # lines: such stores are re-priced, never misread.
    @pytest.mark.parametrize("key_version", [1, 999])
    def test_version_mismatch_quarantines(self, tmp_path, key_version):
        store = tmp_path / "layers.jsonl"
        store.write_text(
            '{"format": "%s", "version": 1, "key_version": %d}\n'
            '{"k": "%s", "v": [1]}\n'
            % (FORMAT_NAME, key_version, _digest("old").hex())
        )
        with pytest.warns(PersistentCacheCorruption, match="quarantined"):
            cache = PersistentLayerCache(tmp_path)
            assert cache.get(_digest("old")) is None  # never served
        assert (tmp_path / "layers.jsonl.quarantined").exists()
        # The store keeps working after quarantine.
        cache.put(_digest("new"), (2,))
        cache.flush()
        assert cache.get(_digest("new")) == (2,)

    def test_foreign_file_quarantines(self, tmp_path):
        (tmp_path / "layers.jsonl").write_bytes(b"\x00\xffnot a cache\n")
        cache = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption):
            assert cache.entries == 0  # first access opens and quarantines

    def test_tampered_record_serves_as_miss(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 1)
        cache.close()

        # Re-key the record in place (same length) after the index was
        # written: the pread re-verification must refuse to serve it.
        data = cache.data_path.read_bytes()
        honest = base64.b64encode(_digest("row0"))
        forged = base64.b64encode(_digest("evil"))
        cache.data_path.write_bytes(data.replace(honest, forged))

        reopened = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption, match="unreadable"):
            assert reopened.get(_digest("row0")) is None
        assert reopened.corrupt_lines == 1
        # Dropped, not retried: the second lookup is a plain miss.
        assert reopened.get(_digest("row0")) is None

    def test_garbage_lines_are_skipped_not_served(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        with cache.data_path.open("ab") as handle:
            handle.write(b"{broken json\n")
        cache.index_path.unlink()  # force a full rescan
        reopened = PersistentLayerCache(tmp_path)
        with pytest.warns(PersistentCacheCorruption):
            assert reopened.get(_digest("row0")) is not None
        assert reopened.corrupt_lines == 1

    def test_verify_reports_damage(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        _fill(cache, 2)
        cache.close()
        assert cache.verify()["ok"] is True
        with cache.data_path.open("ab") as handle:
            handle.write(b"nonsense\n")
        report = cache.verify()
        assert report["ok"] is False and report["corrupt_lines"] == 1


class TestRecordFormat:
    GOLDEN = b"7DCtx55zSQBDDkF0zwo2wtDEInI= dqd AAAAAAAA+D/+/////////5qZmZmZmbk/\n"

    def test_golden_line_pins_the_layout(self, tmp_path):
        # base64 digest, one type code per value, base64 of the values
        # packed little-endian (float64 1.5, int64 -2, float64 0.1).
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("golden"), (1.5, -2, 0.1))
        cache.close()
        header, line = cache.data_path.read_bytes().splitlines(keepends=True)
        assert line == self.GOLDEN
        assert b'"key_version": 2' in header
        assert PersistentLayerCache(tmp_path).get(_digest("golden")) == (1.5, -2, 0.1)

    def test_numpy_scalars_come_back_as_builtins(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("np"), (np.float64(2.5), np.int64(7), True))
        assert cache.get(_digest("np")) == (2.5, 7, 1)  # buffered, coerced
        cache.close()
        served = PersistentLayerCache(tmp_path).get(_digest("np"))
        assert served == (2.5, 7, 1)
        assert [type(value) for value in served] == [float, int, int]

    def test_int_outside_int64_stays_out_of_the_store(self, tmp_path):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("huge"), (1.0, 2**63))  # must not raise
        cache.put(_digest("small"), (1.0, -(2**63)))
        assert cache.get(_digest("huge")) is None
        assert cache.counters()["l2_writes"] == 1
        cache.close()
        reopened = PersistentLayerCache(tmp_path)
        assert reopened.get(_digest("huge")) is None
        assert reopened.get(_digest("small")) == (1.0, -(2**63))
        assert reopened.entries == 1

    #: One damaged field per case: (field index, damage applied to it).
    DAMAGE = {
        "bad-base64-digest": (0, lambda key: key[:-2] + b"!="),
        "bad-base64-payload": (2, lambda payload: b"*" + payload[1:]),
        "unknown-type-code": (1, lambda codes: codes[:-1] + b"f"),
        "payload-shorter-than-codes": (1, lambda codes: codes + b"d"),
        "payload-longer-than-codes": (1, lambda codes: codes[:-1]),
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_line_counts_as_corrupt_and_is_not_served(
        self, tmp_path, damage
    ):
        cache = PersistentLayerCache(tmp_path)
        cache.put(_digest("keep"), (1.0, 2))
        cache.put(_digest("hurt"), (3.0, 4))
        cache.close()
        cache.index_path.unlink()  # force a full rescan
        header, kept, hurt = cache.data_path.read_bytes().splitlines(keepends=True)
        field, corrupt = self.DAMAGE[damage]
        fields = hurt.split()
        fields[field] = corrupt(fields[field])
        cache.data_path.write_bytes(header + kept + b" ".join(fields) + b"\n")
        assert cache.verify()["corrupt_lines"] == 1
        with pytest.warns(PersistentCacheCorruption, match="1 undecodable"):
            reopened = PersistentLayerCache(tmp_path)
            assert reopened.get(_digest("hurt")) is None
        assert reopened.get(_digest("keep")) == (1.0, 2)
        assert reopened.corrupt_lines == 1


class TestConcurrentWriters:
    def test_append_between_fstat_and_write_keeps_offsets(
        self, tmp_path, monkeypatch
    ):
        first = PersistentLayerCache(tmp_path)
        second = PersistentLayerCache(tmp_path)
        first.put(_digest("mine"), (1.0, 2))
        second.put(_digest("theirs"), (3.0, 4))
        real_write = os.write
        pending = [second]

        def racing_write(descriptor, data):
            # The other writer appends after the first one's fstat, right
            # before its own write lands.
            if pending:
                pending.pop().flush()
            return real_write(descriptor, data)

        monkeypatch.setattr(os, "write", racing_write)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PersistentCacheCorruption)
            first.flush()
            assert first.get(_digest("mine")) == (1.0, 2)
        monkeypatch.undo()
        first.close()
        second.close()
        fresh = PersistentLayerCache(tmp_path)
        assert fresh.get(_digest("mine")) == (1.0, 2)
        assert fresh.get(_digest("theirs")) == (3.0, 4)

    def test_earlier_writer_closing_last_hides_no_rows(self, tmp_path):
        early = PersistentLayerCache(tmp_path)
        late = PersistentLayerCache(tmp_path)
        _fill(early, 3, tag="early")
        _fill(late, 3, tag="late")
        late.close()
        early.close()  # its index must not claim the late writer's rows
        with warnings.catch_warnings():
            warnings.simplefilter("error", PersistentCacheCorruption)
            fresh = PersistentLayerCache(tmp_path)
            for i in range(3):
                assert fresh.get(_digest(f"early{i}")) == (i, float(i) * 1.5, i * 3)
                assert fresh.get(_digest(f"late{i}")) == (i, float(i) * 1.5, i * 3)
        assert fresh.loaded_entries == 6

    def test_writers_closing_at_once_keep_separate_index_temps(
        self, tmp_path, monkeypatch
    ):
        first = PersistentLayerCache(tmp_path)
        second = PersistentLayerCache(tmp_path)
        _fill(first, 2, tag="first")
        _fill(second, 2, tag="second")
        real_replace = os.replace
        real_pid = os.getpid()
        pending = [second]

        def racing_replace(source, target):
            # Another process closes between this one's index temp write
            # and its rename.
            if pending:
                monkeypatch.setattr(os, "getpid", lambda: real_pid + 1)
                pending.pop().close()
                monkeypatch.setattr(os, "getpid", lambda: real_pid)
            return real_replace(source, target)

        monkeypatch.setattr(os, "replace", racing_replace)
        first.close()
        monkeypatch.undo()
        fresh = PersistentLayerCache(tmp_path)
        for tag in ("first", "second"):
            assert fresh.get(_digest(f"{tag}1")) == (1, 1.5, 3)
        assert not list(tmp_path.glob("*.tmp"))


class TestDigestScheme:
    def test_namespace_separates_backend_configurations(self):
        base = cache_namespace("analytic", 1, (1.0, 2.0, 3.0))
        assert cache_namespace("zigzag", 1, (1.0, 2.0, 3.0)) != base
        assert cache_namespace("analytic", 2, (1.0, 2.0, 3.0)) != base
        assert cache_namespace("analytic", 1, (1.0, 2.0, 4.0)) != base
        assert cache_namespace("analytic", 1, (1.0, 2.0, 3.0)) == base

    def test_tuple_digest_separates_layers_keys_and_bandwidths(self, conv_layer, gemm_layer):
        namespace = cache_namespace("analytic", 1, (1.0,))
        key = (((4, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 6)),)
        other_key = (((4, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 7)),)
        base = tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC, DRAM)
        assert tuple_key_digest(namespace, layer_statics(gemm_layer), key, NOC, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), other_key, NOC, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC * 2, DRAM) != base
        assert tuple_key_digest(namespace, layer_statics(conv_layer), key, NOC, DRAM) == base

    def test_oversized_genes_fall_back_deterministically(self, conv_layer):
        namespace = cache_namespace("analytic", 1, (1.0,))
        huge = (((2**70, 0, (0, 1, 2, 3, 4, 5)), (1, 2, 3, 4, 5, 6)),)
        first = tuple_key_digest(namespace, layer_statics(conv_layer), huge, NOC, DRAM)
        again = tuple_key_digest(namespace, layer_statics(conv_layer), huge, NOC, DRAM)
        assert first == again and len(first) == 20

    def test_statics_blob_is_content_not_identity(self, conv_layer):
        blob = statics_blob(layer_statics(conv_layer))
        assert statics_blob(layer_statics(conv_layer)) is blob  # memoized
        assert layer_statics(conv_layer).signature[0].name.encode() in blob

    def test_matrix_digest_strips_only_the_token_column(self, conv_layer):
        namespace = cache_namespace("analytic", 1, (1.0,))
        blob = statics_blob(layer_statics(conv_layer))
        fingerprint = b"TOKEN012" + b"tail-bytes"
        other_token = b"TOKEN999" + b"tail-bytes"
        assert matrix_row_digest(namespace, blob, fingerprint) == matrix_row_digest(
            namespace, blob, other_token
        )

    @pytest.mark.parametrize("num_levels", [1, 2, 3])
    def test_tuple_keyed_store_serves_the_matrix_path(
        self, tiny_model, tmp_path, num_levels
    ):
        # A store filled through evaluate_model (tuple digests, the scalar
        # engines) must answer every evaluate_model_matrix row (row
        # digests, the gene-matrix path) at any depth, so one directory
        # stays fully warm whichever engine a search takes.
        space = GenomeSpace.from_model(tiny_model, max_pes=256, num_levels=num_levels)
        population = space.random_population(12, np.random.default_rng(num_levels))
        matrix = repaired_matrix(GenomeMatrix.from_genomes(population), space).data

        writer = CostModel()
        writer.attach_persistent_cache(PersistentLayerCache(tmp_path))
        written = [
            writer.evaluate_model(
                tiny_model, mapping_from_row(row, num_levels), NOC, DRAM
            )
            for row in matrix
        ]
        assert writer.vector_stats["l2_writes"] > 0
        writer.layer_cache.tier.close()

        reader = CostModel()
        reader.attach_persistent_cache(PersistentLayerCache(tmp_path))
        served = reader.evaluate_model_matrix(tiny_model, matrix, NOC, DRAM)
        stats = reader.vector_stats
        assert stats["l2_hits"] > 0
        assert stats["l2_misses"] == 0 and stats["l2_writes"] == 0
        assert stats["rows_vectorized"] == 0
        for a, b in zip(served, written):
            assert a.latency == b.latency
            assert a.energy == b.energy
            assert [layer.latency for layer in a.layers] == [
                layer.latency for layer in b.layers
            ]


class TestCostModelTiering:
    def test_layer_roundtrip_is_bit_identical(self, conv_layer, simple_mapping, tmp_path):
        cold = CostModel()
        cold.attach_persistent_cache(PersistentLayerCache(tmp_path))
        report = cold.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        stats = cold.vector_stats
        assert stats["l2_misses"] == 1 and stats["l2_writes"] == 1

        warm = CostModel()
        warm.attach_persistent_cache(PersistentLayerCache(tmp_path))
        served = warm.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        assert warm.vector_stats["l2_hits"] == 1
        assert warm.vector_stats["l2_writes"] == 0
        assert served == report

    def test_l1_counters_match_cold_and_warm(self, conv_layer, simple_mapping, tmp_path):
        # An L2 hit still counts as an L1 miss: searches report identical
        # L1 efficiency whether or not a persistent tier is attached.
        runs = []
        for _ in range(2):
            model = CostModel()
            model.attach_persistent_cache(PersistentLayerCache(tmp_path))
            model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
            model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
            runs.append((model.layer_cache.hits, model.layer_cache.misses))
        assert runs[0] == runs[1] == (1, 1)

    def test_matrix_path_l1_counters_match_cold_and_warm(
        self, conv_layer, tmp_path
    ):
        # Rows the tier serves enter the L1 after the batch, like a cold
        # run's priced rows: inserting c mid-batch would evict a before
        # the second batch's a could hit it.
        model = build_model("one", [conv_layer])
        space = GenomeSpace.from_model(model, max_pes=256, num_levels=2)
        population = space.random_population(3, np.random.default_rng(0))
        a, b, c = repaired_matrix(GenomeMatrix.from_genomes(population), space).data
        runs = []
        for _ in range(2):
            cost_model = CostModel(cache_size=2)
            cost_model.attach_persistent_cache(PersistentLayerCache(tmp_path))
            for batch in ([a, b], [c, a]):
                cost_model.evaluate_model_matrix(model, np.array(batch), NOC, DRAM)
            runs.append((cost_model.layer_cache.hits, cost_model.layer_cache.misses))
            cost_model.layer_cache.tier.close()
        assert runs[0] == runs[1] == (1, 3)

    def test_disabled_l1_keeps_tier_inactive(self, conv_layer, simple_mapping, tmp_path):
        model = CostModel(cache_size=0)
        model.attach_persistent_cache(PersistentLayerCache(tmp_path))
        model.evaluate_layer(conv_layer, simple_mapping, NOC, DRAM)
        stats = model.vector_stats
        assert stats["l2_hits"] == stats["l2_misses"] == stats["l2_writes"] == 0

    def test_adopt_cache_carries_the_tier(self, tmp_path):
        donor = CostModel()
        tier = PersistentLayerCache(tmp_path)
        donor.attach_persistent_cache(tier)
        adopter = CostModel()
        adopter.adopt_cache(LRUCache(64))
        donor.adopt_cache(adopter.layer_cache)
        assert donor.layer_cache.tier is tier


class TestFrameworkWarmRerun:
    def _search(self, model, platform, directory, seed=3, optimizer="random"):
        framework = CoOptimizationFramework(
            model,
            platform,
            objective=Objective.LATENCY,
            cache_dir=str(directory),
        )
        try:
            result = framework.search(
                get_optimizer(optimizer), sampling_budget=60, seed=seed
            )
            counters = framework.evaluator.persistent_cache.counters()
        finally:
            framework.close()
        return result, counters

    def test_warm_rerun_serves_from_disk_bit_identically(
        self, tiny_model, edge_platform, tmp_path
    ):
        cold_result, cold = self._search(tiny_model, edge_platform, tmp_path)
        assert cold["l2_writes"] > 0 and cold["l2_hits"] == 0

        warm_result, warm = self._search(tiny_model, edge_platform, tmp_path)
        requests = warm["l2_hits"] + warm["l2_misses"]
        assert requests > 0
        assert warm["l2_hits"] / requests >= 0.9
        assert warm["l2_writes"] == 0
        assert warm_result.best.fitness == cold_result.best.fitness
        assert warm_result.history == cold_result.history

    def test_pool_workers_write_the_shared_store(
        self, tiny_model, edge_platform, tmp_path
    ):
        # Workers receive the tier by pickle (path, not contents) and
        # append to the same files; a later in-process run must be warm.
        pooled = CoOptimizationFramework(
            tiny_model,
            edge_platform,
            objective=Objective.LATENCY,
            workers=2,
            cache_dir=str(tmp_path),
        )
        try:
            cold_result = pooled.search(
                get_optimizer("stdga"), sampling_budget=60, seed=3
            )
        finally:
            pooled.close()
        assert PersistentLayerCache(tmp_path).entries > 0

        warm_result, warm = self._search(
            tiny_model, edge_platform, tmp_path, optimizer="stdga"
        )
        requests = warm["l2_hits"] + warm["l2_misses"]
        assert requests > 0 and warm["l2_hits"] / requests >= 0.9
        assert warm_result.best.fitness == cold_result.best.fitness

    def test_results_identical_with_and_without_tier(
        self, tiny_model, edge_platform, tmp_path
    ):
        bare = CoOptimizationFramework(
            tiny_model, edge_platform, objective=Objective.LATENCY
        )
        try:
            baseline = bare.search(get_optimizer("random"), sampling_budget=60, seed=3)
        finally:
            bare.close()
        for _ in range(2):  # cold pass, then fully warm pass
            tiered, _ = self._search(tiny_model, edge_platform, tmp_path)
            assert tiered.best.fitness == baseline.best.fitness
            assert tiered.history == baseline.history
