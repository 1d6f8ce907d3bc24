"""Golden of the smoke sweep's rendered tables.

``repro experiments --suite all --smoke --quiet --platform both`` runs
every figure harness on ncf at a tiny budget, and with it every way a
design gets priced and scored: grid search prices its whole grid of
template genomes in one call on the gene-matrix path, the Fig. 6
baselines score mappings on fixed hardware, the buffer ablation scores
with ``fill`` allocation, and DiGamma runs the gene-matrix path.  Its
output is deterministic apart from the wall time and rate on the Pareto
lines, which are masked.

``smoke_tables.golden.txt`` holds that masked output.  Never re-record it
to make this test pass: a change that moves a table on purpose re-records
it in its own, documented commit.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

from repro.__main__ import main
from repro.cost.persist import PersistentCacheCorruption

GOLDEN = Path(__file__).with_name("smoke_tables.golden.txt")

_TIMING = re.compile(r"\d+\.\d+s, (?:\d+|inf) evals/s")


def masked(text: str) -> str:
    """``text`` with every ``<seconds>s, <rate> evals/s`` pair masked."""
    return _TIMING.sub("<seconds>s, <rate> evals/s", text)


def test_smoke_sweep_tables_match_golden(capsys):
    argv = ["experiments", "--suite", "all", "--smoke", "--quiet"]
    assert main(argv + ["--platform", "both"]) == 0
    assert masked(capsys.readouterr().out) == GOLDEN.read_text()


def test_stored_sweep_rerun_reads_every_row_from_its_cache_dir(tmp_path, capsys):
    # Every framework of the sweep opens its own tier on the one cache
    # directory.  A second run over that directory must print the first
    # run's tables, find every layer row on disk and find no damage.
    argv = ["experiments", "--suite", "all", "--smoke", "--quiet"]
    argv += ["--platform", "both", "--cache-dir", str(tmp_path / "cache")]
    tables = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for run in ("cold", "warm"):
            store = tmp_path / f"{run}.jsonl"
            assert main(argv + ["--store", str(store)]) == 0
            tables.append(masked(capsys.readouterr().out))
    assert tables[0] == tables[1]
    assert not [
        warning for warning in caught
        if issubclass(warning.category, PersistentCacheCorruption)
    ]
    records = [
        json.loads(line)
        for line in (tmp_path / "warm.jsonl").read_text().splitlines()
    ]
    l2 = [record["cache"].get("l2", {}) for record in records]
    assert sum(section.get("hits", 0) for section in l2) > 0
    assert [section.get("misses", 0) for section in l2] == [0] * len(records)
