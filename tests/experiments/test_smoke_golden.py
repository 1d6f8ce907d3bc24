"""Golden of the smoke sweep's rendered tables.

``repro experiments --suite all --smoke --quiet --platform both`` runs
every figure harness on ncf at a tiny budget, and with it every way a
design gets priced and scored: grid search prices template mappings one at
a time through ``evaluate_mapping`` and the scalar engine, the Fig. 6
baselines score mappings on fixed hardware, the buffer ablation scores
with ``fill`` allocation, and DiGamma runs the gene-matrix path.  Its
output is deterministic apart from the wall time and rate on the Pareto
lines, which are masked.

``smoke_tables.golden.txt`` holds that masked output.  Never re-record it
to make this test pass: a change that moves a table on purpose re-records
it in its own, documented commit.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.__main__ import main

GOLDEN = Path(__file__).with_name("smoke_tables.golden.txt")

_TIMING = re.compile(r"\d+\.\d+s, (?:\d+|inf) evals/s")


def masked(text: str) -> str:
    """``text`` with every ``<seconds>s, <rate> evals/s`` pair masked."""
    return _TIMING.sub("<seconds>s, <rate> evals/s", text)


def test_smoke_sweep_tables_match_golden(capsys):
    argv = ["experiments", "--suite", "all", "--smoke", "--quiet"]
    assert main(argv + ["--platform", "both"]) == 0
    assert masked(capsys.readouterr().out) == GOLDEN.read_text()
