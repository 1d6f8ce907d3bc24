"""The search examples reject out-of-range numbers as usage errors."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

SEARCH_EXAMPLES = (
    "quickstart",
    "compare_optimizers",
    "edge_cloud_coopt",
    "fixed_hw_mapping_search",
    "multi_model_accelerator",
)


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--budget", "0")])
@pytest.mark.parametrize("example", SEARCH_EXAMPLES)
def test_out_of_range_numbers_are_usage_errors(
    example, flag, value, monkeypatch, capsys
):
    # argparse exits before the script starts any search.
    script = str(EXAMPLES / f"{example}.py")
    monkeypatch.setattr(sys, "argv", [script, flag, value])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(script, run_name="__main__")
    assert excinfo.value.code == 2
    assert "must be >=" in capsys.readouterr().err
