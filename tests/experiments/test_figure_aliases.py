"""Each figure subcommand prints what ``repro experiments --suite`` prints.

``repro <figure> ARGS`` and ``repro experiments --suite <figure> ARGS``
run the same suite, so their stdout must agree once the wall time and
rate on the Pareto lines are masked (as in ``test_smoke_golden.py``) and
trailing blank lines are ignored.
"""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main

_TIMING = re.compile(r"\d+\.\d+s, (?:\d+|inf) evals/s")

COMMON_ARGS = ["--platform", "edge", "--budget", "40"]

#: Per-figure arguments on top of COMMON_ARGS: every suite runs on ncf
#: except the ablations, which keep their own model set.
FIGURE_ARGS = {
    "fig5": ["--models", "ncf"],
    "fig6": ["--models", "ncf"],
    "fig7": ["--model", "ncf"],
    "ablations": [],
    "pareto": ["--models", "ncf"],
}


def printed(argv, capsys) -> str:
    """Masked stdout of ``repro ARGV``, which must exit 0."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    return _TIMING.sub("<seconds>s, <rate> evals/s", out).rstrip("\n")


@pytest.mark.parametrize("figure", sorted(FIGURE_ARGS))
def test_figure_command_prints_its_suite(figure, capsys):
    args = COMMON_ARGS + FIGURE_ARGS[figure]
    alias = printed([figure] + args, capsys)
    suite = printed(["experiments", "--suite", figure] + args, capsys)
    assert alias
    assert alias == suite
