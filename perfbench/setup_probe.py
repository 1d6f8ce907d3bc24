"""One set-up sample for the ``setup_s`` metric, in a process of its own.

Imports the program, builds the workload's model, constructs the
framework and opens its persistent store, then prints the wall-clock time
(``time.time()``) at which it was ready.  ``run.py`` starts this script and
subtracts the time it launched it, so a sample covers the whole way from
process start to ready::

    python3 perfbench/setup_probe.py <workload> [<store directory>]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch.platform import get_platform  # noqa: E402
from repro.workloads.registry import get_model  # noqa: E402

from workloads import WORKLOADS, open_framework  # noqa: E402


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    cache_dir = Path(argv[1]) if len(argv) > 1 else None
    framework = open_framework(
        workload,
        get_model(workload.model),
        get_platform(workload.platform),
        cache_dir,
    )
    tier = framework.evaluator.persistent_cache
    if tier is not None:
        tier.entries  # opening is lazy; this loads the store's index
    ready = time.time()
    framework.close()
    print(repr(ready))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
