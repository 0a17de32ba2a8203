"""Print the seconds it takes to import tabletamp and build the named
scenarios, measured inside a fresh interpreter, then the reference kernel's
fastest time of five (see reference.py).

    python3 perfbench/setup_probe.py edge wall slope slot
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tabletamp  # noqa: E402,F401
from tabletamp.scenarios import build_scenario  # noqa: E402

scenarios = [build_scenario(name) for name in sys.argv[1:]]
elapsed = time.perf_counter() - t0

from reference import reference_seconds  # noqa: E402

print(f"{elapsed:.9f} {min(reference_seconds() for _ in range(5)):.9f}")
