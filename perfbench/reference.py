"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

On a shared machine the speed of one core moves by 10-40% over seconds to
minutes, with the same effect on wall time and CPU time, so identical
passes over deterministic episodes differ by that much. Timing this kernel
between episodes and scaling each episode by it takes that drift out. The
kernel belongs to the benchmark, so a change to tabletamp cannot speed it
up or slow it down; it runs with the cyclic garbage collector off, so the
program's heap does not change its time either.
"""

import gc
import math
import time

# Normalized times are wall times scaled to a machine on which the kernel
# takes this long. It is a round figure near the kernel's time on the 2-core
# sandbox the baseline was measured on; run.py prints the measured ratio as
# machine_speed.
NOMINAL_S = 0.001


def _kernel() -> float:
    pts = [(math.cos(i * 0.1), math.sin(i * 0.1)) for i in range(64)]
    acc = 0.0
    for _ in range(100):
        for i in range(len(pts)):
            ax, ay = pts[i]
            bx, by = pts[i - 1]
            acc += ax * by - ay * bx
        pts = [(x * 0.999 + 0.001, y * 0.999) for x, y in pts]
    return acc


def reference_seconds() -> float:
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
