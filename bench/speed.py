"""The host's speed, to correct timings made on a shared machine.

A fixed pure-Python loop is timed just before the work it corrects.  A time
``t`` taken beside a loop time ``c`` is reported as ``t * REFERENCE_S / c``:
the time the work would take on a host where the loop takes
``REFERENCE_S``.  Load from other tenants of the machine slows the loop and
the work alike, so the ratio drops most of that noise; a change to fluxq
changes ``t`` and not ``c``.

This module imports nothing but ``time``, so the set-up probe can use it
before it imports fluxq without importing any of fluxq's dependencies early.
"""

import time

LOOPS = 5_000
ROUNDS = 4
REFERENCE_S = 1.5e-3  # the loop's median time on a 2-core x86-64 VM, Python 3.11


def loop_s() -> float:
    """Seconds the calibration loop takes now: ``ROUNDS`` times its fastest
    round, so that an interrupt in one round does not count."""
    fastest = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        x = 0
        for i in range(LOOPS):
            x += i * i
        fastest = min(fastest, time.perf_counter() - start)
    return ROUNDS * fastest


def corrected(seconds: float, loop: float) -> float:
    """``seconds``, measured beside a loop of ``loop`` seconds, at the
    reference speed."""
    return seconds * REFERENCE_S / loop
