"""Host-speed probes: fixed pieces of pure-Python work that use no catlp code.

The benchmark shares its host with other tenants, and the host's speed
swings by up to about 1.8x over seconds to minutes (a pure-Python loop
alternates between two speeds on a shared 2-vCPU Xeon host).  Timing a probe
next to a measurement tells how slow the host is at that moment, as a
multiple of a reference host; dividing the measured time by that slowdown
gives the time the reference host would take.

Different work slows by different amounts, so there are two probes.  The
command probe sorts, hashes and compares frozensets of strings spread over
about 4 MB, like catlp's own work on sets of atom names; its sets add a
constant 4-5 MB to the benchmark process's RSS.  The import probe executes
precompiled source that defines a dozen dataclasses, like the module bodies
``import catlp.cli`` runs.  Nothing in either depends on catlp, so a change
to catlp cannot move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

#: Probe times of the reference host: about the uncontended times on the
#: shared 2.1 GHz Xeon host the benchmark was defined on.
COMMAND_REFERENCE_S = 0.001
IMPORT_REFERENCE_S = 0.0065

_NAMES = [f"atom_{i}" for i in range(400)]
_SETS = [frozenset(_NAMES[i * 7 % 400:i * 7 % 400 + 5]) for i in range(6000)]

_CLASSES = compile("".join(f"""
@dataclass(frozen=True)
class Probe{i}:
    name: str
    size: int = 0
    items: tuple = ()

    def total(self):
        return self.size + len(self.items)
""" for i in range(12)), "<probe>", "exec")


def _set_work() -> None:
    seen: dict[tuple[str, ...], int] = {}
    for i in range(0, len(_SETS), 4):
        items = _SETS[i]
        key = tuple(sorted(items))
        seen[key] = seen.get(key, 0) + (items <= _SETS[i * 13 % len(_SETS)])


def _class_work() -> None:
    exec(_CLASSES, {"dataclass": dataclass, "__name__": __name__})


def _best_of_two(work) -> float:
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        work()
        best = min(best, perf_counter() - start)
    return best


def command_slowdown() -> float:
    """How many times slower than the reference host set work runs now."""
    return _best_of_two(_set_work) / COMMAND_REFERENCE_S


def import_slowdown() -> float:
    """How many times slower than the reference host class creation runs now."""
    return _best_of_two(_class_work) / IMPORT_REFERENCE_S
