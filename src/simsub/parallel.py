"""The in-order map that `lattice.verify_series` makes its one walk through.

It is kept only because `perfbench/tracer.py` imports this module and
patches `lattice.map_ordered` to time the walk; the benchmark rework
(ROADMAP item 2) deletes it.
"""

from __future__ import annotations


def map_ordered(fn, items, workers: int = 1) -> list:
    """[fn(x) for x in items]; workers is accepted for the tracer's patch and unused."""
    return [fn(x) for x in items]
