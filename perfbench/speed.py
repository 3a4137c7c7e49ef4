"""Machine speed, measured with a fixed probe of the benchmark's own code.

The 2-vCPU VM the benchmark was tuned on changes speed by up to 2x over
minutes as other tenants load the host, which moves every timing with it.
The probe is pure-Python reference code from `ref` on fixed inputs, so it
slows down with the machine but never with a change to mvq. Timings are
divided by the probe's slowdown around them, relative to a probe time of
REFERENCE_S (this VM in its fast state). Raw timings are printed too.
"""

from __future__ import annotations

import random
import time

import gen
import ref

REFERENCE_S = 0.004


class Speedometer:
    def __init__(self) -> None:
        rng = random.Random("probe")
        self._model = ref.RefNetlist(gen.random_netlist(rng, 4, 2, 300, 8))
        self._on, self._dc, _ = ref.table_masks(gen.random_table(rng, 6, 0.3, 0.08))
        self.samples: list[float] = []
        self.slowdown()  # fills the cube tables the probe reuses

    def _probe(self) -> None:
        for r in range(0, 256, 16):
            self._model.evaluate(self._model.row_levels(r))
        ref.min_cover_cost(6, self._on, self._dc)

    def slowdown(self) -> float:
        """The best of three probe times over REFERENCE_S."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._probe()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best / REFERENCE_S)
        return self.samples[-1]
