"""Shared low-level utilities: seeded RNG streams, string interning,
integer-array set operations.

These helpers underpin the deterministic simulation substrate.  Everything in
:mod:`repro.synth` draws randomness through :class:`repro.utils.rng.RngFactory`
so an entire multi-day, multi-ISP scenario is reproducible from one seed.
"""

from repro.utils.arrays import sorted_unique
from repro.utils.ids import Interner
from repro.utils.rng import RngFactory

__all__ = ["Interner", "RngFactory", "sorted_unique"]
