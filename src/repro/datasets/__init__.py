"""Dataset persistence: observation days as on-disk directories.

A deployment feeds Segugio from live infrastructure; experiments and
hand-offs need the same inputs as files.  :mod:`repro.datasets.store`
writes a complete :class:`repro.core.pipeline.ObservationContext` — trace,
feeds, activity index, passive-DNS history, PSL augmentation — as one
self-describing directory, preserving the global domain-id space so models
and reports transfer exactly; :func:`repro.runtime.ingest
.load_observation_checked` reads it back.
"""

from repro.datasets.store import save_observation

__all__ = ["save_observation"]
