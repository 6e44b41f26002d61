"""Binding point for the traced benchmark; not a kernel layer.

Every distance kernel has one implementation, in
:mod:`repro.linalg.kernels`, and the program imports it from there.
The traced benchmark run (``perfbench/tracing.py``) times these four
kernels by looking them up on this module and replacing every
``repro`` module attribute that holds the same function object, so the
names below are plain re-exports of the ``kernels`` objects, never
wrappers.  The module goes once the trace binds ``kernels`` directly.
"""

from .kernels import (
    batch_l2_rows,
    batch_mahalanobis_rows,
    cold_lru_physical_reads,
    flat_l2,
)

__all__ = [
    "batch_l2_rows",
    "batch_mahalanobis_rows",
    "cold_lru_physical_reads",
    "flat_l2",
]
