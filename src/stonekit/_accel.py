"""The bitmask kernels as the library calls them.

``_kernels`` is the one implementation; this module re-exports its six
kernels so that every library call site goes through ``_accel.X(...)``.
That single indirection is the seam a profiler or tracer patches to
count and time kernel calls, and ``backend_name()`` reports the backend
for benchmark records. ``bound_tables`` has no library call site left;
it stays here as a test oracle, under the name the tracer patches.
"""

from ._kernels import (
    bound_tables,
    check_poset,
    closure,
    distributive_witness,
    downset_masks,
    transpose,
)

__all__ = [
    "backend_name",
    "bound_tables",
    "check_poset",
    "closure",
    "distributive_witness",
    "downset_masks",
    "transpose",
]


def backend_name():
    return "pure"
