"""Profiling: per-site cycle census with config-tree attribution.

The substrate for cost-aware search objectives — see
:mod:`repro.profile.census` for the document shape.  Counts come from
the VM's ``profile=True`` counters, which ride fused dispatch.
"""

from repro.profile.census import (
    PROFILE_VERSION,
    build_profile,
    collect_profile,
    dumps,
    emit_profile,
    load_profile,
)

__all__ = [
    "PROFILE_VERSION",
    "build_profile",
    "collect_profile",
    "dumps",
    "emit_profile",
    "load_profile",
]
