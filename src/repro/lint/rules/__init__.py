"""Rule family modules; importing them populates the registry.

``det``     determinism (wall clocks, global RNG, set iteration, environ)
``layer``   import-DAG layering and cycle detection
``proto``   protocol-surface completeness (pools, FTL hooks)
``frozen``  frozen-dataclass hygiene (object.__setattr__ escapes)
"""

from . import det, frozen, layer, proto  # noqa: F401

__all__ = ["det", "frozen", "layer", "proto"]
