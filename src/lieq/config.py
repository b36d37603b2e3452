"""Runtime caps and the seed convention shared across the package."""

from __future__ import annotations

import os
from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


@dataclass(frozen=True)
class Caps:
    """Desk-scale guardrails.  All values must be positive."""

    rank: int = 6
    weyl_order: int = 2000
    module_dim: int = 500

    def __post_init__(self):
        for name in ("rank", "weyl_order", "module_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cap {name!r} must be positive")


def caps_from_env() -> Caps:
    """Default caps, each overridable through LIEQ_<NAME>_CAP; a value
    that is not a positive integer raises ValueError naming it."""
    kwargs = {}
    for field, env in (
        ("rank", "LIEQ_RANK_CAP"),
        ("weyl_order", "LIEQ_WEYL_CAP"),
        ("module_dim", "LIEQ_MODULE_CAP"),
    ):
        value = os.environ.get(env)
        if value is not None:
            if not value.strip().isdecimal() or int(value) == 0:
                raise ValueError(f"{env}={value!r} is not a positive integer")
            kwargs[field] = int(value)
    return Caps(**kwargs)


DEFAULT_SEED = 0
