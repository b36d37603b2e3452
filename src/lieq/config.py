"""Runtime caps and the seed convention shared across the package."""

from __future__ import annotations

import os
from collections import namedtuple


class CapExceeded(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class Caps(namedtuple("Caps", "rank weyl_order module_dim", defaults=(6, 2000, 500))):
    """Desk-scale guardrails, a read-only value.  All values must be
    positive."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value <= 0:
                raise ValueError(f"cap {name!r} must be positive")
        return self


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
