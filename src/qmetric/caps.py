"""Resource caps.

Every potentially explosive operation checks a named cap before allocating.
The environment variable QMETRIC_CAP overrides caps: either a single integer
applied to every cap, or a comma-separated list of ``name=value`` pairs, e.g.
``QMETRIC_CAP=lattice_card=500000000,group_enum=2097152``.
"""

from __future__ import annotations

import os

from .errors import PreconditionError, ResourceLimitError

DEFAULT_CAPS = {
    # largest side of a dense matrix we agree to materialize
    "matrix_dim": 8192,
    # number of Weyl group elements enumerated by an exact supremum
    "group_enum": 1 << 20,
    # cardinality of a lattice set
    "lattice_card": 10**8,
    # dimension of a rational clock/shift representation
    "rep_dim": 4096,
    # number of elements in a dense product set
    "product_set": 1 << 20,
    # number of terms in the Fejér moment series (odd k <= n)
    "fejer_terms": 1 << 22,
}


def _parse_env(raw: str) -> dict[str, int]:
    raw = raw.strip()
    if not raw:
        return {}
    if "=" not in raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise PreconditionError(f"QMETRIC_CAP={raw!r} is not an integer") from exc
        return {name: value for name in DEFAULT_CAPS}
    out = {}
    for item in raw.split(","):
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in DEFAULT_CAPS:
            raise PreconditionError(f"unknown cap {name!r} in QMETRIC_CAP")
        try:
            out[name] = int(val)
        except ValueError as exc:
            raise PreconditionError(f"cap {name!r} has non-integer value {val!r}") from exc
    return out


def get_cap(name: str) -> int:
    if name not in DEFAULT_CAPS:
        raise PreconditionError(f"unknown cap {name!r}")
    env = os.environ.get("QMETRIC_CAP")
    if env:
        overrides = _parse_env(env)
        if name in overrides:
            return overrides[name]
    return DEFAULT_CAPS[name]


def check_cap(name: str, requested: int, what: str) -> None:
    cap = get_cap(name)
    if requested > cap:
        raise ResourceLimitError(f"{what} needs {requested} > cap {name}={cap}")
