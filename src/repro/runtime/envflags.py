"""One shared parser for the ``REPRO_*`` environment switches.

Before this module every consumer rolled its own: ``REPRO_PAPER_SCALE``
compared against ``("0", "", "false")`` (so ``False`` — capital F — read as
*true*), and ``REPRO_TRANSPORT`` did raw string matching.  All env-flag reads now go
through :func:`env_bool` / :func:`env_choice`: case-insensitive,
whitespace-tolerant, and *strict* — a value that is neither recognizably
true nor false raises instead of being silently (mis)interpreted, because a
typo in a CI matrix leg must fail the leg, not flip its meaning.
"""

from __future__ import annotations

import os

__all__ = [
    "effective_cpu_count",
    "env_bool",
    "env_choice",
    "FALSEY",
    "TRUTHY",
]

#: values (lowercased, stripped) read as False; the empty string counts —
#: ``REPRO_X= cmd`` is "unset" in intent
FALSEY = frozenset({"0", "false", "no", "off", ""})

#: values (lowercased, stripped) read as True
TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_bool(name: str, default: bool = False) -> bool:
    """Boolean environment flag.

    Unset (or set to the empty string) returns ``default``; recognized
    true/false spellings (any case) return their value; anything else
    raises ``ValueError`` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value == "":
        return default
    if value in TRUTHY:
        return True
    if value in FALSEY:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a recognized boolean "
        f"(true: {sorted(TRUTHY)}, false: {sorted(v for v in FALSEY if v)})"
    )


def effective_cpu_count() -> int:
    """CPUs actually usable by this process, not CPUs in the machine.

    CI runners and containers routinely pin a process to a subset of a
    many-core host (cgroups, ``taskset``); ``os.cpu_count()`` reports the
    host and over-promises.  ``os.sched_getaffinity`` reports the
    schedulable set, so multi-core perf gates keyed on it skip where they
    would only measure oversubscription.  Falls back to ``os.cpu_count()``
    on platforms without affinity masks; never returns less than 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def env_choice(name: str, choices, default=None):
    """Enumerated environment flag.

    Unset/empty returns ``default``; a value matching one of ``choices``
    (case-insensitively) returns the canonical choice; anything else raises
    ``ValueError`` naming the variable and the valid values.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value == "":
        return default
    for choice in choices:
        if value == str(choice).lower():
            return choice
    raise ValueError(
        f"{name}={raw!r} is not a valid choice (expected one of "
        f"{tuple(choices)})"
    )
