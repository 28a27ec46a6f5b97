# lint: scope=reachable
"""RL501-clean twins: every public definition is used outside its body."""

import sys

RL501_LIMIT = 3  # read by rl501_patched


class Rl501Annotated:
    """Named only inside the string annotation of rl501_entry."""


def rl501_patched():
    """Named only by the string constant of a getattr-style lookup."""
    return RL501_LIMIT


def rl501_entry(value: "Rl501Annotated | None" = None):  # lint: disable=RL501 (an entry point a runner calls by name)
    hook = getattr(sys.modules[__name__], "rl501_patched")
    return hook(), value
