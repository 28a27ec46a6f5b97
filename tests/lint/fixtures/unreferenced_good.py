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


class Rl501Base:
    def rl501_run(self):
        """Calls a method only subclasses define, through ``self``."""
        return self.rl501_step()


class Rl501Child(Rl501Base):
    def __init__(self):  # dunders are exempt
        self._level = 0

    def rl501_step(self):  # called only through the base class's attribute
        return self._private_helper()

    def _private_helper(self):  # private names are exempt
        return 1

    @property
    def rl501_size(self):  # a property read as an attribute
        return 2

    def rl501_hook(self):  # named only by a getattr string
        return 3

    @property
    def rl501_level(self):  # a getter/setter pair, assigned from outside
        return self._level

    @rl501_level.setter
    def rl501_level(self, value):
        self._level = value

    def rl501_kept(self):  # lint: disable=RL501 (a recovery path no run reaches)
        return 4


def rl501_methods():  # lint: disable=RL501 (an entry point a runner calls by name)
    child = Rl501Child()
    child.rl501_level = child.rl501_size
    return child.rl501_run(), getattr(child, "rl501_hook")()
