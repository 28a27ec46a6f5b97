# lint: scope=reachable
"""Unreferenced public definitions (RL501): nothing uses any of these."""

__all__ = ["Rl501Exported"]  # an __all__ entry is not a use


def rl501_orphan():  # line 7: RL501 (only its own body names it)
    return rl501_orphan


class Rl501DocOnly:  # line 11: RL501 (only a docstring names it)
    """Mentioned by rl501_documenter's docstring, used by nobody."""


class Rl501Exported:  # line 15: RL501 (only __all__ and an import name it)
    """Re-exporting is not using."""


RL501_UNREAD = 3  # line 19: RL501 (assigned, never read)


def rl501_documenter():  # lint: disable=RL501 (carries the non-uses below)
    """Returns nothing; ``Rl501DocOnly`` in a docstring does not count."""
    # nor does Rl501DocOnly in a comment, nor RL501_UNREAD
    from tests.lint.fixtures.unreferenced_bad import Rl501Exported  # noqa: F401

    return None


def _rl501_private():  # private names are exempt
    return None


class Rl501Holder:  # lint: disable=RL501 (hosts the method cases below)
    def rl501_method(self):  # line 35: RL501 (only its own body calls it)
        return self.rl501_method()

    @property
    def rl501_property(self):  # line 39: RL501 (only its own setter names it)
        return 1

    @rl501_property.setter
    def rl501_property(self, value):
        self._value = value
