"""The reach probe (``tools/reach.py``) over a toy module."""

from __future__ import annotations

import importlib.util
import threading

from tools.reach import functions, never_run

TOY = '''
def called():
    return Box().method()


def never():
    return 1


class Box:
    def method(self):
        return self.size

    @property
    def size(self):
        return 2

    def unused(self):
        def inner():
            return 3
        return inner()


def in_thread():
    return 4
'''


def test_never_run_lists_exactly_the_functions_no_thread_entered(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("reach_toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run() -> None:
        module.called()
        thread = threading.Thread(target=module.in_thread)
        thread.start()
        thread.join()

    assert [name for _, name, _ in functions(path)] == [
        "called", "never", "Box.method", "Box.size", "Box.unused",
        "Box.unused.<locals>.inner", "in_thread",
    ]
    missed = never_run([path], run)
    assert [(line, name) for line, name, _ in missed[path]] == [
        (6, "never"), (18, "Box.unused"), (19, "Box.unused.<locals>.inner"),
    ]
