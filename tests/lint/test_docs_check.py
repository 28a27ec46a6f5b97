"""The docs check's make-target gate (``tools/docs_check.py``)."""

from __future__ import annotations

from tools.docs_check import check_make_targets

MAKEFILE = """\
.PHONY: test regen
SUITES := a.py
test:
\tpytest
regen:
\tpytest --regenerate $(SUITES)
"""


def test_a_readme_naming_a_missing_target_fails(tmp_path):
    makefile = tmp_path / "Makefile"
    makefile.write_text(MAKEFILE)
    readme = tmp_path / "README.md"
    readme.write_text(
        "Run `make test`, then `make bench-ghost`.\n\n"
        "```bash\nmake regen\nmake bench-all   # gone\n```\n"
    )
    workflow = tmp_path / "ci.yml"
    workflow.write_text(
        "      - run: make test\n"
        "        run: make regen && git diff --exit-code\n"
        "      - run: make bench-scatter\n"
    )
    assert check_make_targets(makefile, [readme, workflow]) == [
        "README.md:1: names `make bench-ghost`, which the Makefile does not define",
        "README.md:5: names `make bench-all`, which the Makefile does not define",
        "ci.yml:3: names `make bench-scatter`, which the Makefile does not define",
    ]


def test_the_repository_names_only_targets_it_defines():
    assert check_make_targets() == []
