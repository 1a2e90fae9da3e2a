"""The named mutants of tools/mutants.py stay applicable: each old text
occurs exactly once in the current source, and each test named for a
mutant exists.  Running the mutants is the tool's job, not tier-1's."""

from __future__ import annotations

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


def test_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) == 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    compile(source.replace(mutant.old, mutant.new), mutant.path, "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *parts = test_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        *classes, function = parts
        for cls in classes:
            assert f"\nclass {cls}" in source, test_id
        assert f"def {function}(" in source, test_id
