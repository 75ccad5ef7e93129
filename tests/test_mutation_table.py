"""The mutation audit's table still applies: each mutant's old text occurs once in its file under src/."""
import os

import pytest

from mutation_audit import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.path.startswith("src/")
    assert mutant.old != mutant.new
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1
