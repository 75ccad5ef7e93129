"""The mutation tables still apply: each audit mutant's old text occurs once in its file under src/,
and each sweep mutant reviewed as equivalent is still a site of the sweep."""
import os

import pytest

from mutation_audit import MUTANTS, ROOT
from mutation_sweep import EQUIVALENT, mutants


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.path.startswith("src/")
    assert mutant.old != mutant.new
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1


@pytest.mark.parametrize("entry", EQUIVALENT, ids=[f"{e.path.rsplit('/', 1)[-1]}-{i}" for i, e in enumerate(EQUIVALENT)])
def test_equivalent_sweep_mutant_is_still_a_site(entry):
    with open(os.path.join(ROOT, entry.path)) as fh:
        sites = {(m.line, m.old, m.new) for m in mutants(fh.read())}
    assert (entry.line, entry.old, entry.new) in sites
