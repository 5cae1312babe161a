"""Each mutant of ``tests/mutants.py`` names text that occurs once in its module.

The script itself refuses a mutant whose old text does not match once,
but it is slow and outside tier-1; this check is not.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once_in_its_module(mutant):
    source = (ROOT / "src" / "power_forge" / mutant.module).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
