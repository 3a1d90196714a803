"""The README's test count against the suite pytest collects, and its check
count against ``checks.CHECKS``."""

import re
from pathlib import Path

import pytest

from phasemix import checks

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_readme_states_the_suite_size(collected_tests):
    # Only a run that collected every test file sees the whole suite.
    if not set(TESTS.glob("test_*.py")) <= {item.path for item in collected_tests}:
        pytest.skip("the run did not collect every test file")
    stated = re.search(r"The full suite holds (\d+) tests", " ".join(README.read_text().split()))
    assert stated, "README.md no longer states the suite size"
    assert int(stated.group(1)) == len(collected_tests)


@pytest.mark.parametrize("statement", [r"run the (\d+) invariant checks",
                                       r"the (\d+) `validate` invariants"])
def test_readme_states_the_check_count(statement):
    stated = re.search(statement, " ".join(README.read_text().split()))
    assert stated, f"README.md no longer says {statement!r}"
    assert int(stated.group(1)) == len(checks.CHECKS)
