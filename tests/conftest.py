import pathlib

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("suite")

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    # Every warning fails a test here, numpy overflow, divide and invalid
    # warnings and unclosed files included.  The mark is put on these tests
    # alone, not in pyproject.toml, which would also reach perfbench/tests.
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
