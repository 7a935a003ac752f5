import pathlib

import hypothesis
import pytest

from fluxopt import harness

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("suite")

_HERE = pathlib.Path(__file__).parent
_HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    # Every warning fails a test here, numpy overflow, divide and invalid
    # warnings and unclosed files included.  The mark is put on these tests
    # alone, not in pyproject.toml, which would also reach perfbench/tests.
    # The one exception is the DeprecationWarning that hypothesis's report
    # hook raises while it reports a failing @given test: as an error it
    # ends the session in INTERNALERROR, with the failure's detail lost and
    # the later tests not run.
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(_HYPOTHESIS_REPORT_WARNING))


@pytest.fixture(autouse=True)
def no_kept_meshes():
    # the harness keeps meshes with their stores for the whole process; each
    # test starts without them, so no cached set-up passes between tests
    harness._KEPT.clear()
    yield
    harness._KEPT.clear()
