"""Shared pytest settings for the test suite."""

import pytest

# Hypothesis' report hook can touch mypy_extensions.TypedDict, which warns.
# Under `-W error` that warning would end a failing hypothesis test in an
# INTERNALERROR before its falsifying example is printed. A mark on each test
# outranks the command line's `-W error`; an ini `filterwarnings` does not.
_IGNORE_TYPEDDICT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_IGNORE_TYPEDDICT)
