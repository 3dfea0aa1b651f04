import pytest

# When a @given test fails, hypothesis imports libcst to offer a patch for the
# falsifying example, and libcst's import subclasses the deprecated
# mypy_extensions.TypedDict.  Under ``-W error`` that one warning escapes the
# report hook as an INTERNALERROR and the falsifying example is lost; every
# other warning stays an error.
_LIBCST_IMPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_LIBCST_IMPORT_WARNING))
