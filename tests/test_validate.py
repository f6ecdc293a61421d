"""Each ``dsfsim validate`` check, as one test; the results are computed once
per session by the ``validate_results`` fixture."""
import pytest

from dsfsim import validate


@pytest.mark.parametrize("name", [name for name, _ in validate.ALL_CHECKS])
def test_invariant_check(validate_results, name):
    ok, detail = validate_results[name]
    assert ok, detail
