"""Have pytest rewrite the asserts of the test oracles too.

pytest rewrites asserts only in test modules and in the modules named
here; without this, under `python -O` every check in `_oracles` would be
stripped and its audits would pass vacuously.
"""
import pytest

pytest.register_assert_rewrite("tests._oracles")
