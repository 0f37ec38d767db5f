"""Marks the acceptance criteria, so `pytest -m "not acceptance"` runs the
rest of the suite as the fast loop."""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
