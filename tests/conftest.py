"""Suite-wide pytest hooks."""

from candynim.solver import kernel_available


def pytest_report_header(config):
    """Name the engine the suite runs on, so a slow fallback run is visible."""
    if kernel_available():
        return "candynim engine: native kernel"
    return "candynim engine: pure Python (the native kernel is not built)"
