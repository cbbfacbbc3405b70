import numpy as np
import pytest

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for one pass/fail line per acceptance criterion."""

    def record(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"criterion {criterion:2d}: {status}  {detail}"
        print(line)
        _acceptance_lines.append(line)

    return record


@pytest.fixture(scope="session")
def records_equal():
    """Field-by-field equality of two records that hold arrays: ``==`` raises
    on a NamedTuple's arrays."""

    def equal(first, second) -> bool:
        if type(first) is not type(second):
            return False
        return all(np.array_equal(a, b) for a, b in zip(first, second))

    return equal


@pytest.fixture(scope="session")
def assert_frozen():
    """Asserts that ``array`` is a read-only ``dtype`` array of ``shape`` (1-D
    when None) with entries in [low, high]: what each record's producer makes."""

    def check(array, dtype, low, high, shape=None) -> None:
        assert type(array) is np.ndarray and array.dtype == dtype
        assert not array.flags.writeable
        assert array.ndim == 1 if shape is None else array.shape == shape
        assert array.size == 0 or low <= array.min() and array.max() <= high

    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
