import os

import pytest

import acceptance_registry
from squarespan.corpus import load_default_corpus


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SQUARESPAN_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow: set SQUARESPAN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def corpus_records():
    return load_default_corpus()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = acceptance_registry.lines()
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.line(line)


@pytest.fixture
def pool_starts(monkeypatch):
    """Count the process pools the extension code starts."""
    from concurrent.futures import ProcessPoolExecutor

    import squarespan.extension

    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(squarespan.extension, "ProcessPoolExecutor",
                        CountingPool)
    return started
