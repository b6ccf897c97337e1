import importlib.util
import os
import sys


def pytest_report_header():
    # pyproject's pythonpath = ["src"] goes before PYTHONPATH: the tree under test is this one
    spec = importlib.util.find_spec("carleman_lab")
    return f"carleman_lab under test: {os.path.dirname(spec.origin)}"


def pytest_terminal_summary(terminalreporter):
    module = next(
        (m for name, m in sys.modules.items() if name.rpartition(".")[2] == "test_acceptance"),
        None,
    )
    lines = getattr(module, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
