"""Session-level reporting: print the benches' report lines."""

from typing import List

#: Free-form report lines from the benches.
REPORT_LINES: List[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in REPORT_LINES:
        terminalreporter.write_line(line)
