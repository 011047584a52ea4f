"""Shared test plumbing: the acceptance criteria scoreboard."""

import re

CRITERIA = []
WALL_S = {}   # criterion number -> seconds its test took, set-up included


def record_criterion(number, name, ok, detail=""):
    CRITERIA.append((number, name, bool(ok), detail))
    return bool(ok)


def pytest_runtest_logreport(report):
    m = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if m:
        number = int(m.group(1))
        WALL_S[number] = WALL_S.get(number, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.write_line("")
    # each line carries the wall time of the criterion's test; a fixture
    # shared by several criteria counts in the first of them
    terminalreporter.write_line("acceptance criteria")
    for number, name, ok, detail in sorted(CRITERIA):
        verdict = "PASS" if ok else "FAIL"
        wall = WALL_S.get(number, 0.0)
        line = f"  [{verdict}] {wall:5.1f}s criterion {number:2d} ({name})"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
