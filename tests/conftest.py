"""Shared pytest configuration: every test log names the kernel backend."""

from dualsim.kernels import BACKEND_NAME

BACKEND_LINE = f"dualsim backend: {BACKEND_NAME}"


def pytest_report_header(config):
    return BACKEND_LINE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q drops the header, so the line goes at the end of the log instead
    if config.option.verbose < 0:
        terminalreporter.write_line(BACKEND_LINE)
