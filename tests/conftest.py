import contextlib
import dataclasses
import sys

import pytest

from dirmoment import kernel


@pytest.fixture
def kernel_config():
    """The kernel at another configuration for the length of a with
    block: ``with kernel_config(h=2.0):`` runs w_eval_batch at step 2,
    and the one configuration is back on leaving the block."""
    @contextlib.contextmanager
    def swap(**changes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_CONFIG",
                       dataclasses.replace(kernel._CONFIG, **changes))
            yield
    return swap


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion result lines after capture ends."""
    mod = (sys.modules.get("tests.test_acceptance")
           or sys.modules.get("test_acceptance"))
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
