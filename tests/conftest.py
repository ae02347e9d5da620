import sys

import pytest
from hypothesis import settings

from nsfd import SplitSystem

# --hypothesis-profile=ci runs each byte-equality property (those decorated
# with oracles.equality_settings) with this many examples
settings.register_profile("ci", max_examples=500)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Repeat the acceptance-criterion verdict lines where capture cannot
    # swallow them.
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "RESULTS", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.RESULTS:
                terminalreporter.write_line(line)
            return


@pytest.fixture(scope="session")
def sink_origin_system():
    """Synthetic system whose only equilibrium is a stable origin."""
    return SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: 2.0,
        lambda x, y: 0.3,
        lambda x, y: 1.0,
        name="sink_origin",
    )


@pytest.fixture(scope="session")
def stable_e1_system():
    """Synthetic system with a stable boundary point (1, 0) on the x axis."""
    return SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: x,
        lambda x, y: 0.5,
        lambda x, y: 1.0,
        name="stable_e1",
    )


@pytest.fixture(scope="session")
def stable_e2_system():
    """Synthetic system with a stable boundary point (0, 1) on the y axis."""
    return SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: 2.0,
        lambda x, y: 1.0,
        lambda x, y: y,
        name="stable_e2",
    )


@pytest.fixture(scope="session")
def root_loss_system():
    """Coexistence at (1/3, (1 - sqrt(1/3))/0.3); off the quadrant the loss
    x ** 0.5 of a negative python float is complex."""
    return SplitSystem(
        lambda x, y: 1.0,
        lambda x, y: x ** 0.5 + 0.3 * y,
        lambda x, y: 0.8 * x / (1.0 + x),
        lambda x, y: 0.2,
        name="root_loss",
    )
