import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from rootfield import mk_field

settings.register_profile(
    "repo",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


class DeadlineExceeded(AssertionError):
    """A block under deadline() ran past its bound."""


@contextmanager
def deadline(seconds):
    """Run the block under a wall-clock bound: SIGALRM raises
    DeadlineExceeded inside it once seconds have passed, so a shape that
    regresses to unbounded fails at its bound, not minutes later.  The
    error names the frame it stopped and is raised anew from here: a
    traceback entered by a signal can hold a frame with no line number,
    which pytest cannot format.  The previous handler and timer are
    restored on exit; a timer that fell due meanwhile fires at once.
    Main thread only, as signals are."""
    def expire(_signum, frame):
        code = frame.f_code
        raise DeadlineExceeded(f"past the {seconds} s deadline, in "
                               f"{code.co_name} ({code.co_filename})")

    handler = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    due, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except DeadlineExceeded as exc:
        raise DeadlineExceeded(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if due:
            signal.setitimer(signal.ITIMER_REAL, max(
                due - (time.monotonic() - start), 1e-6), interval)


@pytest.fixture(scope="session")
def f13():
    return mk_field(13, 1)


@pytest.fixture(scope="session")
def f7():
    return mk_field(7, 1)


@pytest.fixture(scope="session")
def f8():
    return mk_field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return mk_field(3, 2)


@pytest.fixture(scope="session")
def f39():
    return mk_field(3, 9)


@pytest.fixture(scope="session")
def f75():
    return mk_field(7, 5)
