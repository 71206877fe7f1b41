"""Keep the process-wide observability state out of other tests."""

import pytest

from repro.obs import (
    Journal,
    disable_observability,
    get_collector,
    get_journal,
    get_registry,
    set_journal,
    validate_event,
)


@pytest.fixture(autouse=True)
def _isolate_global_observability():
    """Every obs test leaves the global registry/collector off and empty,
    and the global journal replaced by a fresh disabled one (a test may
    have installed its own via set_journal/enable_journal).

    Before the reset, every event the test left in the process-wide
    journal is validated strictly (``require_known_kind=True``): an
    emitter using an unregistered kind fails the suite here rather
    than silently growing the vocabulary.
    """
    yield
    events = [event.as_dict() for event in get_journal().tail()]
    disable_observability()
    get_registry().clear()
    get_collector().clear()
    set_journal(Journal(enabled=False))
    for event in events:  # after the reset, so one failure can't cascade
        validate_event(event, require_known_kind=True)
