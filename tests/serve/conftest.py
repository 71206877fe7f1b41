"""Shared serve-test helpers + observability isolation."""

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
    """Serve tests that enable obs leave the globals off and empty.

    Journaled events are validated strictly on the way out
    (``require_known_kind=True``): the serve path may only emit
    registered event kinds.
    """
    yield
    events = [event.as_dict() for event in get_journal().tail()]
    disable_observability()
    get_registry().clear()
    get_collector().clear()
    set_journal(Journal(enabled=False))
    for event in events:  # after the reset, so one failure can't cascade
        validate_event(event, require_known_kind=True)
