"""Unit tests for the delta-mode ContentionRegistry."""

import pytest

from repro.tafdb.contention import ContentionRegistry


def test_below_threshold_stays_in_place():
    reg = ContentionRegistry(threshold=3, window_us=100.0)
    reg.note_abort(1, now=0.0)
    reg.note_abort(1, now=1.0)
    assert not reg.is_delta_mode(1, now=2.0)


def test_threshold_activates_delta_mode():
    reg = ContentionRegistry(threshold=3, window_us=100.0)
    for t in (0.0, 1.0, 2.0):
        reg.note_abort(1, now=t)
    assert reg.is_delta_mode(1, now=3.0)
    assert reg.activations == 1


def test_aborts_outside_window_do_not_count():
    reg = ContentionRegistry(threshold=3, window_us=10.0)
    reg.note_abort(1, now=0.0)
    reg.note_abort(1, now=1.0)
    reg.note_abort(1, now=50.0)  # first two expired
    assert not reg.is_delta_mode(1, now=51.0)


def test_mode_decays_after_quiet_window():
    reg = ContentionRegistry(threshold=2, window_us=10.0)
    reg.note_abort(1, now=0.0)
    reg.note_abort(1, now=1.0)
    assert reg.is_delta_mode(1, now=5.0)
    assert not reg.is_delta_mode(1, now=100.0)
    assert reg.active_count == 0


def test_sustained_contention_keeps_mode_alive():
    reg = ContentionRegistry(threshold=2, window_us=10.0)
    for t in range(0, 100, 5):
        reg.note_abort(1, now=float(t))
    assert reg.is_delta_mode(1, now=105.0)


def test_directories_tracked_independently():
    reg = ContentionRegistry(threshold=2, window_us=100.0)
    reg.note_abort(1, now=0.0)
    reg.note_abort(1, now=1.0)
    reg.note_abort(2, now=1.0)
    assert reg.is_delta_mode(1, now=2.0)
    assert not reg.is_delta_mode(2, now=2.0)


def test_disabled_registry_never_activates():
    reg = ContentionRegistry(threshold=1, window_us=100.0, enabled=False)
    reg.note_abort(1, now=0.0)
    assert not reg.is_delta_mode(1, now=1.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ContentionRegistry(threshold=0)
    with pytest.raises(ValueError):
        ContentionRegistry(window_us=0.0)
