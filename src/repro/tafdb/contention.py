"""Selective delta-record activation (§5.2.1).

Delta records make dirstat more expensive (it must scan and fold deltas), so
they are "enabled selectively, activated only under sustained contention
within a directory".  The registry watches transaction aborts per directory:
crossing ``threshold`` aborts inside a sliding ``window_us`` flips the
directory into delta mode; the mode decays once the window passes without
further aborts.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict


class ContentionRegistry:
    """Sliding-window abort tracker deciding which directories use deltas."""

    def __init__(self, threshold: int = 3, window_us: float = 1_000_000.0,
                 enabled: bool = True):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.threshold = threshold
        self.window_us = window_us
        self.enabled = enabled
        self._aborts: Dict[int, Deque[float]] = {}
        self._active_until: Dict[int, float] = {}
        self.activations = 0

    def note_abort(self, dir_id: int, now: float) -> None:
        """Record one transaction abort caused by contention on ``dir_id``."""
        if not self.enabled:
            return
        window = self._aborts.setdefault(dir_id, collections.deque())
        window.append(now)
        horizon = now - self.window_us
        while window and window[0] < horizon:
            window.popleft()
        if len(window) >= self.threshold:
            if self._active_until.get(dir_id, -1.0) < now:
                self.activations += 1
            self._active_until[dir_id] = now + self.window_us

    def is_delta_mode(self, dir_id: int, now: float) -> bool:
        """Should updates to ``dir_id``'s attributes go through delta rows?"""
        if not self.enabled:
            return False
        until = self._active_until.get(dir_id)
        if until is None:
            return False
        if until < now:
            # Decayed: clean up lazily.
            del self._active_until[dir_id]
            self._aborts.pop(dir_id, None)
            return False
        return True

    @property
    def active_count(self) -> int:
        return len(self._active_until)
