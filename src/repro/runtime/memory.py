"""Process-memory introspection and the one throttled resource probe.

A pure-Python BDD package is memory-bound long before it is CPU-bound:
the node store, the unique table and the computed table all grow with
the OBDDs, and nothing in the paper's 30,000-node space limit sees the
actual process footprint.  This module supplies the current resident
set size without any dependency beyond the standard library, and the
:class:`Probe` every resource reading goes through: the governor's
RSS probe (shared with every pressure monitor) and the disk governor's
usage and free-space probes.

On Linux the value comes from one short read of ``/proc/self/statm``
(field 2, resident pages, times the page size).  Elsewhere the
``resource`` module's peak RSS is used as a monotone stand-in; when even
that is unavailable the reader returns None and every RSS-based feature
degrades to inert.
"""

import os
import sys

_STATM_PATH = "/proc/self/statm"

_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, OSError, ValueError):  # pragma: no cover
    pass


def read_rss_bytes(path=_STATM_PATH):
    """Current resident set size in bytes, or None when unavailable.

    The fallback (``getrusage`` peak RSS) only ever grows, which is
    still a usable budget trigger: a budget crossed by the peak has
    certainly been crossed by the current value at some point.
    """
    try:
        with open(path, "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS
        scale = 1 if sys.platform == "darwin" else 1024
        return int(peak) * scale
    except Exception:  # pragma: no cover - no resource module at all
        return None


class Probe:
    """Throttled, cached reader of one resource value.

    Reading ``/proc`` or statting files is cheap but not free, and a
    node-allocation hook may consult a probe thousands of times per
    frame.  The probe calls *read* again only every *refresh* calls, or
    when forced, and serves the cached value in between.  A *read* that
    returns None on first use makes the probe unavailable for good, so
    platforms without ``/proc`` pay one failed read, not one per call;
    a later None keeps the last value.  ``peak`` and ``low`` are the
    extremes of every value read (0 and None before the first).
    """

    def __init__(self, read, refresh):
        if refresh < 1:
            raise ValueError("refresh must be >= 1")
        self.refresh = refresh
        self._read = read
        self._calls = 0
        self._value = None
        self._available = True
        self.peak = 0
        self.low = None

    def __call__(self, force=False):
        if not self._available:
            return None
        if force or self._value is None or self._calls >= self.refresh:
            self._calls = 0
            value = self._read()
            if value is not None:
                self._value = value
                self.peak = max(self.peak, value)
                self.low = value if self.low is None else min(self.low, value)
            elif self._value is None:
                self._available = False
                return None
        self._calls += 1
        return self._value


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_size(text):
    """Parse a human size string (``512M``, ``2g``, ``1048576``) to bytes.

    Used by the CLI's ``--rss-budget`` / ``--worker-rss-cap`` flags.
    Accepts a bare number (bytes), an optional one-letter binary suffix
    (K/M/G/T, case-insensitive) and an optional trailing ``b``/``iB``.
    """
    if isinstance(text, (int, float)):
        return int(text)
    raw = str(text).strip().lower()
    for tail in ("ib", "b"):
        if raw.endswith(tail) and len(raw) > len(tail):
            raw = raw[: -len(tail)]
            break
    scale = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        scale = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        return int(float(raw) * scale)
    except ValueError:
        raise ValueError(
            f"unparsable size {text!r} (expected e.g. 512M, 2G, 1048576)"
        ) from None
