"""RSS introspection: /proc reads, the throttled probe, size parsing."""

import pytest

from repro.runtime.memory import Probe, parse_size, read_rss_bytes


def test_read_rss_bytes_positive():
    # /proc/self/statm on Linux, getrusage elsewhere; either way a
    # running interpreter has a resident set
    rss = read_rss_bytes()
    assert rss is not None
    assert rss > 0


def test_read_rss_bytes_bad_path_falls_back():
    rss = read_rss_bytes(path="/no/such/statm")
    # the getrusage fallback still answers on any POSIX platform
    assert rss is None or rss > 0


class CountingRead:
    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if not self.values:
            return None
        if len(self.values) == 1:
            return self.values[0]
        return self.values.pop(0)


def test_sampler_throttles_reads():
    read = CountingRead([100, 200, 300])
    sampler = Probe(read, refresh=4)
    values = [sampler() for _ in range(9)]
    # first call reads, then the cached value is served until the
    # refresh stride rolls over
    assert values[0] == 100
    assert read.calls < 9
    assert read.calls >= 2
    assert sampler.peak == max(values)


def test_sampler_unavailable_reader_probed_once():
    read = CountingRead([])
    sampler = Probe(read, refresh=2)
    assert sampler() is None
    assert sampler() is None
    assert sampler() is None
    assert read.calls == 1  # permanently unavailable after one failure


def test_sampler_rejects_bad_refresh():
    with pytest.raises(ValueError):
        Probe(read_rss_bytes, refresh=0)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1048576", 1 << 20),
        ("512M", 512 << 20),
        ("2g", 2 << 30),
        ("1K", 1 << 10),
        ("1KiB", 1 << 10),
        ("3kb", 3 << 10),
        ("1T", 1 << 40),
        ("1.5G", int(1.5 * (1 << 30))),
        (4096, 4096),
        (2.5, 2),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("text", ["", "G", "12Q", "abc", "1..5M"])
def test_parse_size_rejects_garbage(text):
    with pytest.raises(ValueError, match="unparsable size"):
        parse_size(text)
