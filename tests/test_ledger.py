"""The work ledger (``tests/ledger.json``, see :mod:`tests.ledger`)."""

from tests.ledger import _fields, diff_row, load_ledger, report, rerun


def test_every_ledger_row_reproduces():
    """Every pinned campaign does exactly the work its row records.

    A change that moves a count on purpose regenerates the ledger and
    names the moved counts, and why, in its change notes."""
    _rows, moved = rerun(load_ledger())
    assert not moved, report(moved)


def test_a_moved_count_names_the_row_the_field_and_both_values():
    old = {
        "counts": {"demotions": 51, "detected": 23},
        "verdicts": {"detected/MOT": 23, "x-redundant": 75},
        "digest": "aaaa",
    }
    new = {
        "counts": {"demotions": 4, "detected": 23, "gc_runs": 27},
        "verdicts": {"detected/MOT": 23, "x-redundant": 75},
        "digest": "bbbb",
    }
    assert diff_row("lfsr8", old, new) == [
        "lfsr8: demotions 51 -> 4",
        "lfsr8: digest aaaa -> bbbb",
        "lfsr8: gc_runs absent -> 27",
    ]
    assert diff_row("lfsr8", old, old) == []



def test_the_service_default_path_does_the_in_process_work():
    """A job spec with no fabric fields runs one partition: the
    in-process campaign, count for count and verdict for verdict."""
    rows = {row["name"]: row for row in load_ledger()["rows"]}
    in_process = rows["lfsr8-MOT-2000"]
    service = rows["lfsr8-MOT-2000-service-default"]
    assert service["config"] == dict(
        in_process["config"], path="service-default"
    )
    assert _fields(service) == _fields(in_process)
