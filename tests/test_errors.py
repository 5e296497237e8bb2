"""The exception hierarchy survives pickling.

Pseudo-file errors raised inside a shard worker cross the pipe in the
reply to a ``read`` frame, so every :class:`ReproError` must come back
with the same type, message and path it left with.
"""

import pickle

import pytest

from repro import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ALL_ERRORS = [errors.ReproError, *_subclasses(errors.ReproError)]


@pytest.mark.parametrize("cls", ALL_ERRORS, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_path(cls):
    original = cls("/sys/class/powercap/intel-rapl:0/energy_uj")
    restored = pickle.loads(pickle.dumps(original))
    assert type(restored) is cls
    assert str(restored) == str(original)
    assert getattr(restored, "path", None) == getattr(original, "path", None)

