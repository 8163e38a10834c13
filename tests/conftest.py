"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def counting(monkeypatch):
    """``counting(cls, name)`` wraps the method ``cls.name`` until the test
    ends and returns the list it appends each call's positional arguments to."""

    def count(cls, name):
        calls = []
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
        return calls

    return count
