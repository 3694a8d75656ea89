import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count(module, name): a list that grows by the positional arguments of
    each call of module.name made through any variokrig namespace bound to
    it, for this test."""

    def count(module, name):
        original = getattr(sys.modules[module], name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("variokrig") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count
