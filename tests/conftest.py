"""Shared fixtures."""
import pytest


class Recorder:
    """Stands in for the World as a handler's `out`: each call of one of the
    World's five handler-facing methods is kept, in order, as a tuple of the
    method name and its arguments. tests/test_world.py checks that the five
    methods keep the World's names and parameter names."""

    def __init__(self):
        self.calls = []

    def take(self):
        """The calls recorded since the last take, oldest first."""
        calls, self.calls = self.calls, []
        return calls

    def note(self, node_id, code, name_text, detail=""):
        self.calls.append(("note", node_id, code, name_text, detail))

    def send(self, node_id, pkt, delay_us):
        self.calls.append(("send", node_id, pkt, delay_us))

    def emit(self, node_id, name, delay_us):
        self.calls.append(("emit", node_id, name, delay_us))

    def timer(self, node_id, handler, delay_us):
        self.calls.append(("timer", node_id, handler, delay_us))

    def originate(self, node_id, pkt):
        self.calls.append(("originate", node_id, pkt))


@pytest.fixture
def out():
    return Recorder()
