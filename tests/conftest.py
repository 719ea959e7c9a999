from hypothesis import settings

from pqbench.core import Item

settings.register_profile("quick", max_examples=50, deadline=None)
settings.load_profile("quick")


def item(key: int, seq: int) -> Item:
    """The item ``(key, seq)``, packed as the queues pack it."""
    assert 0 <= seq < 1 << 64, "seq must fit below the key bits"
    return Item(key << 64 | seq)
