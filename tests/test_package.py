"""The package's public names."""

import heatinv


def test_every_exported_name_resolves():
    missing = [name for name in heatinv.__all__ if not hasattr(heatinv, name)]
    assert missing == []
