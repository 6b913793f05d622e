"""The package's export list."""

import bandpointer


def test_every_export_resolves():
    missing = [name for name in bandpointer.__all__ if not hasattr(bandpointer, name)]
    assert missing == []
    assert len(set(bandpointer.__all__)) == len(bandpointer.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from bandpointer import *", namespace)
    assert set(bandpointer.__all__) <= set(namespace)
