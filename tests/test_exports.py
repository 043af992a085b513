"""The package's public names all resolve."""

import polynull


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from polynull import *", namespace)
    missing = [name for name in polynull.__all__ if name not in namespace]
    assert missing == []
    assert len(set(polynull.__all__)) == len(polynull.__all__)
