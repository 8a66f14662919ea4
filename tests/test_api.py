from __future__ import annotations

import zeta3cf


def test_all_names_resolve():
    missing = [name for name in zeta3cf.__all__ if not hasattr(zeta3cf, name)]
    assert missing == []
    assert len(set(zeta3cf.__all__)) == len(zeta3cf.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from zeta3cf import *", namespace)
    assert set(zeta3cf.__all__) <= set(namespace)
