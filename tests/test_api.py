import nncp


def test_public_names_resolve():
    assert nncp.__all__ == sorted(set(nncp.__all__))
    for name in nncp.__all__:
        assert getattr(nncp, name) is not None
    namespace = {}
    exec("from nncp import *", namespace)
    assert set(nncp.__all__) <= set(namespace)
