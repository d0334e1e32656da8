"""The package namespace: ``obskit.__all__`` lists exactly its public names."""

import types

import obskit


def test_every_listed_name_resolves():
    assert len(obskit.__all__) == len(set(obskit.__all__))
    missing = [name for name in obskit.__all__ if not hasattr(obskit, name)]
    assert missing == []


def test_every_public_name_is_listed():
    public = {
        name
        for name, value in vars(obskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(obskit.__all__) == set()


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from obskit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(obskit.__all__)
