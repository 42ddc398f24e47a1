import rough_angles
import rough_angles.io  # noqa: F401  binds the submodule as a package attribute


def test_star_import_binds_only_the_public_names():
    ns: dict = {}
    exec("from rough_angles import *", ns)
    assert "io" not in ns  # the submodule would shadow the standard library's io
    assert sorted(set(ns) - {"__builtins__"}) == sorted(rough_angles.__all__)


def test_every_public_name_resolves():
    assert len(set(rough_angles.__all__)) == len(rough_angles.__all__)
    for name in rough_angles.__all__:
        assert getattr(rough_angles, name) is not None, name
