"""The package namespace: each public name is its home module's object,
imported on first access, and each module is an attribute of the package."""

import importlib
import subprocess
import sys

import pytest

import scminor

SUBMODULES = ("antimorphism", "cli", "construction", "generators", "graphs", "oracle", "topology")


def test_every_public_name_is_the_object_of_its_home_module():
    for name in scminor.__all__:
        home = importlib.import_module(f"scminor.{scminor._HOME[name]}")
        assert getattr(scminor, name) is getattr(home, name), name


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from scminor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(scminor.__all__)
    assert set(scminor.__all__) <= set(dir(scminor))
    assert len(scminor.__all__) == len(set(scminor.__all__))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        scminor.no_such_name
    assert not hasattr(scminor, "GRAPH6_WHITESPACE")


def test_a_bare_import_resolves_every_name_and_module_on_access():
    # a fresh interpreter: in this one the test session has loaded every module
    script = (
        "import sys\n"
        "import scminor\n"
        "assert scminor.topology.report(scminor.graphs.complete_graph(4)).planar\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(scminor, name) is sys.modules['scminor.' + name], name\n"
        "assert set(scminor.__all__) <= set(dir(scminor))\n"
        "for name in scminor.__all__:\n"
        "    home = sys.modules['scminor.' + scminor._HOME[name]]\n"
        "    assert getattr(scminor, name) is getattr(home, name), name\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
