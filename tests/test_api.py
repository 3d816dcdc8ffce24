import importlib
import os
import re

import fairdist

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_public_names() -> list[str]:
    """The backticked names in the bullets of the README's "Public API"
    section."""
    text = open(README, encoding="utf-8").read()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_all_equals_the_readme_list():
    names = readme_public_names()
    assert len(names) == len(set(names)) == 21
    assert sorted(fairdist.__all__) == sorted(names)


def test_every_public_name_imports():
    namespace = {}
    exec("from fairdist import *", namespace)
    for name in fairdist.__all__:
        assert namespace[name] is getattr(fairdist, name)
        home = importlib.import_module(getattr(fairdist, name).__module__)
        assert getattr(home, name) is getattr(fairdist, name)
