import importlib
import os
import re
from pathlib import Path

import numpy as np

import fairdist

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_public_names() -> list[str]:
    """The backticked names in the bullets of the README's "Public API"
    section."""
    text = Path(README).read_text(encoding="utf-8")
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


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    # the README's Python block, run as-is on a data.csv with the columns
    # it names; the brute-force line prints True whatever the data
    text = Path(README).read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    n = 300
    rows = zip(
        rng.integers(18, 80, n),
        rng.integers(1, 80, n),
        rng.choice(["Male", "Female"], n),
        rng.integers(1, 3, n),
        rng.integers(1, 3, n),
    )
    lines = ["age,hours,sex,y,yhat"] + [",".join(map(str, row)) for row in rows]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    [brute] = [i for i, line in enumerate(prints) if "# brute force: always True" in line]
    assert printed[brute] == "True"
