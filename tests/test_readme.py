"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_example() -> str:
    with open(README) as fh:
        section = fh.read().split("\n## Library\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(saved_model, monkeypatch):
    # the example loads "pipeline.json" from the working directory
    monkeypatch.chdir(saved_model.parent)
    scope = {}
    exec(_library_example(), scope)
    assert scope["event"].triggered
    assert scope["decision"].verdict == "Trip"
    assert scope["decision"].fault_unit == "PT"
