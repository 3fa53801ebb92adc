"""The README's code examples run as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_block(heading):
    """The first ```python block in the README section under heading."""
    with open(README) as fh:
        text = fh.read()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    namespace = {}
    exec(compile(_python_block("## Library use"), "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert namespace["report"].margin >= 0.0
    assert namespace["report"].verdict == "strict"
    assert namespace["sandwich"].ok
    assert [r.shift for r in namespace["shifted"]] == [-0.25, 0.25]
