"""The code-line counter that reads the size of ``src/ocf``: blank lines,
comments and docstrings do not count, code spread over lines does."""

import importlib.util
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SOURCE = '''"""Module docstring
over two lines."""
# a comment

import re  # trailing comment


class A:
    """One-line docstring."""

    def f(self, x):
        """Docstring."""
        text = """a string that is
        not a docstring"""
        "a bare string is a docstring too"
        return (x,
                text)
'''


def test_counter_skips_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two-line assignment and the two-line return
    assert module.code_lines(path) == 7
