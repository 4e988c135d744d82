"""tools/code_lines.py, the code-line count quoted for src/alghull: run on a
small package whose count is known line by line."""

import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

DOCUMENTED = '''\
"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        return os.sep


async def g():
    \'\'\'Function docstring.\'\'\'
    text = """one
two
three"""
    """a string statement after the first one"""
    return text
'''

PLAIN = '''\
x = 1



# only a comment
y = [
    1,

    2,
]
'''


def _run(root):
    out = subprocess.run([sys.executable, str(TOOL), str(root)], check=True,
                         capture_output=True, text=True).stdout
    return {name: int(n) for name, n in (line.split() for line in out.splitlines())}


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "documented.py").write_text(DOCUMENTED)
    (tmp_path / "plain.py").write_text(PLAIN)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    (tmp_path / "notes.txt").write_text("not a module\n")
    counts = _run(tmp_path)
    # import, class, def f, return, async def g, the three lines of the
    # assigned string, the later string statement, return
    assert counts["documented.py"] == 10
    # x = 1 and the four non-blank lines of the list
    assert counts["plain.py"] == 5
    assert counts["empty.py"] == 0
    assert counts["total"] == 15 == counts["documented.py"] + counts["plain.py"]
    assert set(counts) == {"documented.py", "empty.py", "plain.py", "total"}
