import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    # the first python block of README's Library section, executed as it
    # stands: every name it imports must still be public
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "{0,2} witnesses {1,3}\n{1,3} witnesses {0,2}\n"
