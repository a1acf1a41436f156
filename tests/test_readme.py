"""README's library sketch runs as written and prints what it says."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_sketch_prints_its_comments():
    """The trailing comment of a print line is what that line prints; a
    comment ending in '...' gives how the output starts."""
    code = _library_sketch()
    expected = [line.partition("  # ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    checked = [(got, want) for got, want in zip(printed, expected) if want]
    assert len(checked) >= 3
    for got, want in checked:
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
