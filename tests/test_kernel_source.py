"""The committed ``_kernel.cpp`` must match ``_kernel.pyx``, line for line.

Cython quotes the source line behind each block of generated C++ in a
comment headed ``/* "candynim/solver/_kernel.pyx":N``, marking line N
with ``# <<<<<<<<<<<<<<``.  A ``.pyx`` edit without a regenerated
``.cpp`` leaves stale quotes, and this test needs no Cython to see them.
"""

import re
from pathlib import Path

SOLVER = Path(__file__).resolve().parent.parent / "src" / "candynim" / "solver"
HEADER = re.compile(r'^\s*/\* "candynim/solver/_kernel\.pyx":(\d+)$')
MARK = "             # <<<<<<<<<<<<<<"
# Cython escapes comment delimiters inside the quoted source
ESCAPES = (
    ("*[inserted by cython to avoid comment closer]/", "*/"),
    ("/[inserted by cython to avoid comment start]*", "/*"),
)


def quoted_lines(cpp: str):
    """Yield ``(line_number, quoted_text)`` for every source block."""
    lines = cpp.splitlines()
    for at, line in enumerate(lines):
        head = HEADER.match(line)
        if head is None:
            continue
        for body in lines[at + 1 :]:
            body = body.strip()
            if body == "*/":
                raise AssertionError(f"block for line {head.group(1)} has no marked line")
            if body.endswith(MARK.strip()):
                text = body[:-len(MARK.strip())].rstrip()
                text = text[2:] if text.startswith("* ") else text[1:]
                for escaped, raw in ESCAPES:
                    text = text.replace(escaped, raw)
                yield int(head.group(1)), text
                break


def test_cpp_quotes_current_pyx():
    pyx = (SOLVER / "_kernel.pyx").read_text(encoding="utf-8").splitlines()
    source = [line.encode("ascii", "ignore").decode().rstrip() for line in pyx]
    blocks = list(quoted_lines((SOLVER / "_kernel.cpp").read_text(encoding="utf-8")))
    assert blocks, "no quoted source blocks found in _kernel.cpp"
    stale = [
        (n, text, source[n - 1] if n <= len(source) else None)
        for n, text in blocks
        if n > len(source) or source[n - 1] != text
    ]
    assert not stale, f"{len(stale)} of {len(blocks)} quoted lines differ, first: {stale[0]}"
