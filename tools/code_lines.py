"""Count the code-only lines of Python sources.

A line counts when it holds a token other than a comment or a docstring;
blank lines, comment lines and docstring lines do not.  A docstring is a
string literal that makes up a whole statement (the module's, a class's or a
function's first statement, or any other bare string).

    python3 tools/code_lines.py            # src/ocf
    python3 tools/code_lines.py PATH ...   # files or directories

Prints one line per file and the total last.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
# tokens after which a string starts a statement of its own
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    last = tokenize.ENCODING  # the type of the last significant token
    for k, tok in enumerate(tokens):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        if tok.type == tokenize.STRING and last in STATEMENT_START:
            after = next(t for t in tokens[k + 1:] if t.type not in (tokenize.COMMENT, tokenize.NL))
            if after.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                last = tokenize.STRING
                continue
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        last = tok.type
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "ocf"]
    files = sorted(p for r in roots for p in ([r] if r.is_file() else r.rglob("*.py")))
    total = 0
    for p in files:
        n = code_lines(p)
        total += n
        print(f"{n:6d}  {p}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
