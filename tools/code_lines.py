"""Count the code lines of greenseq's modules.

A code line is a physical line that holds part of a token other than a
comment, an indent, a line end or a docstring; a string that spans lines
counts each line it spans.  A docstring is a string that stands alone as
a statement, as the first statement of a module, class or function does.
Standard library only.

    python3 tools/code_lines.py [DIR]

prints each module's count and the total, for DIR (default: the
`src/greenseq` directory beside this file's parent) and its `*.py` files.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

# tokens that never make a line count
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# tokens after which a string starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (k == 0 or tokens[k - 1].type in _STATEMENT_START)
                and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "greenseq",
                        help="the directory whose *.py files are counted")
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(args.dir.glob("*.py"))}
    if not counts:
        parser.error(f"{args.dir} holds no *.py file")
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
