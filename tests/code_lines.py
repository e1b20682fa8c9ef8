"""Code lines per module of ``src/schurrnn``: the count that ROADMAP and
CHANGES.md quote.

A code line is a physical line that holds part of a token other than a
comment, and is not part of a docstring (the first statement of a module,
class or function, when it is a string).  Blank lines, comment lines and
docstrings do not count; each line of a statement that spans several
lines does, and so does each line of a multi-line string that is not a
docstring.

The module uses only the standard library.  Its name does not match
``test_*.py``, so pytest does not collect it.  Run it as a script to print
each module's count and the total:

    python tests/code_lines.py [DIR]
"""

import argparse
import ast
import io
import pathlib
import tokenize

# Token types that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1]
                        / "src" / "schurrnn")
    args = parser.parse_args()
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
