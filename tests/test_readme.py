"""The README's examples hold: every `python` block runs and prints what
its `# value` comments say, and every `prozero ... # -> out` line of the
command-line block prints `out`."""

import ast
import pathlib
import re
import shlex

import pytest

import prozero.cli as cli

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
COMMANDS = re.findall(r"^prozero (.*?)\s+# -> (.*)$", README, re.M)


class _TagPrints(ast.NodeTransformer):
    """print(...) -> _print(k, ...), k the position of the call."""

    def __init__(self):
        self.lines = []

    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            node.func.id = "_print"
            node.args.insert(0, ast.Constant(len(self.lines)))
            self.lines.append(node.end_lineno)
        return node


def test_readme_has_examples():
    assert len(BLOCKS) >= 3 and len(COMMANDS) >= 4


@pytest.mark.parametrize("block", BLOCKS,
                         ids=["block%d" % k for k in range(len(BLOCKS))])
def test_python_block_prints_its_comments(block):
    # a print that runs n times says its n outputs, joined by ", "
    tree = ast.parse(block)
    tagger = _TagPrints()
    tree = ast.fix_missing_locations(tagger.visit(tree))
    src = block.splitlines()
    want = []
    for line in tagger.lines:
        code, sep, comment = src[line - 1].partition("#")
        assert sep, "print without a value comment: %r" % src[line - 1]
        want.append(comment.strip())
    outs = [[] for _ in want]

    def _print(k, *args):
        outs[k].append(" ".join(str(a) for a in args))

    exec(compile(tree, "README.md", "exec"), {"_print": _print})
    assert [", ".join(o) for o in outs] == want


@pytest.mark.parametrize("argv, out", COMMANDS,
                         ids=[c for c, _ in COMMANDS])
def test_command_line_prints_its_arrow(argv, out, capsys):
    assert cli.main(shlex.split(argv)) == 0
    assert capsys.readouterr().out.strip() == out
