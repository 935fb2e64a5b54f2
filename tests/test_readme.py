"""The examples of README.md, run as they are written.

In the "Command line" block, each ``cubiclat ...`` line runs through
``cli.main`` and exits 0; the ``# `` lines right below it, where there are
any, are its whole human output, line by line, and one that ends in ``…``
is a prefix of its output line.  In the "Example session" block, a ``# ``
line right below a line of code is the ``repr`` of that line's value.
"""

import pathlib
import shlex

from cubiclat import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def fenced_block(heading, lang):
    """Lines of the first ``lang`` block after the line ``heading``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"```{lang}", lines.index(heading))
    return lines[start + 1 : lines.index("```", start + 1)]


def shown(lines, i):
    """The ``# `` lines right below line i, without their ``# ``."""
    out = []
    for line in lines[i + 1 :]:
        if not line.startswith("# "):
            break
        out.append(line[2:])
    return out


def test_command_line_examples_print_what_the_readme_shows(capsys):
    lines = fenced_block("## Command line", "sh")
    commands = [i for i, line in enumerate(lines) if line.startswith("cubiclat ")]
    assert len(commands) == 10
    for i in commands:
        argv = shlex.split(lines[i], comments=True)[1:]
        code = cli.main(argv)
        out = capsys.readouterr().out.splitlines()
        assert code == 0, lines[i]
        expected = shown(lines, i)
        if expected:
            assert len(out) == len(expected), lines[i]
            for want, got in zip(expected, out):
                assert got.startswith(want[:-1]) if want.endswith("…") else got == want, lines[i]


def test_example_session_shows_the_repr_of_each_value():
    lines = fenced_block("## Example session", "python")
    namespace, checked = {}, 0
    for i, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        expected = shown(lines, i)
        if expected:
            assert [repr(eval(line, namespace))] == expected, line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 3
