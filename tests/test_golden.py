"""Golden output of the command line.

``golden_cli.json`` holds, for every command line in ``CASES``, the exact
stdout and exit code of ``cubiclat``.  It covers every subcommand, every
catalog name with its accepted case variants and rejected look-alikes,
and the pinned isotropic-triple searches.  ``golden_cli_human.json`` does
the same for the human-readable rendering of ``HUMAN_CASES``.  Any change
to a byte of either is a change of observable behaviour.  The catalog
tests hold ``lattice_by_name`` to the ``lattice info`` entries of
``NAMES`` and their case variants, and to the reason of each rejection.
"""

import json
import pathlib
import re

import pytest

from cubiclat import cli
from cubiclat.lattices import lattice_by_name

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
GOLDEN_HUMAN = pathlib.Path(__file__).with_name("golden_cli_human.json")

NAMES = [
    "E8", "e8", " E8 ", "U", "u", "A2", "a2",
    "Z(-5)", "Z(7)", "Z(05)", "I(2,1)", "I(3,0)", "I(21,2)", "i(21,2)", "I21_2", "i21_2",
    "Gamma", "gamma", "GAMMA", "K3", "k3", "Mukai", "MUKAI",
    "Lambda_2", "Lambda_26", "lambda_26", "LAMBDA_14",
    "L26", "l26", " L26 ", "L42", "l42",
    # rejected: not a catalog name and no such file
    "Z(0)", "I(0,0)", "Lambda_0", "F4", "z(5)", "i(2,1)", "Lambda_-2", "L14", "",
]

#: what ``lattice_by_name`` says of each rejected name of NAMES
REJECTED = {
    "Z(0)": "Z(n) requires nonzero n",
    "I(0,0)": "I(0,0) is empty and not supported",
    "Lambda_0": "degree d must be positive",
    "F4": "unknown lattice name: 'F4'",
    "z(5)": "unknown lattice name: 'z(5)'",
    "i(2,1)": "unknown lattice name: 'i(2,1)'",
    "Lambda_-2": "unknown lattice name: 'Lambda_-2'",
    "L14": "unknown lattice name: 'L14'",
    "": "unknown lattice name: ''",
}

SEARCHES = [
    ("L26", "26", "3"), ("L26", "26", "5"), ("L26", "26", "10"), ("L26", "26", "25"),
    ("L42", "42", "3"), ("L42", "42", "5"), ("L42", "42", "10"), ("L42", "42", "25"),
    ("L26", "27", "10"), ("L42", "26", "5"),
    ("I(3,0)", "1", "3"), ("I(2,1)", "1", "3"), ("I(2,1)", "2", "4"),
    ("I(1,2)", "4", "5"), ("I(1,2)", "1", "2"),
    ("Z(-5)", "5", "3"), ("L26", "26", "0"), ("L26", "0", "5"),
]

CASES = (
    [
        ["admissible", "--max", "80", "--json"],
        ["admissible", "--max", "42", "--verbose", "--json"],
        ["admissible", "--max", "13", "--json"],
        ["--json", "admissible", "--max", "14"],
        ["admissible", "--max", "0", "--json"],
        ["admissible", "--max", "abc", "--json"],
    ]
    + [["lattice", "info", name, "--json"] for name in NAMES]
    + [
        ["mukai", "verify", "--lattice", "L26", "--v", "1,3,1", "--vp", "1,0,0",
         "--w", "11,22,7", "--d", "26", "--json"],
        ["mukai", "verify", "--lattice", "L26", "--v", "1,-1,1", "--vp", "1,1,0",
         "--w", "4,3,0", "--d", "26", "--json"],
        ["mukai", "verify", "--lattice", "L42", "--v", "1,0,0", "--vp", "0,1,0",
         "--w", "0,0,1", "--d", "42", "--json"],
        ["mukai", "verify", "--lattice", "L42", "--v", "1,0", "--vp", "0,1,0",
         "--w", "0,0,1", "--d", "42", "--json"],
    ]
    + [["mukai", "search", "--lattice", name, "--d", d, "--bound", bound, "--json"]
       for name, d, bound in SEARCHES]
    + [
        ["mukai", "search", "--lattice", "L26", "--d", "27", "--json"],
        ["mukai", "search", "--lattice", "L26", "--json"],
        ["mukai", "gram-lambda", "--json"],
        ["mukai", "normalize", "--lattice", "L42", "--v", "1,3,1", "--vp", "1,0,0", "--json"],
        ["mukai", "normalize", "--lattice", "L26", "--v", "1,-1,1", "--vp", "1,1,0", "--json"],
        ["mukai", "normalize", "--lattice", "I(2,1)", "--v", "1,0,1", "--vp", "1,0,0", "--json"],
        ["mukai", "normalize", "--lattice", "L26", "--v", "1,0,0", "--vp", "0,1,0", "--json"],
    ]
    + [["chow", "--surface", s, "--json"]
       for s in ("plane", "veronese", "quartic-scroll", "septic-scroll", "cubic")]
    + [["scroll-ideal", "--json"], []]
)

HUMAN_CASES = (
    [["chow", "--surface", s] for s in ("plane", "veronese", "quartic-scroll", "septic-scroll")]
    + [["lattice", "info", name] for name in ("A2", "Gamma", "L26")]
    + [
        ["mukai", "search", "--lattice", "L26", "--d", "26"],
        ["mukai", "search", "--lattice", "L26", "--d", "27", "--bound", "5"],
        ["mukai", "search", "--lattice", "E8", "--d", "2"],
        ["mukai", "verify", "--lattice", "L26", "--v", "1,3,1", "--vp", "1,0,0",
         "--w", "11,22,7", "--d", "26"],
        ["mukai", "normalize", "--lattice", "L42", "--v", "1,3,1", "--vp", "1,0,0"],
        ["mukai", "gram-lambda"],
        ["admissible", "--max", "42", "--verbose"],
        ["admissible", "--max", "80"],
        ["scroll-ideal"],
    ]
)


def test_golden_covers_exactly_the_cases():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text())] == CASES
    assert [entry["argv"] for entry in json.loads(GOLDEN_HUMAN.read_text())] == HUMAN_CASES


@pytest.mark.parametrize(
    "entry", json.loads(GOLDEN.read_text()), ids=lambda e: " ".join(e["argv"]) or "<none>"
)
def test_golden_cli_output(capsys, entry):
    code = cli.main(list(entry["argv"]))
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize(
    "entry", json.loads(GOLDEN_HUMAN.read_text()), ids=lambda e: " ".join(e["argv"])
)
def test_golden_cli_human_output(capsys, entry):
    code = cli.main(list(entry["argv"]))
    assert (code, capsys.readouterr().out) == (entry["exit"], entry["stdout"])


@pytest.mark.parametrize(
    "entry",
    [e for path in (GOLDEN, GOLDEN_HUMAN) for e in json.loads(path.read_text()) if e["exit"] == 0],
    ids=lambda e: " ".join(e["argv"]),
)
def test_golden_cli_output_is_the_same_when_held(capsys, entry):
    # the second run answers from what the first left held: the catalog
    # lattice with its invariants, the Chow parts, the admissible list
    for _ in range(2):
        code = cli.main(list(entry["argv"]))
        assert (code, capsys.readouterr().out) == (0, entry["stdout"])


def golden_lattice_info():
    """The payload of each `lattice info NAME --json` entry that exits 0."""
    return {
        e["argv"][2]: json.loads(e["stdout"])["payload"]
        for e in json.loads(GOLDEN.read_text())
        if e["argv"][:2] == ["lattice", "info"] and e["exit"] == 0
    }


def test_catalog_resolves_every_name_as_its_golden_entry():
    accepted = golden_lattice_info()
    assert sorted(accepted) == sorted(n for n in NAMES if n not in REJECTED)
    for name in NAMES:
        if name in REJECTED:
            with pytest.raises(ValueError) as err:
                lattice_by_name(name)
            assert str(err.value) == REJECTED[name]
        else:
            L = lattice_by_name(name)
            assert (L.gram.to_lists(), L.label) == (accepted[name]["gram"], accepted[name]["label"])


def test_catalog_case_variants_resolve_as_their_name():
    # fixed names match in any case; Z(n) and I(p,q) only with a capital
    for name, payload in golden_lattice_info().items():
        as_shown = re.fullmatch(r"\s*[ZI]\(.*", name) and name.strip() != "I(21,2)"
        for variant in (name.lower(), name.upper(), name.swapcase()):
            if as_shown and not variant.strip()[0].isupper():
                with pytest.raises(ValueError, match="^unknown lattice name"):
                    lattice_by_name(variant)
            else:
                L = lattice_by_name(variant)
                assert (L.gram.to_lists(), L.label) == (payload["gram"], payload["label"])
