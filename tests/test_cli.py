"""End-to-end tests of the command line front end.

Structured (``--json``) payloads are pinned and compared byte-for-byte
against the library-side payload builders, so the CLI can never drift
from the library.
"""

import ast
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubiclat import admissibility, chow, cli, cohomology, lattices, mukai
from cubiclat.exactlinalg import IntMatrix, determinant
from cubiclat.lattices import Lattice, lattice_to_json, middle_lattice
from cubiclat.mukai import kuznetsov_rank3_lattice


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# admissible


def test_admissible_list(capsys):
    doc = run_json(capsys, "admissible", "--max", "80")
    assert doc["command"] == "admissible"
    assert doc["status"] == "ok"
    assert doc["payload"]["admissible"] == [14, 26, 38, 42, 62, 74, 78]


def test_admissible_empty(capsys):
    doc = run_json(capsys, "admissible", "--max", "13")
    assert doc["payload"]["admissible"] == []


def test_admissible_verbose_includes_witness(capsys):
    doc = run_json(capsys, "admissible", "--max", "42", "--verbose")
    reports = {r["d"]: r for r in doc["payload"]["reports"]}
    assert reports[18]["witness"] == 9
    assert reports[18]["star"] is True and reports[18]["star_star"] is False
    assert reports[8]["witness"] == 2
    assert reports[26]["star_star"] is True and reports[26]["genus"] == 14


def test_admissible_verbose_human_prints_six_lines_per_d(capsys):
    code, out, _ = run(capsys, "admissible", "--max", "20000", "--verbose")
    # max, admissible and reports, then d, star, star_star, genus, witness and "-" per d
    assert code == 0 and out.count("\n") == 3 + 6 * 20000


def test_admissible_usage_errors(capsys):
    code, _, _ = run(capsys, "admissible", "--max", "abc")
    assert code == 2
    code, _, err = run(capsys, "admissible", "--max", "0")
    assert code == 4


def test_admissible_payloads_match_per_d_reports(capsys):
    # both payloads sieve the range; the per-d reports use trial division
    for m in list(range(1, 301)) + [10**5]:
        payload = cli.admissible_payload(m, verbose=True)
        reports = list(map(admissibility.discriminant_report, range(1, m + 1)))
        assert list(payload["reports"]) == list(map(dataclasses.astuple, reports)), m
        admissible = [r.d for r in reports if r.satisfies_star_star]
        assert payload["admissible"] == admissible, m
        assert cli.admissible_payload(m, verbose=False)["admissible"] == admissible, m
        if m > 300:
            continue
        # the command line writes each report as the dict of its fields
        dicts = [
            {
                "d": r.d,
                "star": r.satisfies_star,
                "star_star": r.satisfies_star_star,
                "genus": r.genus,
                "witness": r.witness,
            }
            for r in reports
        ]
        expected = {"max": m, "admissible": admissible, "reports": dicts}
        doc = {"command": "admissible", "status": "ok", "payload": expected}
        argv = ("admissible", "--max", str(m), "--verbose")
        assert run(capsys, *argv, "--json") == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n", ""), m
        human = [f"max: {m}", f"admissible: {admissible}", "reports:"]
        for report in dicts:
            human += [f"  {key}: {value}" for key, value in report.items()] + ["  -"]
        assert run(capsys, *argv) == (0, "\n".join(human) + "\n", ""), m


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--max", "200000", "--json"], "fe2d130df7305b36a6c0ffa91ed6637dc808b52a3617333e9e048067381fcc2e"),
        (["--max", "10000000", "--json"], "b48da39e8c812996936e752b9f20f3a45930cae37ca91202e88ec04e079e43c1"),
        (["--max", "200000", "--verbose", "--json"], "fd26db408006e156ce7b8057e9852c8d0fdc704c4418ba32c02b007814147fa6"),
        (["--max", "200000", "--verbose"], "b7257ca60722d62cabe658eb5e11339df4fddd862d787d654e3705d3bc38433c"),
    ],
    ids=["max-200000", "max-10000000", "verbose-max-200000", "human-verbose-max-200000"],
)
def test_admissible_largest_outputs_are_pinned(capsys, argv, digest):
    # the sha256 of the --json text at MAX_VERBOSE_D, plain and verbose, and at MAX_D,
    # and of the human text of the verbose report at MAX_VERBOSE_D
    code, out, _ = run(capsys, "admissible", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class Started(BaseException):
    """Raised by a stand-in for the work a ceiling guards; not an Exception,
    so main, which maps every Exception to exit 5, lets it through."""


def refuse(*args):
    raise Started


def assert_one_error_line(code, out, err):
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_admissible_max_ceiling_exit_4_before_sieving(capsys, monkeypatch):
    # both sieves, the plain list and the verbose witness table, list their primes
    # first; each test starts with no admissible list held, so MAX_D is sieved
    monkeypatch.setattr(admissibility, "_primes_two_mod_three", refuse)
    over = str(admissibility.MAX_D + 1)
    assert_one_error_line(*run(capsys, "admissible", "--max", over))
    assert_one_error_line(*run(capsys, "admissible", "--max", over, "--verbose"))
    with pytest.raises(Started):
        cli.main(["admissible", "--max", str(admissibility.MAX_D)])


def test_admissible_slice_of_the_held_list_is_pinned(capsys, monkeypatch):
    # after MAX_D is sieved, --max 200000 is answered from the held list
    # with the same bytes as the sieve gives a cold process
    assert run(capsys, "admissible", "--max", "10000000", "--json")[0] == 0
    monkeypatch.setattr(admissibility, "_sieve_admissible", refuse)
    code, out, _ = run(capsys, "admissible", "--max", "200000", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "fe2d130df7305b36a6c0ffa91ed6637dc808b52a3617333e9e048067381fcc2e"


def test_mukai_search_bound_ceiling_exit_4_before_searching(capsys, monkeypatch):
    monkeypatch.setattr(mukai, "find_isotropic_triple", refuse)
    over = str(mukai.MAX_BOUND + 1)
    argv = ["mukai", "search", "--lattice", "L26", "--d", "26", "--bound"]
    assert_one_error_line(*run(capsys, *argv, over))
    with pytest.raises(Started):
        cli.main(argv + [str(mukai.MAX_BOUND)])


def test_admissible_verbose_ceiling_exit_4_before_reporting(capsys, monkeypatch):
    # the verbose payload reads the plain rows, the first work it does
    monkeypatch.setattr(admissibility, "report_rows", refuse)
    over = str(admissibility.MAX_VERBOSE_D + 1)
    assert_one_error_line(*run(capsys, "admissible", "--max", over, "--verbose"))
    assert_one_error_line(*run(capsys, "admissible", "--max", over, "--verbose", "--json"))
    with pytest.raises(Started):
        cli.main(["admissible", "--max", str(admissibility.MAX_VERBOSE_D), "--verbose"])
    # the plain list is not held to it
    monkeypatch.setattr(admissibility, "enumerate_admissible", refuse)
    with pytest.raises(Started):
        cli.main(["admissible", "--max", over])


# ---------------------------------------------------------------------------
# lattice info


def test_lattice_info_gamma(capsys):
    doc = run_json(capsys, "lattice", "info", "Gamma")
    payload = doc["payload"]
    assert payload["rank"] == 22
    assert payload["signature"] == [20, 2]
    assert payload["discriminant_group"] == [3]


def test_lattice_info_e8_and_u(capsys):
    doc = run_json(capsys, "lattice", "info", "E8")
    assert doc["payload"]["abs_det"] == 1
    assert doc["payload"]["discriminant_group"] == []
    doc = run_json(capsys, "lattice", "info", "U")
    assert doc["payload"]["signature"] == [1, 1]


def test_lattice_info_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(lattice_to_json(kuznetsov_rank3_lattice(42)))
    doc = run_json(capsys, "lattice", "info", str(path))
    assert doc["payload"]["abs_det"] == 42
    assert doc["payload"]["label"] == "L42"
    path = tmp_path / "l26.json"
    lattices.save_lattice(lattices.lattice_by_name("L26"), str(path))
    from_file = run_json(capsys, "lattice", "info", str(path))["payload"]
    by_name = run_json(capsys, "lattice", "info", "L26")["payload"]
    for key in ("det", "signature", "discriminant_group"):
        assert from_file[key] == by_name[key], key


def test_lattice_info_det_matches_bareiss():
    # det is the last pivot of the signature pass and the group comes from
    # an elimination modulo |det|: det must be that of the plain Bareiss
    # determinant, and the group's order |det|.  Scaling by k makes
    # non-cyclic groups
    rng = random.Random(5)
    signs = []
    noncyclic = 0
    while len(signs) < 300:
        n = rng.randint(1, 24)
        k = rng.choice((1, 1, 2, 6))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = k * rng.randint(-4, 4)
        det = determinant(IntMatrix(g))
        if det != 0:
            payload = cli.lattice_info_payload(Lattice(n, IntMatrix(g)))
            assert payload["det"] == det
            assert payload["abs_det"] == math.prod(payload["discriminant_group"])
            noncyclic += len(payload["discriminant_group"]) > 1
            signs.append(det > 0)
    assert set(signs) == {True, False}
    assert noncyclic >= 50


def test_lattice_info_parse_error_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "gram": [[0, 1], [1, "x"]]}')
    code, out, err = run(capsys, "lattice", "info", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "gram" in err


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "label", ["x\nrank: 99\x1b[31m", "E8\x1b[2J", "K3\u202e"], ids=["newline", "escape", "bidi"]
)
def test_lattice_info_unprintable_label_exit_3(capsys, tmp_path, fmt, label):
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"rank": 1, "gram": [[1]], "label": label}))
    code, out, err = run(capsys, "lattice", "info", str(path), *fmt)
    assert (code, out) == (3, "")
    assert err == "error: field 'label' must be a printable string\n"


def test_lattice_info_prints_a_non_ascii_label(capsys, tmp_path):
    path = tmp_path / "label.json"
    L = Lattice(1, IntMatrix([[1]]), label="café ü")
    lattices.save_lattice(L, str(path))
    loaded = lattices.load_lattice(str(path))
    assert (loaded.label, lattice_to_json(loaded)) == ("café ü", path.read_text())
    code, out, _ = run(capsys, "lattice", "info", str(path))
    assert (code, out.splitlines()[0]) == (0, "label: café ü")
    assert run_json(capsys, "lattice", "info", str(path))["payload"]["label"] == "café ü"


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda p: p.write_text("[" * 100_000 + "]" * 100_000), id="deeply-nested"),
        pytest.param(
            lambda p: p.write_text('{"rank": 1, "gram": [[1' + "0" * 5000 + "]]}"),
            id="huge-integer",
        ),
        pytest.param(
            lambda p: p.write_bytes(b'{"rank": 1, "gram": [[1]], "label": "\xff"}'), id="not-utf8"
        ),
        pytest.param(lambda p: p.mkdir(), id="directory"),
        pytest.param(
            lambda p: p.symlink_to("/dev/zero"),
            id="endless",
            marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero"),
        ),
    ],
)
def test_lattice_info_unreadable_file_exit_3(capsys, tmp_path, make):
    path = tmp_path / "hostile.json"
    make(path)
    code, out, err = run(capsys, "lattice", "info", str(path), "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter prints integers of any length"
)
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_lattice_info_result_too_long_to_print_exit_4(capsys, monkeypatch, tmp_path, fmt):
    # 600-digit entries pass the reader; the determinant has about 4800 digits
    entry = 10**599 + 7
    big = Lattice(8, IntMatrix([[entry if i == j else 0 for j in range(8)] for i in range(8)]))
    path = tmp_path / "big8.json"
    path.write_text(lattice_to_json(big))
    # such a det fails right after the Bareiss pass, before the elimination
    eliminations = []
    monkeypatch.setattr(lattices, "invariant_factors_mod", lambda *args: eliminations.append(args))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "lattice", "info", str(path), *fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, eliminations) == (4, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


def test_lattice_info_unknown_name_exit_3(capsys):
    code, _, err = run(capsys, "lattice", "info", "no-such-lattice")
    assert code == 3


@pytest.mark.parametrize(
    "name, reason",
    [
        ("Z(0)", "Z(n) requires nonzero n"),
        ("I(0,0)", "I(0,0) is empty"),
        ("Lambda_0", "degree d must be positive"),
        ("I(41,0)", "p + q <= 40"),
        pytest.param("I(" + "9" * 640 + ",0)", "p + q <= 40", id="I_640_digits"),
        pytest.param("Lambda_" + "9" * 641, "more than 640 digits", id="Lambda_641_digits"),
        pytest.param("I(" + "9" * 5000 + ",0)", "more than 640 digits", id="I_5000_digits"),
        pytest.param("Z(-" + "9" * 5000 + ")", "more than 640 digits", id="Z_5000_digits"),
    ],
)
def test_lattice_info_rejected_catalog_argument_gives_reason(capsys, name, reason):
    code, out, err = run(capsys, "lattice", "info", name)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("Z(\u0663)", id="Z_arabic_indic_3"),
        pytest.param("I(\u0662,1)", id="I_arabic_indic_2"),
        pytest.param("Lambda_\uff12\uff16", id="Lambda_fullwidth_26"),
        # the Kelvin sign lower-cases to k, but is not the K of a name
        pytest.param("\u212a3", id="K3_kelvin_sign"),
        pytest.param("MU\u212aAI", id="MUKAI_kelvin_sign"),
    ],
)
def test_lattice_info_catalog_takes_ascii_digits_only(capsys, name):
    # a lattice file accepts ASCII digits only, and a catalog name ASCII
    # letters and digits only
    code, out, err = run(capsys, "lattice", "info", name, "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: unknown lattice name")


@pytest.mark.parametrize(
    "argv", [["lattice", "info"], ["mukai", "verify"], ["mukai", "search"], ["mukai", "normalize"]]
)
def test_lattice_help_names_every_catalog_entry(capsys, argv):
    code, out, _ = run(capsys, *argv, "--help")
    # argparse wraps help at spaces, and no display name holds one
    assert code == 0 and all(name in out for name, *_ in lattices.CATALOG)


def test_lattice_info_degenerate_exit_4(capsys, tmp_path):
    path = tmp_path / "deg.json"
    path.write_text('{"rank": 2, "gram": [[1, 1], [1, 1]]}')
    code, _, err = run(capsys, "lattice", "info", str(path))
    assert code == 4


# ---------------------------------------------------------------------------
# mukai


def test_mukai_verify_known_triple(capsys):
    doc = run_json(
        capsys,
        "mukai", "verify",
        "--lattice", "L26",
        "--v", "1,3,1",
        "--vp", "1,0,0",
        "--w", "11,22,7",
        "--d", "26",
    )
    payload = doc["payload"]
    assert payload["all_ok"] is True
    assert payload["conditions"]["w.w"]["value"] == -26
    assert all(c["ok"] for c in payload["conditions"].values())


def test_mukai_verify_matches_library(capsys):
    L = kuznetsov_rank3_lattice(26)
    expected = cli.mukai_verify_payload(L, (1, 3, 1), (1, 0, 0), (11, 22, 7), 26)
    doc = run_json(
        capsys,
        "mukai", "verify",
        "--lattice", "L26",
        "--v", "1,3,1",
        "--vp", "1,0,0",
        "--w", "11,22,7",
        "--d", "26",
    )
    assert json.dumps(doc["payload"], sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_mukai_search(capsys):
    doc = run_json(
        capsys, "mukai", "search", "--lattice", "L26", "--d", "26", "--bound", "25"
    )
    payload = doc["payload"]
    assert payload["status"] == "found"
    assert payload["all_ok"] is True
    assert payload["v"] == [1, -1, 1]


def test_mukai_search_impossible_on_definite_lattice(capsys, tmp_path):
    path = tmp_path / "pos.json"
    path.write_text('{"rank": 3, "gram": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}')
    doc = run_json(
        capsys, "mukai", "search", "--lattice", str(path), "--d", "26", "--bound", "5"
    )
    assert doc["payload"]["status"] == "impossible"
    assert "definite" in doc["payload"]["reason"]


def test_mukai_search_file_with_huge_entry_at_max_bound(capsys, tmp_path):
    e = 10**600 + 1
    path = tmp_path / "uz_huge.json"
    uz = lattices.direct_sum([lattices.hyperbolic_plane(), lattices.z_lattice(-e)])
    lattices.save_lattice(uz, str(path))
    argv = ["--lattice", str(path), "--d", str(e), "--bound", str(mukai.MAX_BOUND)]
    doc = run_json(capsys, "mukai", "search", *argv)
    assert doc["payload"]["status"] == "found"
    assert doc["payload"]["all_ok"] is True


def test_mukai_gram_lambda(capsys):
    doc = run_json(capsys, "mukai", "gram-lambda")
    assert doc["payload"]["gram"] == [[-2, 1], [1, -2]]


def test_mukai_normalize_l42(capsys):
    doc = run_json(
        capsys,
        "mukai", "normalize",
        "--lattice", "L42",
        "--v", "1,3,1",
        "--vp", "1,0,0",
    )
    assert doc["payload"]["gram"] == [[0, 1, 0], [1, 0, 0], [0, 0, -42]]


def test_mukai_normalize_precondition_exit_4(capsys):
    code, _, err = run(
        capsys,
        "mukai", "normalize",
        "--lattice", "L42",
        "--v", "1,0,0",
        "--vp", "1,0,0",
    )
    assert code == 4
    assert "isotropic" in err


def test_internal_error_exits_5_with_traceback(capsys, monkeypatch):
    # a v' that pairs to 2 with v fails the check inside the search
    monkeypatch.setattr(mukai, "_min_dual_one", lambda gv, bound: (2, 2, 0))
    code, out, err = run(capsys, "mukai", "search", "--lattice", "L26", "--d", "26", "--json")
    assert (code, out) == (5, "")
    assert err.startswith("Traceback") and "RuntimeError: internal error" in err


def test_mukai_vector_usage_error(capsys):
    code, _, _ = run(
        capsys, "mukai", "verify", "--lattice", "L26",
        "--v", "1,a,1", "--vp", "1,0,0", "--w", "1,1,1", "--d", "26",
    )
    assert code == 2


# (argument, command line with {} where the argument's digits go, digits)
INTEGER_ARGUMENTS = [
    ("max", ["admissible", "--max", "{}"], "26"),
    ("search-d", ["mukai", "search", "--lattice", "L26", "--d", "{}", "--bound", "5"], "26"),
    ("bound", ["mukai", "search", "--lattice", "L26", "--d", "26", "--bound", "{}"], "5"),
    ("verify-v", ["mukai", "verify", "--lattice", "L26", "--v", "{},3,1", "--vp", "1,0,0",
                  "--w", "11,22,7", "--d", "26"], "1"),
    ("verify-vp", ["mukai", "verify", "--lattice", "L26", "--v", "1,3,1", "--vp", "1,{},0",
                   "--w", "11,22,7", "--d", "26"], "0"),
    ("verify-w", ["mukai", "verify", "--lattice", "L26", "--v", "1,3,1", "--vp", "1,0,0",
                  "--w", "11,22,{}", "--d", "26"], "7"),
    ("verify-d", ["mukai", "verify", "--lattice", "L26", "--v", "1,3,1", "--vp", "1,0,0",
                  "--w", "11,22,7", "--d", "{}"], "26"),
    ("normalize-v", ["mukai", "normalize", "--lattice", "L42", "--v", "1,{},1", "--vp", "1,0,0"], "3"),
    ("normalize-vp", ["mukai", "normalize", "--lattice", "L42", "--v", "1,3,1", "--vp", "{},0,0"], "1"),
]
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


@pytest.mark.parametrize(
    "form, accepted",
    [
        pytest.param(lambda s: s.translate(ARABIC_INDIC), False, id="arabic_indic"),
        pytest.param(lambda s: s.translate(FULLWIDTH), False, id="fullwidth"),
        pytest.param(lambda s: "0_" + s, False, id="underscore"),
        pytest.param(lambda s: f" {s} ", True, id="spaces"),
        pytest.param(lambda s: f"\u3000{s}\xa0", False, id="unicode_spaces"),
        pytest.param(lambda s: "+" + s, True, id="plus_sign"),
        pytest.param(lambda s: "00" + s, True, id="leading_zeros"),
    ],
)
@pytest.mark.parametrize("argv, digits", [a[1:] for a in INTEGER_ARGUMENTS],
                         ids=[a[0] for a in INTEGER_ARGUMENTS])
def test_integer_arguments_take_ascii_digits_only(capsys, argv, digits, form, accepted):
    # as in a catalog name or a lattice file; int() alone reads any
    # Unicode decimal digit and underscores between digits
    plain = run(capsys, *(a.format(digits) for a in argv), "--json")
    assert plain[0] == 0, plain[2]
    got = run(capsys, *(a.format(form(digits)) for a in argv), "--json")
    if accepted:
        assert got == plain
    else:
        assert got[:2] == (2, "")
        assert "invalid int value" in got[2] or "expected comma-separated integers" in got[2]


def test_mukai_lattice_from_file(capsys, tmp_path):
    path = tmp_path / "l26.json"
    path.write_text(lattice_to_json(kuznetsov_rank3_lattice(26)))
    doc = run_json(
        capsys,
        "mukai", "verify",
        "--lattice", str(path),
        "--v", "1,3,1", "--vp", "1,0,0", "--w", "11,22,7", "--d", "26",
    )
    assert doc["payload"]["all_ok"] is True


# ---------------------------------------------------------------------------
# chow


def test_chow_plane(capsys):
    doc = run_json(capsys, "chow", "--surface", "plane")
    payload = doc["payload"]
    assert payload["discriminant"] == 8
    assert payload["relation"] == "h^3 = 3 ell"
    assert payload["gdch"]["collapsed"] is True


def test_chow_septic_scroll(capsys):
    doc = run_json(capsys, "chow", "--surface", "septic-scroll")
    payload = doc["payload"]
    assert payload["discriminant"] == 26
    assert payload["relation"] == "3 h.R = 7 h^3"
    assert payload["gdch"]["collapsed"] is False
    assert payload["gdch"]["generators"] == ["h^3", "ell"]


def test_chow_quartic_scroll_pushforward(capsys):
    doc = run_json(capsys, "chow", "--surface", "quartic-scroll")
    payload = doc["payload"]
    assert payload["discriminant"] == 14
    assert payload["restricted_pushforward"]["class"] == {"h^3": "4/3"}
    assert payload["restricted_pushforward"]["text"] == "4/3 h^3"


def test_chow_unknown_surface_exit_2(capsys):
    code, _, _ = run(capsys, "chow", "--surface", "cube")
    assert code == 2


def test_chow_payloads_match_library(capsys):
    for name in ("plane", "veronese", "quartic-scroll", "septic-scroll"):
        expected = cli.chow_payload(name)
        doc = run_json(capsys, "chow", "--surface", name)
        assert json.dumps(doc["payload"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


def test_payloads_of_held_values_are_the_callers(capsys):
    # the catalog lattices and the command line's fixed answers are held;
    # what a payload builder returns is new, so changing it changes no
    # later answer
    run(capsys, "mukai", "gram-lambda")
    run(capsys, "scroll-ideal")
    fixed = [cli.lattice_info_payload(lattices.lattice_by_name(n)) for n in ("K3", "L26")]
    surfaces = [cli.chow_payload(s) for s in sorted(chow.SURFACES)]
    answers = [cli.mukai_gram_lambda_payload(), cli.scroll_ideal_payload(), cohomology.lambda_gram()]
    expected = json.dumps([fixed, surfaces, answers], sort_keys=True)
    for payload in fixed:
        payload["gram"][0][0] = 99
        payload["gram"].append([1])
        payload["discriminant_group"].append(7)
    for payload in surfaces:
        payload["gdch"]["generators"].append("h^5")
        payload["gdch"]["generators"][0] = "0"
        payload["label_gram"][0][0] = 99
        payload["restricted_pushforward"]["class"]["ell"] = 1
    gram_lambda, scroll_ideal, gram = answers
    gram_lambda["gram"][0][0] = 99
    gram_lambda["basis"].append("lambda3")
    scroll_ideal["minors"][0] = "0"
    scroll_ideal["minors"].append("u")
    gram[1][1] = 99
    gram.append([0, 0])
    again = [
        [cli.lattice_info_payload(lattices.lattice_by_name(n)) for n in ("K3", "L26")],
        [cli.chow_payload(s) for s in sorted(chow.SURFACES)],
        [cli.mukai_gram_lambda_payload(), cli.scroll_ideal_payload(), cohomology.lambda_gram()],
    ]
    assert json.dumps(again, sort_keys=True) == expected
    held = json.loads(expected)
    assert run_json(capsys, "chow", "--surface", "plane")["payload"] == held[1][0]
    assert run_json(capsys, "mukai", "gram-lambda")["payload"] == held[2][0]
    assert run_json(capsys, "scroll-ideal")["payload"] == held[2][1]


#: the command lines without a free argument, whose payloads lattices._held_entry holds
FIXED_ARGVS = [
    *(["chow", "--surface", s] for s in sorted(chow.SURFACES)),
    ["mukai", "gram-lambda"],
    ["scroll-ideal"],
]

#: the payload builder and arguments of each of FIXED_ARGVS
FIXED_BUILDS = [
    *(("chow_payload", s) for s in sorted(chow.SURFACES)),
    ("mukai_gram_lambda_payload",),
    ("scroll_ideal_payload",),
]


def golden_stdout():
    """The stdout of every golden argv that exits 0, in both formats."""
    return {
        tuple(case["argv"]): case["stdout"]
        for name in ("golden_cli.json", "golden_cli_human.json")
        for case in json.loads((pathlib.Path(__file__).parent / name).read_text())
        if case["exit"] == 0
    }


def test_fixed_answers_are_held_once_per_process(capsys, monkeypatch):
    # each fixed argv runs three times in both formats, amid every other
    # golden argv that exits 0, and writes its golden bytes every time
    builds, originals = collections.Counter(), {}
    for name in {name for name, *_ in FIXED_BUILDS}:
        originals[name] = build = getattr(cli, name)
        counted = lambda *args, build=build, name=name: builds.update([(name, *args)]) or build(*args)
        monkeypatch.setattr(cli, name, counted)
    golden = golden_stdout()
    fixed = [(*argv, *form) for argv in FIXED_ARGVS for form in ((), ("--json",))]
    assert set(fixed) <= set(golden)
    argvs = [argv for argv in golden if argv not in fixed] + fixed * 3
    random.Random(35).shuffle(argvs)
    for argv in argvs:
        assert run(capsys, *argv) == (0, golden[argv], ""), argv
    assert builds == {build: 1 for build in FIXED_BUILDS}
    info = lattices._held_entry.cache_info()
    for name, *args in FIXED_BUILDS:
        assert lattices._held_entry(getattr(cli, name), *args) == originals[name](*args)
    # an error is not held
    with pytest.raises(KeyError):
        lattices._held_entry(cli.chow_payload, "cubic")
    after = lattices._held_entry.cache_info()
    assert (after.currsize, after.misses) == (info.currsize, info.misses + 1)
    assert builds == {build: 1 for build in FIXED_BUILDS} | {("chow_payload", "cubic"): 1}


def test_the_one_hold_stays_bounded(capsys, tmp_path):
    # what the process holds is the nine argument-free catalog lattices,
    # the six fixed payloads and the parser, whatever it is asked
    import test_golden

    rng = random.Random(37)
    names = [f"Z({rng.choice((-1, 1)) * rng.randint(1, 10**6)})" for _ in range(400)]
    names += [f"Lambda_{rng.randint(1, 10**6)}" for _ in range(300)]
    names += [f"I({k % 30},{k // 30 + 1})" for k in range(300)]
    files = [tmp_path / f"{i}.json" for i in range(3)]
    for path, L in zip(files, [middle_lattice(), kuznetsov_rank3_lattice(26), lattices.z_lattice(-5)]):
        path.write_text(lattice_to_json(L), encoding="utf-8")
    argvs = [list(argv) for argv in golden_stdout()]
    argvs += [["lattice", "info", name, "--json"] for name in [*test_golden.NAMES, *names]]
    argvs += [["lattice", "info", str(path)] for path in files]
    argvs += [["mukai", "search", "--lattice", str(files[1]), "--d", "26", "--json"]]
    for argv in argvs:
        assert run(capsys, *argv)[0] in (0, 3), argv
    i21_2 = lattices.lattice_by_name("I21_2")
    assert lattices.lattice_by_name("I(21,2)") is i21_2 is lattices.lattice_by_name("i(21,2)")
    assert lattices._held_entry.cache_info().currsize == 16


# ---------------------------------------------------------------------------
# scroll ideal


def test_scroll_ideal(capsys):
    doc = run_json(capsys, "scroll-ideal")
    minors = doc["payload"]["minors"]
    assert len(minors) == 6
    assert minors[0] == "u*w - v^2"


# ---------------------------------------------------------------------------
# shared plumbing


def test_human_mode_smoke(capsys):
    code, out, _ = run(capsys, "lattice", "info", "A2")
    assert code == 0
    assert "rank: 2" in out
    assert "discriminant_group: [3]" in out


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # the process builds one parser, and every call parses with it
    built, build = [], cli._parser
    monkeypatch.setattr(cli, "_parser", lambda: built.append(1) or build())
    assert "reports" in run_json(capsys, "admissible", "--max", "42", "--verbose")["payload"]
    assert "reports" not in run_json(capsys, "admissible", "--max", "42")["payload"]
    code, out, _ = run(capsys, "--json", "admissible", "--max", "14")
    assert code == 0 and json.loads(out)["payload"]["admissible"] == [14]
    assert run(capsys, "admissible", "--max", "14") == (0, "max: 14\nadmissible: [14]\n", "")
    first = run(capsys, "mukai", "search", "--d", "26")
    assert first[0] == 2 and "--lattice" in first[2]
    assert run(capsys, "mukai", "search", "--d", "26") == first
    assert built == [1]



#: tokens of the random command lines below: command words, options and
#: their abbreviations, values, and the forms argparse treats apart ("--",
#: "--d=7", negative numbers, an empty or spaced argument, an abbreviation
#: that an upper level finds ambiguous)
ARGV_TOKENS = [
    "admissible", "lattice", "info", "mukai", "verify", "search", "gram-lambda", "normalize",
    "chow", "scroll-ideal", "Mukai", "muk", "frob",
    "--json", "--js", "--json=1", "-h", "--help", "--he", "-hx",
    "--max", "--max=30", "--ma", "--verbose", "--ver", "--lattice", "--lat", "--lattice=L26",
    "--v", "--vp", "--w", "--d", "--d=7", "--bound", "--b", "--surface", "--su", "--surface=plane",
    "--", "-", "--=x", "-=x", "--bogus", "-x", "",
    "14", "200001", "-26", "26", "0", "L26", "L42", "A2", "1,3,1", "1,0,0", "11,22,7", "-1,2,0", "1,x",
    "plane", "veronese", "x y",
]
LEAF_WORDS = [
    ("admissible",), ("lattice", "info"), ("mukai", "verify"), ("mukai", "search"),
    ("mukai", "gram-lambda"), ("mukai", "normalize"), ("chow",), ("scroll-ideal",),
]


def dispatch_argvs(count: int, seed: int) -> list[list[str]]:
    """Every golden argv, then seeded edits of them and random token lists
    after command words, with --json put before, between or after them."""
    golden = [
        case["argv"]
        for name in ("golden_cli.json", "golden_cli_human.json")
        for case in json.loads((pathlib.Path(__file__).parent / name).read_text())
    ]
    rng = random.Random(seed)
    # Python 3.11 refuses "--=x" at the top level, 3.13 at the leaf
    argvs = [*golden, ["admissible", "--max", "14", "--=x"], ["scroll-ideal"], ["mukai", "verify", "-h"]]
    for _ in range(count):
        if rng.random() < 0.5:
            argv = list(rng.choice(golden))
            for _ in range(rng.randrange(3)):
                i = rng.randrange(len(argv) + 1)
                edit = rng.randrange(3)
                if edit == 0 or i == len(argv):
                    argv.insert(i, rng.choice(ARGV_TOKENS))
                elif edit == 1:
                    del argv[i]
                else:
                    argv[i] = rng.choice(ARGV_TOKENS)
        else:
            words = rng.choice([*LEAF_WORDS, (), ("mukai",), ("lattice",), ("frob",)])
            argv = [*words, *rng.choices(ARGV_TOKENS, k=rng.randrange(7))]
        for _ in range(rng.randrange(3)):
            argv.insert(rng.randrange(min(len(argv), 3) + 1), "--json")
        argvs.append(argv)
    return argvs


def parsed(parse, argv):
    """The namespace that parse gives argv, as a dict, or the exit code,
    stdout and stderr with which it refuses argv or prints help."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as e:
        return e.code, out.getvalue(), err.getvalue()


def test_leaf_dispatch_parses_as_the_tree():
    # the held tree: a namespace carries the handlers of the tree that built it
    tree = lattices._held_entry(cli._parser).parse_args
    outcomes = collections.Counter()
    for argv in dispatch_argvs(3000, seed=30):
        got = parsed(cli._parse_args, argv)
        assert got == parsed(tree, argv), argv
        outcomes[got[0] if type(got) is tuple else "parsed"] += 1
    # the corpus reaches every outcome: a namespace, help and a usage error
    assert min(outcomes["parsed"], outcomes[0], outcomes[2]) >= 100, outcomes


def emitted(payload: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit("cmd", payload, as_json=True)
    return out.getvalue()


def dumped(payload: dict) -> str:
    doc = {"command": "cmd", "status": "ok", "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def with_report_dicts(payload: dict) -> dict:
    """The payload with its admissible report rows, if any, as the dicts of their fields."""
    if "reports" not in payload:
        return payload
    keys = ("d", "star", "star_star", "genus", "witness")
    return {**payload, "reports": [dict(zip(keys, row)) for row in payload["reports"]]}


big_ints = st.integers(10**599, 10**600 - 1) | st.integers(-(10**600 - 1), -(10**599))
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | big_ints
    | st.text()
    | st.sampled_from(["", "\u00e9", "\x00\x1f\x7f", '"\\/\n\t', "\u2028", "\U0001f600"])
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.integers() | st.booleans(), max_size=5)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


scalars = st.none() | st.booleans() | st.integers() | big_ints


@st.composite
def scalar_rows(draw):
    """A list of dicts with one key set and scalar values, each row with
    its keys in its own insertion order: the shape of the report rows."""
    keys = draw(st.lists(st.text(), min_size=1, max_size=5, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        values = {k: draw(scalars) for k in keys}
        order = draw(st.permutations(keys))
        rows.append({k: values[k] for k in order})
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.text(), json_values | scalar_rows(), max_size=4)
    | st.dictionaries(st.text(), scalar_rows(), min_size=1, max_size=2)
)
def test_emit_writes_the_bytes_of_json_dumps(payload):
    assert emitted(payload) == dumped(payload)


UNIFORM_ROWS = [
    {"a": True, "b": 1, "c": None, "d": -7},
    {"a": 1, "b": True, "c": 0, "d": 10**200},
    {"a": False, "b": 0, "c": False, "d": -(10**200)},
    {"a": 0, "b": False, "c": -1, "d": None},
]


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(UNIFORM_ROWS, id="bool-int-none-huge"),
        pytest.param([{"d": d, "x": d % 2 == 0} for d in range(-3, 4)], id="negative"),
        pytest.param([{"b": 1, "a": True}, {"a": None, "b": -2}, {"b": 0, "a": 0}], id="key-orders"),
        pytest.param([{"only": True}, {"only": 1}, {"only": None}], id="one-key"),
        pytest.param([{"100%": 1, "%s": True, "a\u00e9\"": None}] * 2, id="format-chars-in-keys"),
        pytest.param([{"a": 1, "b": 2}, {"a": 1, "c": 2}], id="other-key-set"),
        pytest.param([{"a": 1, "b": 2}, {"a": 1}], id="fewer-keys"),
        pytest.param([{"a": 1}, {"a": 1, "b": 2}], id="more-keys"),
        pytest.param([{}, {}], id="empty-dicts"),
        pytest.param([{"a": 1}, {}], id="one-empty-dict"),
        pytest.param([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}], id="str-value"),
        pytest.param([{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}], id="list-value"),
        pytest.param([{"a": 1, "b": {"c": None}}], id="dict-value"),
        pytest.param([{"a": 1}, [1]], id="not-all-dicts"),
        pytest.param([None, {"a": 1}], id="first-not-a-dict"),
    ],
)
def test_lists_of_rows_match_json_dumps(rows):
    for payload in ({"rows": rows}, {"rows": rows, "nested": {"rows": rows, "n": [1, 2]}}):
        assert emitted(payload) == dumped(payload)
    assert cli._json_text(rows, "\n") == json.dumps(rows, indent=2, sort_keys=True)


def test_rows_with_a_float_are_refused(capsys):
    # floats are no JSON value of cubiclat: _json_text refuses them
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1}]
    with pytest.raises(TypeError):
        cli.emit("cmd", {"rows": rows}, as_json=True)
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter prints integers of any length"
)
def test_rows_with_an_int_too_long_to_print(capsys):
    rows = [{"d": 1, "x": True}, {"d": 10**5000, "x": None}]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="too long to print"):
            cli.emit("cmd", {"rows": rows}, as_json=True)
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter prints integers of any length"
)
@pytest.mark.parametrize("ints", [[1, 10**5000, 2], (10**5000,)], ids=["list", "tuple"])
def test_int_list_with_an_int_too_long_to_print(capsys, ints):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="too long to print"):
            cli.emit("cmd", {"ok": [1, 2], "ints": ints}, as_json=True)
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().out == ""


def test_emit_writes_the_bytes_of_json_dumps_for_every_payload_builder():
    L26, L42 = cli.resolve_lattice("L26"), cli.resolve_lattice("L42")
    payloads = [
        cli.admissible_payload(20000, True),
        cli.admissible_payload(20000, False),
        cli.admissible_payload(13, True),
        cli.mukai_verify_payload(L26, (1, 3, 1), (1, 0, 0), (11, 22, 7), 26),
        cli.mukai_search_payload(L42, 42, 10),
        cli.mukai_search_payload(L26, 27, 5),
        cli.mukai_search_payload(cli.resolve_lattice("I(3,0)"), 1, 3),
        cli.mukai_gram_lambda_payload(),
        cli.mukai_normalize_payload(L42, (1, 3, 1), (1, 0, 0)),
        cli.scroll_ideal_payload(),
    ]
    payloads += [cli.lattice_info_payload(cli.resolve_lattice(n)) for n in ("E8", "Gamma", "L26")]
    payloads += [cli.chow_payload(name) for name in chow.SURFACES]
    for payload in payloads:
        assert emitted(payload) == dumped(with_report_dicts(payload))


def test_emit_rejects_non_json_leaf(capsys):
    for leaf in (object(), Fraction(4, 3), IntMatrix([[1]])):
        with pytest.raises(TypeError):
            cli.emit("cmd", {"ok": [1, 2], "bad": {"x": [leaf]}}, as_json=True)
        assert capsys.readouterr().out == ""


def test_resolve_lattice_middle(capsys):
    assert cli.resolve_lattice("I21_2") == middle_lattice()


def test_payloads_match_library_everywhere(capsys):
    # byte-for-byte agreement between CLI output and library payloads
    cases = [
        (("admissible", "--max", "30", "--verbose"),
         lambda: cli.admissible_payload(30, True)),
        (("lattice", "info", "Gamma"),
         lambda: cli.lattice_info_payload(cli.resolve_lattice("Gamma"))),
        (("mukai", "gram-lambda"), cli.mukai_gram_lambda_payload),
        (("mukai", "search", "--lattice", "L42", "--d", "42", "--bound", "10"),
         lambda: cli.mukai_search_payload(kuznetsov_rank3_lattice(42), 42, 10)),
        (("scroll-ideal",), cli.scroll_ideal_payload),
    ]
    for argv, builder in cases:
        doc = run_json(capsys, *argv)
        assert json.dumps(doc["payload"], sort_keys=True) == json.dumps(
            with_report_dicts(builder()), sort_keys=True
        )


def test_module_execution(tmp_path):
    import subprocess
    import sys

    # main(None) reads sys.argv: the first argv goes to the admissible
    # parser alone, the second, --json first, through the whole tree
    outs = [
        subprocess.run([sys.executable, "-m", "cubiclat", *argv], capture_output=True, text=True)
        for argv in (["admissible", "--max", "14", "--json"], ["--json", "admissible", "--max", "14"])
    ]
    for out in outs:
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["payload"]["admissible"] == [14]
    assert outs[0].stdout == outs[1].stdout


def test_closed_stdout_exits_1_without_traceback():
    import os
    import pathlib
    import subprocess

    import cubiclat

    src = str(pathlib.Path(cubiclat.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # (argv, bytes read before closing): the help texts fit in one write
    cases = [
        (["admissible", "--max", "200000", "--json"], 10),
        (["admissible", "--max", "200000", "--verbose"], 10),
        (["--help"], 0),
        (["mukai", "--help"], 0),
        (["mukai", "verify", "--help"], 0),
    ]
    # a buffered stdout fails at the final flush, an unbuffered one at the write
    for argv, head in cases:
        for unbuffered in ("", "1"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "cubiclat", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered},
            )
            assert len(proc.stdout.read(head)) == head
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (proc.wait(timeout=60), err) == (1, b""), (argv, unbuffered)


def test_runtime_imports_are_stdlib_only():
    import os
    import pathlib
    import subprocess

    import cubiclat

    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import cubiclat, cubiclat.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    src = str(pathlib.Path(cubiclat.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["cubiclat"]


# Module-level functions and classes and the methods of classes (but
# dunders) that no library code references, each kept for a stated reason;
# any other such definition is test-only code.
UNCALLED_PUBLIC = {
    "discriminant_report": "a benchmark query",
    "orthogonal_complement": "a benchmark query",
    "is_isometric_small": "a benchmark query",
    "genus_of_discriminant": "the README example session",
    "hyperplane_square": "the README's convention for h^2",
    "save_lattice": "the writer of the lattice file format",
    "inner_product": "the bilinear form on vectors or coordinates",
    "signature": "part of invariants, without the elimination modulo |det|",
    "discriminant_group": "part of invariants",
    "smith_normal_form": "the discriminant form (ROADMAP item 8) gives it its library caller",
    "scroll_parameterization": "the parameterization the scroll's minors are tested against",
    "scroll_membership": "the parameterization the scroll's minors are tested against",
    "print_help": "the argparse method that _Parser overrides to let a closed stdout raise",
}


def library_modules():
    """(module, syntax tree) of each library module but the package's own two."""
    import importlib

    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name not in ("__init__.py", "__main__.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            yield importlib.import_module(f"cubiclat.{path.stem}"), tree


def test_library_definitions_have_a_library_reference():
    # a method or property is referenced only as an attribute, so a local
    # variable of the same name does not count for it, and not by the name
    # of a method of a builtin container or str, such as dict.get; a
    # module-level definition also by a loaded name or an import
    top, methods, names, attrs = set(), set(), set(), set()
    for _, tree in library_modules():
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)
        top.update(node.name for node in tree.body if isinstance(node, (*defs, ast.ClassDef)))
        methods.update(
            item.name
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__"))
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    builtin = set().union(*map(dir, (dict, list, str, tuple, set)))
    unreferenced = (top - names - attrs) | (methods - (attrs - builtin))
    assert sorted(unreferenced - set(UNCALLED_PUBLIC)) == [], "no library caller and no stated reason"
    assert sorted(set(UNCALLED_PUBLIC) - unreferenced) == [], "listed but referenced or gone"


def test_public_library_callables_are_plain_functions():
    # bench/tracing.py wraps plain functions only, so the one hold, a
    # functools.cache, stays private and the public functions stay plain
    import inspect

    caches = [
        value
        for module, _ in library_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    ]
    assert caches == [lattices._held_entry] and not inspect.isfunction(lattices._held_entry)
    assert inspect.isfunction(cli._parser)
    wrapped = [
        f"{module.__name__}.{name}"
        for module, _ in library_modules()
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not inspect.isclass(value)
        if getattr(value, "__module__", None) == module.__name__ and not inspect.isfunction(value)
    ]
    assert wrapped == [], "a public callable that is not a plain function"


def test_every_hold_is_emptied_before_each_test(monkeypatch):
    # the one functools.cache of the library is cleared by the autouse
    # fixture nothing_held, and every module global that a function
    # rebinds (a global statement) is reset
    from conftest import clear_holds

    holds, rebound = {}, {}
    for module, tree in library_modules():
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                holds[f"{module.__name__}.{name}"] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                rebound.update((f"{module.__name__}.{name}", (module, name)) for name in node.names)
    assert holds == {"cubiclat.lattices._held_entry": lattices._held_entry}
    assert "cubiclat.admissibility._held" in rebound
    cleared = set()
    for name, hold in holds.items():
        monkeypatch.setattr(hold, "cache_clear", lambda name=name: cleared.add(name))
    sentinel = object()
    for module, name in rebound.values():
        monkeypatch.setattr(module, name, sentinel)
    clear_holds()
    assert sorted(set(holds) - cleared) == [], "a hold that nothing_held leaves filled"
    left = [key for key, (module, name) in rebound.items() if getattr(module, name) is sentinel]
    assert left == [], "a global that nothing_held leaves as it was"
