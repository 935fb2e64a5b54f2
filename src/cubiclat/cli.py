"""Command line interface.

Subcommands mirror the library one to one; with ``--json`` the payload
is emitted as a stable JSON document of the form

    {"command": ..., "status": "ok", "payload": {...}}

and without it a terse human-readable rendering of the same data is
printed.  Exit codes: 0 ok, 1 stdout closed before the output (help
text included) was written, 2 usage error, 3 unknown lattice name or a
lattice file that cannot be read or parsed, 4 domain error (degenerate
Gram, failed precondition, a result too long to print, ``admissible
--max`` above ``admissibility.MAX_D``, ``admissible --verbose --max``
above ``admissibility.MAX_VERBOSE_D`` or ``mukai search --bound`` above
``mukai.MAX_BOUND``; a value over a ceiling is rejected before any work
starts), 5 internal error (a bug: the traceback goes to stderr and
nothing to stdout).  Diagnostics go to stderr, payloads to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import traceback

from . import admissibility, chow, cohomology, lattices, mukai
from .errors import CubiclatError, LatticeFormatError
from .lattices import Lattice, lattice_by_name, load_lattice

CLOSED_STDOUT = 1
USAGE_ERROR = 2
PARSE_ERROR = 3
DOMAIN_ERROR = 4
INTERNAL_ERROR = 5


def resolve_lattice(source: str) -> Lattice:
    """Interpret a lattice argument as a catalog name or a file path.

    When neither works, the error carries the catalog's reason: an unknown
    name, or a catalog pattern with a rejected argument such as ``Z(0)``.
    """
    try:
        return lattice_by_name(source)
    except ValueError as e:
        reason = e
    if os.path.exists(source):
        return load_lattice(source)
    raise LatticeFormatError(f"{reason}, and no such file: {source!r}")


# ---------------------------------------------------------------------------
# payload builders (shared by tests to pin CLI/library agreement)


def admissible_payload(max_d: int, verbose: bool) -> dict:
    """The admissible list up to max_d and, when verbose, a report per d.

    The list is ``admissibility.enumerate_admissible(max_d)``, a slice of
    the one the process holds.  The reports are the plain rows of
    ``admissibility.report_rows`` as a ``_Reports``; no
    ``DiscriminantReport`` and no dict per d is built.  ``emit`` writes each
    row as the dict of its fields.
    """
    payload = {"max": max_d, "admissible": admissibility.enumerate_admissible(max_d)}
    if verbose:
        payload["reports"] = _Reports(admissibility.report_rows(max_d))
    return payload


#: the keys of a report row's dict, in field order
_REPORT_FIELDS = ("d", "star", "star_star", "genus", "witness")
#: the fields of each kind of report row, ... for an int of the row: d, genus
#: and witness, in that order whether the keys are in field or sorted order
_ROW_KINDS = (
    (..., False, False, None, None),  # odd d
    (..., False, False, ..., None),  # even d failing (*): d <= 6 or d = 4 (mod 6)
    (..., True, True, ..., None),  # admissible d
    (..., True, False, ..., ...),  # (*) with a witness
)


class _Reports(tuple):
    """The rows of ``admissibility.report_rows``, which ``emit`` writes as
    the dicts of their ``_REPORT_FIELDS``, with one ``%`` a row."""

    def texts(self, template) -> list[str]:
        """Each row filled into ``template(report)`` of its kind, the text of
        the kind's report dict with "%d" as the value of each int of the row."""
        odd, failing, admissible, witnessed = (
            template({k: "%d" if v is ... else v for k, v in zip(_REPORT_FIELDS, kind)}) for kind in _ROW_KINDS
        )
        return [
            odd % d if genus is None
            else witnessed % (d, genus, witness) if witness
            else admissible % (d, genus) if star_star
            else failing % (d, genus)
            for d, _, star_star, genus, witness in self
        ]


def lattice_info_payload(L: Lattice) -> dict:
    """The invariants of L, from ``lattices.invariants``."""
    (p, n), det, group = lattices.invariants(L)
    return {
        "label": L.label,
        "rank": L.rank,
        "det": det,
        "abs_det": abs(det),
        "signature": [p, n],
        "discriminant_group": list(group.factors),
        "gram": L.gram.to_lists(),
    }


def mukai_verify_payload(L: Lattice, v, vp, w, d: int) -> dict:
    triple = mukai.IsotropicTriple(L.vec(v), L.vec(vp), L.vec(w), d)
    check = mukai.verify_triple(L, triple)
    return {
        "lattice": L.label,
        "v": list(v),
        "vprime": list(vp),
        "w": list(w),
        "d": d,
        "conditions": check.conditions(),
        "all_ok": check.all_ok,
    }


def mukai_search_payload(L: Lattice, d: int, bound: int) -> dict:
    result = mukai.find_isotropic_triple(L, d, bound)
    payload: dict = {
        "lattice": L.label,
        "d": d,
        "bound": bound,
        "status": result.status,
    }
    if result.reason:
        payload["reason"] = result.reason
    if result.triple is not None:
        t = result.triple
        payload.update(mukai_verify_payload(L, t.v.coords, t.vprime.coords, t.w.coords, d))
    return payload


def mukai_gram_lambda_payload() -> dict:
    return {"basis": ["lambda1", "lambda2"], "gram": cohomology.lambda_gram()}


def mukai_normalize_payload(L: Lattice, v, vp) -> dict:
    basis, gram = mukai.hyperbolic_normalize(L, v, vp)
    return {
        "lattice": L.label,
        "basis": [list(b.coords) for b in basis],
        "gram": gram.to_lists(),
    }


def chow_payload(name: str) -> dict:
    """The Chow data of the surface ``chow.SURFACES[name]``, computed by
    ``chow`` into a new dict on every call."""
    spec = chow.SURFACES[name]
    gram, disc = chow.label_gram(spec.degree, spec.rr)
    restricted = chow.restricted_pushforward(spec)
    gd = chow.gdch_generators(spec)
    return {
        "surface": spec.name,
        "degree": spec.degree,
        "rr": spec.rr,
        "label_gram": gram.to_lists(),
        "discriminant": disc,
        "relation": chow.pushforward_relation(spec).text(),
        "restricted_pushforward": {
            "class": {s: c.numerator if c.denominator == 1 else str(c) for s, c in restricted.coeffs.items()},
            "text": restricted.text(),
        },
        "gdch": {"generators": [g.text() for g in gd.generators], "collapsed": gd.collapsed},
    }


def scroll_ideal_payload() -> dict:
    return {"minors": [q.text() for q in chow.quartic_scroll_minors()]}


# ---------------------------------------------------------------------------
# rendering


def emit(command: str, payload: dict, as_json: bool) -> None:
    """Print the payload; nothing is printed if any of it cannot be rendered.

    The JSON document is the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
    with ``_Reports`` rows as dicts; both renderers write them a template per row kind.
    """
    try:
        if as_json:
            doc = {"command": command, "status": "ok", "payload": payload}
            text = _json_text(doc, "\n")
        else:
            text = _human_text(payload, "")
    except ValueError as e:
        # str() refuses an int longer than the interpreter's digit limit
        raise ValueError("the result holds an integer too long to print") from e
    # print writes the text, then its newline in a second write; keep both.
    # Under PYTHONUNBUFFERED=1 a short write to a closed pipe is dropped
    # without an error, and only the second write raises BrokenPipeError.
    print(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at the nesting whose
    line break and indentation is ``pad``; dict keys are strings."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    sep = "," + inner
    if type(value) is _Reports:
        # "%d" writes an int's JSON text; joined in place, the list of texts
        # is freed before the copy into the brackets
        template = lambda report: _json_text(report, inner).replace('"%d"', "%d")
        return f"[{inner}{sep.join(value.texts(template))}{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # keys are strings: the encoder refuses any other type
        body = sep.join([f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())])
        # the items are freed before this copy; an f-string copies its
        # parts once, where a chain of + copies a long part at every step
        return f"{{{inner}{body}{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # the first item spares the set pass over a list of lists or of strings
        if type(value[0]) is int and set(map(type, value)) == {int}:
            # a list of ints prints as their JSON texts joined by ", ",
            # with no str held per item
            body = repr(value if type(value) is list else list(value))[1:-1].replace(", ", sep)
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return f"[{inner}{body}{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _human_text(payload: dict, indent: str) -> str:
    """The lines of the human rendering, joined, one string per dict; no payload holds an empty one."""
    inner, dash = indent + "  ", indent + "  -"
    out = []
    for key, value in payload.items():
        if isinstance(value, dict):
            out += (f"{indent}{key}:", _human_text(value, inner))
        elif type(value) is _Reports:
            out.append(f"{indent}{key}:")
            out += value.texts(lambda report: f"{_human_text(report, inner)}\n{dash}")
        else:
            out.append(f"{indent}{key}: {value}")
    return "\n".join(out)


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _integer(text: str) -> int:
    """Optionally signed ASCII digits amid ASCII whitespace; ``int`` also reads other digits, spaces and ``_``."""
    if _INTEGER.fullmatch(text):
        with contextlib.suppress(ValueError):  # past the interpreter's digit limit
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_integer, text.split(",")))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse 3.11+ drops an OSError from this write; let a closed
        # stdout reach main, as it does for every other output
        (file or sys.stdout).write(self.format_help())


def _parser() -> argparse.ArgumentParser:
    """A new command-line parser.  parse_args keeps no state in it, so
    ``_parse_args`` builds one per process, held by ``lattices._held_entry``.

    Each leaf's ``run`` maps the parsed arguments to (command, payload).
    The handlers look the payload builders up by name when they run, so a
    function rebound in this module after the parser is built still serves;
    the handlers of ``chow``, ``mukai gram-lambda`` and ``scroll-ideal``
    answer through ``lattices._held_entry``, so each payload is built once.
    The parser's ``leaves`` maps the command words of each leaf, such as
    ``("mukai", "verify")`` or ``("scroll-ideal",)``, to the leaf parser and
    the namespace values its ancestors set; ``_parse_args`` hands an argv
    that starts with those words to the leaf alone.
    """
    # SUPPRESS keeps an absent subcommand-level --json from clobbering the
    # top-level default in the shared namespace
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit a stable JSON payload",
    )

    parser = _Parser(
        prog="cubiclat",
        description="exact lattice and intersection-theory computations "
        "for special cubic fourfolds and their associated K3 surfaces",
    )
    parser.add_argument(
        "--json", action="store_true", default=False, help="emit a stable JSON payload"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source_help = f"catalog name ({', '.join(entry[0] for entry in lattices.CATALOG)}) or lattice file path"
    parser.leaves = {}

    def leaf(subparsers, words, run, **kwargs):
        """Add the leaf parser of ``words`` under ``subparsers`` and record it."""
        p = subparsers.add_parser(words[-1], parents=[common], **kwargs)
        p.set_defaults(run=run)
        # the top-level --json default, and each command word under its dest
        parser.leaves[words] = p, {"json": False, **dict(zip(("command", subparsers.dest), words))}
        return p

    def admissible(a):
        if a.max < 1:
            raise ValueError("--max must be a positive integer")
        if a.max > admissibility.MAX_D:
            raise ValueError(f"--max must be at most {admissibility.MAX_D}")
        if a.verbose and a.max > admissibility.MAX_VERBOSE_D:
            raise ValueError(f"--max must be at most {admissibility.MAX_VERBOSE_D} with --verbose")
        return "admissible", admissible_payload(a.max, a.verbose)

    p = leaf(sub, ("admissible",), admissible, help="enumerate admissible discriminants")
    p.add_argument("--max", type=_integer, required=True, help="upper bound on d")
    p.add_argument("--verbose", action="store_true", help="include per-d reports")

    p = sub.add_parser("lattice", parents=[common], help="lattice catalog and files")
    lsub = p.add_subparsers(dest="lattice_command", required=True)
    q = leaf(
        lsub,
        ("lattice", "info"),
        lambda a: ("lattice info", lattice_info_payload(resolve_lattice(a.source))),
        help="rank, determinant, signature, discriminant group",
    )
    q.add_argument("source", help=source_help)

    p = sub.add_parser("mukai", parents=[common], help="rank-3 lattices and isotropic triples")
    msub = p.add_subparsers(dest="mukai_command", required=True)

    def verify(a):
        return "mukai verify", mukai_verify_payload(resolve_lattice(a.lattice), a.v, a.vp, a.w, a.d)

    q = leaf(msub, ("mukai", "verify"), verify, help="check the four triple conditions")
    q.add_argument("--lattice", required=True, help=source_help)
    q.add_argument("--v", type=_vector, required=True)
    q.add_argument("--vp", type=_vector, required=True)
    q.add_argument("--w", type=_vector, required=True)
    q.add_argument("--d", type=_integer, required=True)

    def search(a):
        if a.bound > mukai.MAX_BOUND:
            raise ValueError(f"--bound must be at most {mukai.MAX_BOUND}")
        return "mukai search", mukai_search_payload(resolve_lattice(a.lattice), a.d, a.bound)

    q = leaf(msub, ("mukai", "search"), search, help="search a coordinate box for a triple")
    q.add_argument("--lattice", required=True, help=source_help)
    q.add_argument("--d", type=_integer, required=True)
    q.add_argument("--bound", type=_integer, default=25)

    leaf(
        msub,
        ("mukai", "gram-lambda"),
        lambda a: ("mukai gram-lambda", lattices._held_entry(mukai_gram_lambda_payload)),
        help="Euler-pairing Gram of (lambda1, lambda2)",
    )

    def normalize(a):
        return "mukai normalize", mukai_normalize_payload(resolve_lattice(a.lattice), a.v, a.vp)

    q = leaf(msub, ("mukai", "normalize"), normalize, help="split off the hyperbolic plane of (v, v')")
    q.add_argument("--lattice", required=True, help=source_help)
    q.add_argument("--v", type=_vector, required=True)
    q.add_argument("--vp", type=_vector, required=True)

    p = leaf(
        sub,
        ("chow",),
        lambda a: ("chow", lattices._held_entry(chow_payload, a.surface)),
        help="surface class relations",
    )
    p.add_argument("--surface", required=True, choices=sorted(chow.SURFACES))

    leaf(
        sub,
        ("scroll-ideal",),
        lambda a: ("scroll-ideal", lattices._held_entry(scroll_ideal_payload)),
        help="minors cutting out the quartic scroll",
    )

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``parse_args(argv)`` of the parser held by ``lattices._held_entry``
    (built on the first call, not at import), parsed by the leaf alone
    where it can be.

    When argv starts with a leaf's command words (two words, or failing
    that one), the rest goes to that leaf's parser, into a namespace that
    holds what the levels above it set.  The upper levels only hand the
    rest down, so the leaf's answer is the tree's, unless it leaves
    arguments over or fails: the tree's answer names the level that
    rejects them, and an upper level can reject an argument the leaf also
    rejects, such as an ambiguous abbreviation.  In those cases, and when
    argv starts otherwise (``--json`` or ``--help`` first, ``mukai``
    alone, an unknown command), the whole tree parses argv.  A leaf's
    help is printed by the leaf parser, as it is under the tree.
    """
    parser = lattices._held_entry(_parser)
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2])
    if words not in parser.leaves:
        words = words[:1]
    if words in parser.leaves:
        leaf, seeds = parser.leaves[words]
        try:
            # a refused argv is reparsed by the tree, which prints the error
            with contextlib.redirect_stderr(io.StringIO()):
                args, extras = leaf.parse_known_args(argv[len(words):], argparse.Namespace(**seeds))
        except SystemExit as e:
            if e.code == 0:  # the leaf printed its help
                raise
        else:
            if not extras:
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None); return its exit code.

    An argv that starts with a leaf's command words is parsed by that
    leaf's parser alone; any other argv, and one the leaf leaves arguments
    over from or refuses, by the whole tree (see ``_parse_args``).
    """
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as e:
            # argparse printed help (0) or a usage error (2)
            code = e.code if isinstance(e.code, int) else USAGE_ERROR
        else:
            emit(*args.run(args), args.json)
            code = 0
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the
        # interpreter's final flush of the buffer cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except LatticeFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, CubiclatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DOMAIN_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
