"""Command-line surface.

Subcommands: pieces, closure, poset, classify, sigma, abstract,
nonconnected, isogeny, verify.  Words on the command line use
comma-separated 1-based indices with "e" for the identity; data can also
be given as JSON documents via --datum.  Output ordering is ShortLex
throughout, so identical inputs produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 malformed input or a
request beyond a size bound (enumeration, poset).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .coxeter import build_group
from .errors import MalformedInput, WeylZipError
from .serialize import (
    cycles_str,
    extended_str,
    parse_psi,
    parse_subset,
    parse_word,
    subset_str,
    word_str,
)
from .zipdata import ZipDatum


def _read_datum_doc(path: str) -> dict:
    """The JSON document at `path` ('-' for stdin); MalformedInput naming
    the path when it cannot be read as UTF-8 text."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MalformedInput(f"cannot read the datum document {path!r}: {reason}") from None
    return serialize.load_json(text)


def _zip_datum_from_args(args) -> tuple[ZipDatum, int]:
    if args.datum:
        return serialize.zip_datum_from_json(_read_datum_doc(args.datum))
    if not args.type:
        raise MalformedInput("either --datum or --type is required")
    group = build_group(args.type)
    psi = parse_psi(args.psi or "")
    I = parse_subset(args.I) if args.I is not None else frozenset(psi)
    J = parse_subset(args.J) if args.J is not None else frozenset(psi.values())
    central_rank = serialize.parse_nonnegative(args.central_rank, "--central-rank")
    return ZipDatum(group, I, J, psi), central_rank


def _add_datum_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--datum", help="JSON datum document (path or '-' for stdin)")
    sub.add_argument("--type", help="Cartan type label, e.g. A2 or A1xA1")
    sub.add_argument("--I", help="comma-separated simple indices, e.g. 1,2")
    sub.add_argument("--J", help="defaults to the psi image")
    sub.add_argument("--psi", help="mapping like 1:2,2:1")
    sub.add_argument("--central-rank", type=int, default=0, dest="central_rank")


def _pieces_lines(z: ZipDatum, central_rank: int, fmt: str) -> list[str]:
    rows = z.pieces(central_rank=central_rank)
    if fmt == "jsonl":
        return [
            json.dumps(
                {
                    "word": word_str(p.rep),
                    "length": p.length,
                    "dim": p.dimension,
                    "inf_stab_dim": p.inf_stab_dim,
                    "K": sorted(p.stable_subset),
                    "sigma": word_str(p.dual_rep),
                }
            )
            for p in rows
        ]
    header = f"{'word':>12}  {'l':>3} {'dim':>5} {'infstab':>7}  K"
    lines = [header]
    for p in rows:
        lines.append(
            f"{word_str(p.rep):>12}  {p.length:>3} {p.dimension:>5} "
            f"{p.inf_stab_dim:>7}  {subset_str(p.stable_subset)}"
        )
    return lines


def cmd_pieces(args) -> int:
    z, central_rank = _zip_datum_from_args(args)
    for line in _pieces_lines(z, central_rank, args.format):
        print(line)
    return 0


def cmd_closure(args) -> int:
    z, _ = _zip_datum_from_args(args)
    w = parse_word(z.group, args.w)
    for v in z.closure_set(w, args.side):
        print(word_str(v))
    return 0


def cmd_poset(args) -> int:
    z, central_rank = _zip_datum_from_args(args)
    poset = z.hasse_poset(side=args.side, central_rank=central_rank)
    if args.format == "dot":
        sys.stdout.write(poset.to_dot())
    else:
        print(poset.to_json())
    return 0


def cmd_classify(args) -> int:
    z, _ = _zip_datum_from_args(args)
    w = parse_word(z.group, args.w)
    rep = z.canonical_rep(w)
    print(f"piece {word_str(rep)}")
    print(f"sigma {word_str(z.sigma(rep))}")
    return 0


def cmd_sigma(args) -> int:
    z, _ = _zip_datum_from_args(args)
    w = parse_word(z.group, args.w)
    if args.inverse:
        print(word_str(z.sigma_inverse(w)))
    else:
        print(word_str(z.sigma(w)))
    return 0


def cmd_abstract(args) -> int:
    a = serialize.abstract_datum_from_json(_read_datum_doc(args.datum))
    classes = a.equivalence_classes()
    print(
        f"order {a.group.order}  delta {len(a.delta)}  "
        f"classes {len(classes)}  injective {a.psi_injective}"
    )
    for c in classes:
        members = sorted(c)
        rep = members[0]
        e_size = len(a.stable_subgroup(rep))
        shown = " ".join(cycles_str(p) for p in members)
        print(f"class size={len(c)} E={e_size}: {shown}")
    return 0


def cmd_nonconnected(args) -> int:
    ext = serialize.extended_datum_from_json(_read_datum_doc(args.datum))
    orbits = ext.pieces(args.side)
    print(f"omega {len(ext.omega)}  omega_I {len(ext.omega_I)}  pieces {len(orbits)}")
    for orb in orbits:
        print("orbit " + " ".join(extended_str(e) for e in orb))
    if args.closure_of:
        group = ext.group
        word, _, omega_text = args.closure_of.partition("|")
        if omega_text:
            try:
                images = json.loads(f"[{omega_text}]")
            except json.JSONDecodeError as exc:
                raise MalformedInput(f"cannot parse omega part {omega_text!r}") from exc
            omega = serialize.parse_automorphism(group, images)
        else:
            omega = group.identity_automorphism()
        what = ext.extended(parse_word(group, word), omega)
        for e in ext.closure_set(what, args.side):
            print("closure " + extended_str(e))
    return 0


def cmd_isogeny(args) -> int:
    iso, central_rank = serialize.isogeny_datum_from_json(_read_datum_doc(args.datum))
    z = iso.zip
    print(
        f"built I={subset_str(z.I)} J={subset_str(z.J)} "
        f"psi={','.join(f'{a}:{b}' for a, b in sorted(z.psi.items()))} "
        f"x={word_str(iso.x)}"
    )
    if iso.frobenius_mode:
        from .isogeny import frobenius_report

        sys.stdout.write(frobenius_report(iso, central_rank).render_text())
        return 0
    for line in _pieces_lines(z, central_rank, args.format):
        print(line)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_verify(args.level)
    ok = True
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4} {r.name} ({r.elapsed:.2f}s)")
        for f in r.failures[:10]:
            print(f"     {f}")
        ok = ok and r.ok
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def _pieces_parser(p: argparse.ArgumentParser) -> None:
    _add_datum_options(p)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.set_defaults(fn=cmd_pieces)


def _closure_parser(p: argparse.ArgumentParser) -> None:
    _add_datum_options(p)
    p.add_argument("--w", required=True)
    p.add_argument("--side", choices=("iw", "wj"), default="iw")
    p.set_defaults(fn=cmd_closure)


def _poset_parser(p: argparse.ArgumentParser) -> None:
    _add_datum_options(p)
    p.add_argument("--side", choices=("iw", "wj"), default="iw")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=cmd_poset)


def _classify_parser(p: argparse.ArgumentParser) -> None:
    _add_datum_options(p)
    p.add_argument("--w", required=True)
    p.set_defaults(fn=cmd_classify)


def _sigma_parser(p: argparse.ArgumentParser) -> None:
    _add_datum_options(p)
    p.add_argument("--w", required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=cmd_sigma)


def _abstract_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datum", required=True)
    p.set_defaults(fn=cmd_abstract)


def _nonconnected_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datum", required=True)
    p.add_argument("--side", choices=("iw", "wj"), default="iw")
    p.add_argument("--closure-of", dest="closure_of")
    p.set_defaults(fn=cmd_nonconnected)


def _isogeny_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datum", required=True)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.set_defaults(fn=cmd_isogeny)


def _verify_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_verify)


#: name -> (help, the function adding its options and handler to its parser)
SUBCOMMANDS = {
    "pieces": ("list pieces with lengths, dimensions, K", _pieces_parser),
    "closure": ("closure set of one piece", _closure_parser),
    "poset": ("full Hasse diagram", _poset_parser),
    "classify": ("canonical representative and sigma image", _classify_parser),
    "sigma": ("the dual parameter of a piece", _sigma_parser),
    "abstract": ("classes of an abstract zip datum", _abstract_parser),
    "nonconnected": ("extended pieces and closures", _nonconnected_parser),
    "isogeny": ("build a datum from isogeny data", _isogeny_parser),
    "verify": ("run the invariant suites", _verify_parser),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylzip",
        description="Weyl-group combinatorics of algebraic zip data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add) in SUBCOMMANDS.items():
        add(sub.add_parser(name, help=help_))
    return parser


class _ParseFailed(Exception):
    pass


class _QuietParser(argparse.ArgumentParser):
    """A parser whose errors are raised, not printed, so that the full
    parser can report them with its own usage line."""

    def error(self, message):
        raise _ParseFailed(message)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse with the parser of the subcommand named first alone, whose help
    is the same as in the full parser.  Usage errors and an unknown or
    missing subcommand go through the full parser, so that their usage line
    lists every subcommand."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        parser = _QuietParser(prog=f"weylzip {argv[0]}")
        SUBCOMMANDS[argv[0]][1](parser)
        try:
            return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        except _ParseFailed:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except WeylZipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
