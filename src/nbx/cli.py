"""Command-line interface.

Subcommands: construct, verify, bounds, table, search, mkd, convert,
audit, reduce.  Families travel as ".nbx" text (one string per line, '#'
comments, blank lines ignored) on files or stdin/stdout; structured
results are JSON, tables default to TSV when piped and an aligned layout
on a terminal.

Exit status: 0 on success, 1 when `verify` finds violations, 2 on usage
errors, 141 (128 + SIGPIPE) when stdout is closed before the output ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain

from . import biclique, bounds, constructions, families, search


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_family(path: str) -> families.Family:
    return families.Family.from_nbx(_read_text(path))


_BUDGET = 1 << 16  # bytes of text per write; a longer piece goes alone


def _write(pieces) -> None:
    """Write the text pieces to stdout, joined in C, once the pending text
    reaches ``_BUDGET`` bytes: a write holds less than ``_BUDGET`` bytes
    plus one piece, the output is never held whole, and no write is empty."""
    pending, size = [], 0
    for piece in pieces:
        pending.append(piece)
        size += len(piece)
        if size >= _BUDGET:
            sys.stdout.write("".join(pending))
            pending, size = [], 0
    if size:
        sys.stdout.write("".join(pending))


def _json_list(data: dict, items) -> Iterator[str]:
    """The pieces of ``json.dump(data, indent=2)`` and a newline, where the
    last field of ``data`` is ``[]`` standing for a list whose items are
    ``items``: texts already rendered as json.dump puts them, at indent 4."""
    head = json.dumps(data, indent=2)[:-4]  # cut '[]\n}' after the last key
    sep = head + "[\n"
    for item in items:
        yield sep
        yield item
        sep = ",\n"
    yield "\n  ]\n}\n" if sep == ",\n" else head + "[]\n}\n"


def _emit_family(fam: families.Family) -> None:
    """``sys.stdout.write(fam.to_nbx())``, one piece per member."""
    _write(f"{m}\n" for m in fam)


def _emit_json(data) -> None:
    """``json.dump(data, sys.stdout, indent=2)`` and a newline."""
    _write(chain(json.JSONEncoder(indent=2).iterencode(data), ("\n",)))


def _emit_report(report: families.NeighborlinessReport) -> None:
    """``_emit_json(report.as_dict())``, one piece per violating row.
    json.dump puts each number of a triple on its own line, so a row's text
    is a lead for i and then, per triple, a column text and a distance text
    looked up in tables and joined in C."""

    def rows():  # not called for a valid report, which builds no tables
        col_text = ["%d,\n      " % j for j in range(report.violations._n)]
        dist_text = ["%d\n    ]" % x for x in range(report.max_distance + 1)]
        for i, js, dists in report.violations._expand():
            lead = "    [\n      %d,\n      " % i
            between = [text + ",\n" + lead for text in dist_text]  # ends a triple, opens the next
            parts = [""] * (2 * len(js))
            parts[0::2] = map(col_text.__getitem__, js)
            parts[1::2] = map(between.__getitem__, dists)
            parts[-1] = dist_text[dists[-1]]
            yield lead + "".join(parts)

    empty = type(report)(report.is_valid, report.min_distance, report.max_distance, ())
    _write(_json_list(empty.as_dict(), () if report.is_valid else rows()))


def _emit_families(k: int, d: int, strings, found) -> None:
    """``_emit_json`` of the ``--enumerate`` payload for the families
    ``found`` (tuples of indices into ``strings``), one piece per family.
    json.dump puts each member on its own line, so a family's text is its
    members' texts, looked up in a table and joined in C."""
    payload = {"k": k, "d": d, "size": len(found[0]), "count": len(found), "families": []}
    text = ['      "%s"' % w for w in strings]
    fams = ("    [\n%s\n    ]" % ",\n".join(map(text.__getitem__, idxs)) for idxs in found)
    _write(_json_list(payload, fams))


def _emit_cover(fam: families.Family) -> None:
    """``_emit_json(biclique.family_to_cover(fam).as_dict())``, written from
    the family's coordinate bit-sets, one piece per biclique: json.dump puts
    each vertex on its own line, so a side's text is its vertices' texts,
    selected from a table by the side's bits and joined in C.  No cover
    record, vertex set or encoder is built."""
    columns = biclique._columns(fam)  # fewer than 2 members fails before any output
    text = ["        %d" % v for v in range(len(fam))]

    def side(mask: int) -> str:
        return "[\n" + ",\n".join(families._at_bits(mask, text)) + "\n      ]" if mask else "[]"

    bicliques = ('    {\n      "L": %s,\n      "R": %s\n    }' % (side(left), side(right))
                 for left, right in columns)
    _write(_json_list({"n": len(fam), "bicliques": []}, bicliques))


def _rows_out(rows: list[list[str]], header: list[str], fmt: str) -> None:
    rows = [header, *rows]
    if fmt == "tsv":
        _write("\t".join(row) + "\n" for row in rows)
        return
    widths = [max(map(len, column)) for column in zip(*rows)]
    _write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows)


def _emit_table(args, records, header: list[str], row) -> None:
    """Write records as --json (each one's ``as_dict()``), as --tsv, or, with
    neither, as TSV when piped and aligned on a terminal; each table row is
    ``row(record)``.  A single record, not in a list, is written as one dict."""
    many = isinstance(records, list)
    if args.json:
        _emit_json([r.as_dict() for r in records] if many else records.as_dict())
        return
    fmt = "tsv" if args.tsv or not sys.stdout.isatty() else "human"
    _rows_out([row(r) for r in (records if many else [records])], header, fmt)


def _block_lengths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbx", description="Neighborly families of boxes: construct, verify, bound, solve."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table_out = argparse.ArgumentParser(add_help=False)  # output format of bounds, table, audit
    table_out.add_argument("--json", action="store_true")
    table_out.add_argument("--tsv", action="store_true")
    cell = argparse.ArgumentParser(add_help=False)  # the (k, d) of construct, bounds, search, mkd
    cell.add_argument("k", type=int)
    cell.add_argument("d", type=int)
    grid = argparse.ArgumentParser(add_help=False)  # the (k, d) range of table, audit
    grid.add_argument("--kmax", type=int, default=8)
    grid.add_argument("--dmax", type=int, default=8)

    con = sub.add_parser("construct", help="emit a constructed family as .nbx")
    con.set_defaults(handler=_cmd_construct)
    consub = con.add_subparsers(dest="kind", required=True)
    p = consub.add_parser("canonical", help="chain family of size d+1")
    p.add_argument("d", type=int)
    p.set_defaults(build=lambda a: constructions.canonical(a.d))
    p = consub.add_parser("ball", help="Hamming ball family for (k, d)", parents=[cell])
    p.set_defaults(build=lambda a: constructions.ball_family(a.k, a.d))
    p = consub.add_parser("extremal", help="maximum (d-1)-neighborly family")
    p.add_argument("d", type=int)
    p.set_defaults(build=lambda a: constructions.extremal_dminus1(a.d))
    p = consub.add_parser("mbar", help="best fragmented-product family for (k, d)", parents=[cell])
    p.set_defaults(build=lambda a: constructions.realize_mbar(a.k, a.d))
    p = consub.add_parser("fragmented", help="fragmented construction for a block plan",
                          parents=[cell])
    p.add_argument("--a", type=_block_lengths,
                   help="comma-separated block lengths, one per block (default: optimal plan)")
    p.set_defaults(build=lambda a: constructions.fragmented(constructions.m_value(a.k, a.d).plan
                   if a.a is None else constructions.FragmentPlan(a.k, a.d, len(a.a), a.a)))
    p = consub.add_parser("product", help="concatenation product of two .nbx files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(build=lambda a: constructions.product(*map(_load_family, (a.left, a.right))))

    p = sub.add_parser("verify", help="check a family for k-neighborliness")
    p.add_argument("file", help=".nbx file or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bounds", help="best lower/upper bounds for one (k, d)",
                       parents=[table_out, cell])
    p.set_defaults(handler=_cmd_bounds)
    p = sub.add_parser("table", help="bounds grid over 1 <= k <= min(d, kmax), d <= dmax",
                       parents=[table_out, grid])
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("search", help="exact maximum family search", parents=[cell])
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--no-symmetry", action="store_true", help="plain walk: no orbital branching")
    p.add_argument("--enumerate", dest="enumerate_all", action="store_true",
                   help="list every maximum family")
    p.add_argument("--force", action="store_true", help="lift the candidate and enumeration caps")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("mkd", help="fragmented-construction optimum m(k, d)", parents=[cell])
    p.add_argument("--mbar", action="store_true", help="optimize over splits of (k, d)")
    p.set_defaults(handler=_cmd_mkd)

    p = sub.add_parser("convert", help="convert between .nbx and biclique-cover JSON")
    p.set_defaults(handler=_cmd_convert)
    convsub = p.add_subparsers(dest="direction", required=True)
    q = convsub.add_parser("to-cover", help=".nbx family to biclique-cover JSON")
    q.add_argument("file", help=".nbx file or - for stdin")
    q = convsub.add_parser("to-family", help="biclique-cover JSON to .nbx family")
    q.add_argument("file", help="cover JSON file or - for stdin")

    p = sub.add_parser("audit", help="triangle-inequality audit of the bounds grid",
                       parents=[table_out, grid])
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("reduce", help="twin-merge a partition down to the all-joker string")
    p.add_argument("file", help=".nbx file or - for stdin")
    p.set_defaults(handler=_cmd_reduce)

    return parser


def _cmd_construct(args) -> int:
    _emit_family(args.build(args))
    return 0


def _cmd_verify(args) -> int:
    fam = _load_family(args.file)
    report = families.verify_neighborly(fam, args.k)
    _emit_report(report)
    return 0 if report.is_valid else 1


def _entry_row(entry: bounds.BoundsEntry) -> list[str]:
    return [
        str(entry.k),
        str(entry.d),
        str(entry.lower.value),
        entry.lower.method,
        str(entry.upper.value),
        entry.upper.method,
        "yes" if entry.exact else "no",
    ]


_TABLE_HEADER = ["k", "d", "lower", "lower_method", "upper", "upper_method", "exact"]


def _finding_row(f: bounds.PascalFinding) -> list[str]:
    return [str(f.k), str(f.d), str(f.lhs), str(f.rhs), str(f.slack),
            "yes" if f.violated else "no"]


_AUDIT_HEADER = ["k", "d", "lhs", "rhs", "slack", "violated"]


def _cmd_bounds(args) -> int:
    _emit_table(args, bounds.best_bounds(args.k, args.d), _TABLE_HEADER, _entry_row)
    return 0


def _cmd_table(args) -> int:
    _emit_table(args, bounds.bounds_table(args.kmax, args.dmax), _TABLE_HEADER, _entry_row)
    return 0


def _cmd_search(args) -> int:
    cfg = search.SearchConfig(
        budget_nodes=args.budget_nodes,
        budget_secs=args.budget_secs,
        symmetry=not args.no_symmetry,
        capped=not args.force,
    )
    if args.enumerate_all:
        strings, found = search._enumerate_indices(args.k, args.d, cfg)
        _emit_families(args.k, args.d, strings, found)
        return 0
    result = search.max_family(args.k, args.d, cfg)
    _emit_json(result.as_dict())
    return 0


def _cmd_mkd(args) -> int:
    value = constructions.mbar_value if args.mbar else constructions.m_value
    _emit_json(value(args.k, args.d).as_dict())
    return 0


def _cmd_convert(args) -> int:
    if args.direction == "to-cover":
        _emit_cover(_load_family(args.file))
    else:
        # cover_to_family without the record; the parsed vertex lists are
        # dropped once their bit-sets are made
        sides = biclique._side_bits(*biclique._cover_fields(json.loads(_read_text(args.file))))
        _emit_family(biclique._family_of(*sides))
    return 0


def _cmd_audit(args) -> int:
    findings = bounds.pascal_audit(bounds.bounds_table(args.kmax, args.dmax))
    _emit_table(args, findings, _AUDIT_HEADER, _finding_row)
    violated = sum(1 for f in findings if f.violated)
    if violated:
        print(f"{violated} violation(s) found", file=sys.stderr)
    return 0


def _cmd_reduce(args) -> int:
    trace = families.reduce_to_trivial(_load_family(args.file))
    _write(piece for step, f in enumerate(trace)
           for piece in chain((f"# step {step} size {len(f)}\n",), (f"{m}\n" for m in f)))
    return 0


def run(argv: list[str] | None = None) -> int:
    """Parse and execute one command; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # a closed stdout is not a usage error: main ends quietly
    except search.CapacityExceeded as exc:
        print(f"error: {exc} (use --force to override)", file=sys.stderr)
        return 2
    except (search.EnumerationIncomplete, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: exit quietly, as SIGPIPE would
        # what is still buffered goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
