"""Command-line surface.

One verb per invocation: classify a poset file, build the lattice of
totally disconnected sets or the chainmail of connected elements,
construct chainmails from graphs and friends, run a verification suite,
enumerate structures, search for a connectivity-space representation, or
render a Hasse diagram.  Exit status: 0 success, 1 validation failure,
2 theorem violation, 3 usage error.
"""

import argparse
import json
import sys

from . import sources, verify
from .category import k_chainmail
from .enumeration import FILTERS, EnumerationTask, count_chainmails, \
    emit_catalog
from .errors import ChainmailError, NotAChainmail, NotALattice, \
    TheoremViolation
from .lattice import as_complete_lattice
from .mails import as_chainmail, d_lattice
from .poset import from_json_dict, to_dot, to_json_dict

_STRETCH_FLOOR = 9  # enumeration sizes from here on need --stretch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _load_json(path):
    """Parse a JSON file; bad UTF-8, deep nesting and integers past the
    interpreter's digit limit are malformed JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as e:  # e.object holds the whole file
            head = e.object[:e.start].decode("utf-8")
            raise json.JSONDecodeError("not UTF-8", head, len(head)) from None
        except RecursionError:
            raise json.JSONDecodeError("nesting too deep", "", 0) from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # int() refuses more digits than its limit
            raise json.JSONDecodeError("integer too long", "", 0) from None


def _load_poset(path, budget=None):
    return from_json_dict(_load_json(path), budget=budget)


def _pair_label(p, pair):
    names = sorted((p.label_of(pair[0]), p.label_of(pair[1])))
    return "{" + ",".join(names) + "}"


def _write_or_print(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_check(args):
    try:
        p = _load_poset(args.file, budget=args.budget)
    except ChainmailError as e:
        print(f"poset: no ({e})")
        return 1
    parts = ["poset: yes"]
    try:
        as_complete_lattice(p)
        parts.append("lattice: yes")
    except NotALattice as e:
        parts.append(f"lattice: no (witness {_pair_label(p, e.witness)})")
    except ChainmailError as e:
        parts.append(f"lattice: no ({e})")
    try:
        as_chainmail(p)
        parts.append("chainmail: yes")
    except NotAChainmail as e:
        parts.append(f"chainmail: no (witness {_pair_label(p, e.witness)})")
    print("; ".join(parts))
    return 0


def _cmd_dlattice(args):
    g = as_chainmail(_load_poset(args.file, budget=args.budget))
    d = d_lattice(g)
    print(f"lattice with {len(d.td_sets)} elements")
    if args.out:
        _write_or_print(json.dumps(to_json_dict(d.lattice.poset), indent=2),
                        args.out)
    return 0


def _cmd_klattice(args):
    lat = as_complete_lattice(_load_poset(args.file, budget=args.budget))
    k = k_chainmail(lat)
    names = [lat.poset.label_of(e) for e in k.elements]
    print(f"chainmail with {k.chainmail.n} elements")
    print("connected elements: " + ", ".join(names))
    if args.out:
        _write_or_print(json.dumps(to_json_dict(k.chainmail.poset), indent=2),
                        args.out)
    return 0


_BUILDERS = {
    "graph": (sources.graph_from_json_dict, sources.chainmail_from_graph),
    "hypergraph": (sources.hypergraph_from_json_dict,
                   sources.chainmail_from_hypergraph),
    "topology": (sources.topology_from_json_dict,
                 sources.chainmail_from_topology),
    "connspace": (sources.connectivity_space_from_json_dict,
                  sources.chainmail_from_connectivity_space),
}


def _cmd_build(args):
    parse, build = _BUILDERS[args.kind]
    g = build(parse(_load_json(args.file), budget=args.budget),
              budget=args.budget)
    print(f"chainmail with {g.n} elements")
    if args.out:
        _write_or_print(json.dumps(to_json_dict(g.poset), indent=2), args.out)
    return 0


def _cmd_verify(args):
    if args.max_size is not None and args.max_size < 1:
        return _usage(args, f"--max-size must be at least 1, "
                            f"got {args.max_size}")
    report = verify.run_suite(args.suite, max_size=args.max_size)
    status = "ok" if report.ok() else "FAILED"
    print(f"suite {report.name} [{report.sizes}]: "
          f"{report.checked} checked, {len(report.violations)} violations: "
          f"{status}")
    for v in report.violations:
        print(f"  {v['structure']}: {v['law']}, witness {v['witness']}")
    print(f"suite {report.name}: {report.elapsed_s:.3f} s", file=sys.stderr)
    return 0 if report.ok() else 2


def _cmd_enumerate(args):
    for flag, value in (("-n", args.n), ("--jobs", args.jobs)):
        if value < 1:
            return _usage(args, f"{flag} must be at least 1, got {value}")
    if args.n >= _STRETCH_FLOOR and not args.stretch:
        return _usage(args, f"-n {args.n} needs --stretch (sizes below "
                            f"{_STRETCH_FLOOR} run without it)")
    task = EnumerationTask(args.n, args.filter, jobs=args.jobs)
    if args.catalog:
        entries = emit_catalog(task, args.catalog, budget=args.budget)
        print(f"wrote {len(entries)} diagrams and manifest.jsonl "
              f"to {args.catalog}")
        return 0
    counts = count_chainmails(task, budget=args.budget)
    sizes = sorted(counts)
    print("\t".join(["n"] + [str(s) for s in sizes]))
    print("\t".join(["count"] + [str(counts[s]) for s in sizes]))
    return 0


def _cmd_represent(args):
    if args.max_points < 1:
        return _usage(args, f"--max-points must be at least 1, "
                            f"got {args.max_points}")
    g = as_chainmail(_load_poset(args.file, budget=args.budget))
    space = sources.search_connectivity_representation(g, args.max_points)
    if space is None:
        print(f"absent: no connectivity space on at most "
              f"{args.max_points} points has this chainmail")
    else:
        print(f"found: connectivity space on {space.points} points")
        print(json.dumps(sources.connectivity_space_to_json_dict(space),
                         indent=2))
    return 0


def _cmd_render(args):
    p = _load_poset(args.file, budget=args.budget)
    _write_or_print(to_dot(p), args.out)
    return 0


def _usage(args, message):
    print(f"chainmail {args.verb}: error: {message}", file=sys.stderr)
    return 3


def _add_budget(sub):
    sub.add_argument("--budget", type=int, default=None,
                     help="override the size cap for this invocation")


def _build_parser():
    parser = _Parser(prog="chainmail",
                     description="finite chainmails, connectivity lattices "
                                 "and the correspondence between them")
    subs = parser.add_subparsers(dest="verb", required=True,
                                 parser_class=_Parser)

    sub = subs.add_parser("check", help="classify a poset file")
    sub.add_argument("file", help="poset JSON")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = subs.add_parser("dlattice",
                          help="lattice of totally disconnected sets")
    sub.add_argument("file", help="chainmail (poset JSON)")
    sub.add_argument("-o", "--out", default=None, help="write poset JSON")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_dlattice)

    sub = subs.add_parser("klattice",
                          help="chainmail of connected elements")
    sub.add_argument("file", help="complete lattice (poset JSON)")
    sub.add_argument("-o", "--out", default=None, help="write poset JSON")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_klattice)

    sub = subs.add_parser("build",
                          help="chainmail of connected subsets of a source")
    sub.add_argument("kind", choices=sorted(_BUILDERS))
    sub.add_argument("file", help="source JSON")
    sub.add_argument("-o", "--out", default=None, help="write poset JSON")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_build)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    sub.add_argument("--max-size", type=int, default=None,
                     help="population size bound (suite default otherwise)")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("enumerate",
                          help="isomorph-free counts or a diagram catalog")
    sub.add_argument("-n", type=int, required=True, help="largest size")
    sub.add_argument("--filter", choices=FILTERS,
                     default="mail-connected-chainmails")
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--catalog", default=None, metavar="DIR",
                     help="write DOT files and a manifest instead of counts")
    sub.add_argument("--stretch", action="store_true",
                     help=f"allow sizes {_STRETCH_FLOOR} and up (slow)")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_enumerate)

    sub = subs.add_parser("represent",
                          help="search for a connectivity space realizing "
                               "a chainmail")
    sub.add_argument("file", help="chainmail (poset JSON)")
    sub.add_argument("--max-points", type=int, required=True)
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_represent)

    sub = subs.add_parser("render", help="Hasse diagram as DOT")
    sub.add_argument("file", help="poset JSON")
    sub.add_argument("-o", "--out", default=None,
                     help="output path (stdout otherwise)")
    _add_budget(sub)
    sub.set_defaults(handler=_cmd_render)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "budget", None)
    if budget is not None and budget < 0:
        return _usage(args, f"--budget must be at least 0, got {budget}")
    try:
        return args.handler(args)
    except TheoremViolation as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 2
    except ChainmailError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
