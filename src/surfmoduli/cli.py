"""Command-line entry point.

Subcommand tree::

    group     info
    triangles enumerate
    beauville search | scan
    isogenous invariants
    abc       invariants | diffeo | nondef | classify
    hyperell  branch | iso
    braid     equal | product | orbit

Exit codes: 0 success, 1 domain error (one-line diagnostic on stderr),
2 usage error.  ``--json`` switches from the human table to a single JSON
document with a fixed field order; integers are never emitted as floats
and rationals are emitted as strings like ``"-3/2"``.  Progress for long
searches goes to stderr only.  Braid words and factorizations are read as
JSON lists of nonzero integers and lists of such lists.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import beauville as bv
from . import catalog
from . import triangles as tr
from .errors import SurfModuliError


def _emit(doc, args, rows=None):
    """Write a JSON document or its human rendering to stdout/--out."""
    if args.json:
        text = json.dumps(doc, separators=(",", ":"))
    elif rows is None:
        text = "\n".join(f"{k}: {_human(v)}" for k, v in doc.items())
    else:
        text = "\n".join(rows)
    _write(text, args.out)


def _json_records(records):
    """Each record's compact JSON text.  A key or value that records share
    (``bv._records`` shares each triple's and each genus pair's dict) is
    encoded once: texts are kept by id, the object held so that its id
    stays its own."""
    texts = {}
    for record in records:
        for x in (*record, *record.values()):
            if id(x) not in texts:
                texts[id(x)] = x, json.dumps(x, separators=(",", ":"))
        fields = (f"{texts[id(k)][1]}:{texts[id(v)][1]}" for k, v in record.items())
        yield "{" + ",".join(fields) + "}"


def _write(text, out):
    """Print ``text`` to stdout, or write it to the file ``out``."""
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise SurfModuliError(f"cannot write --out {out}: {exc.strerror}") from None


def _human(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_human(x)}" for k, x in v.items()) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(_human(x) for x in v) + "]"
    return str(v)


def _parse(flag, text, kind, what):
    """``kind(text)``, or a one-line domain error naming ``flag``."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise SurfModuliError(f"{flag}: {text!r} is not {what}") from None


# ---------------------------------------------------------------- group


def cmd_group_info(args):
    G = catalog.resolve(args.group)
    doc = {
        "group": G.name or args.group,
        "degree": G.degree,
        "order": G.order,
        "abelian": G.is_abelian,
        "simple": G.is_simple() if G.order >= 2 else False,
        "classes": len(G._class_sizes),
        "class_sizes": sorted(G._class_sizes),
    }
    _emit(doc, args)
    return 0


# ------------------------------------------------------------ triangles


def cmd_triangles_enumerate(args):
    G = catalog.resolve(args.group)
    ttype = None
    if args.type:
        parts = [_parse("--type", v, int, "an integer") for v in args.type.split(",")]
        if len(parts) != 3:
            raise SurfModuliError("--type expects three comma-separated orders")
        ttype = tr.TripleType(*parts)
    triples = tr.enumerate_triples(
        G, triple_type=ttype, hyperbolic_only=args.hyperbolic_only
    )
    if args.mod_branch_permutation:
        # each orbit, named by its least index tuple, keeps the first triple met
        orbits = {}
        for t in triples:
            orbits.setdefault(min(tr._branch_reorderings(t)), t)
        triples = list(orbits.values())
    doc = {
        "group": G.name or args.group,
        "order": G.order,
        "count": len(triples),
        "triples": [t.as_dict() for t in triples],
    }
    rows = [f"group: {doc['group']}", f"order: {G.order}", f"count: {len(triples)}"]
    rows += [
        f"  a={t['a']} b={t['b']} c={t['c']} type={t['type']} genus={t['genus']}"
        for t in doc["triples"]
    ]
    _emit(doc, args, rows)
    return 0


# ------------------------------------------------------------ beauville


def _structure_row(d):
    return (
        f"  t1={d['t1']['type']} genus {d['t1']['genus']}"
        f" / t2={d['t2']['type']} genus {d['t2']['genus']}"
        f" chi={d['invariants']['chi']}"
        f" unmarked_equal={_human(d['triples_unmarked_equivalent'])}"
    )


def cmd_beauville_search(args):
    G = catalog.resolve(args.group)
    print(f"searching {G.name or args.group} (order {G.order})", file=sys.stderr)
    # only --structures lists the structures; the verdict and count need no triple
    if args.structures:
        results = bv.search(G, stop_at_first=args.first)
        found = len(results)
    else:
        found = bv.count_structures(G, stop_at_first=args.first)
    doc = {
        "group": G.name or args.group,
        "order": G.order,
        "beauville": found > 0,
        "structures_found": found,
    }
    if not args.structures:
        _emit(doc, args)
        return 0
    # each structure is rendered once, straight into the format asked for,
    # so no document holds every structure's record at once
    if args.json:
        head = json.dumps(doc, separators=(",", ":"))[:-1]
        text = head + ',"structures":[' + ",".join(_json_records(bv._records(results))) + "]}"
    else:
        rows = [f"{k}: {_human(v)}" for k, v in doc.items()]
        text = "\n".join(rows + list(map(_structure_row, bv._records(results))))
    _write(text, args.out)
    return 0


def cmd_beauville_scan(args):
    # references resolve one at a time, so each group is freed once scanned
    groups = map(catalog.resolve, args.groups)
    def progress(row):
        print(
            f"scanned {row.group}: beauville={row.beauville}"
            f" ({row.elapsed_ms} ms)",
            file=sys.stderr,
        )
    rows = bv.scan(groups, stop_at_first=not args.all, progress=progress)
    doc = [r.as_dict() for r in rows]
    if args.csv:
        header = "group,order,beauville,structures_found,elapsed_ms"
        lines = [header] + [
            f"{r.group},{r.order},{str(r.beauville).lower()},"
            f"{r.structures_found},{r.elapsed_ms}"
            for r in rows
        ]
        _write("\n".join(lines), args.out)
        return 0
    human = [
        f"{r.group:>14}  order {r.order:>5}  beauville {_human(r.beauville):>3}"
        f"  found {r.structures_found}  {r.elapsed_ms} ms"
        + (f"  error: {r.error}" if r.error else "")
        for r in rows
    ]
    _emit(doc, args, human)
    return 0


# ------------------------------------------------------------ isogenous


def cmd_isogenous_invariants(args):
    inv = bv.isogenous_invariants(args.g1, args.g2, args.order)
    doc = {"g1": args.g1, "g2": args.g2, "group_order": args.order}
    doc.update(inv.as_dict())
    _emit(doc, args)
    return 0


# ------------------------------------------------------------------ abc


def cmd_abc_invariants(args):
    from . import bidouble as bd

    if args.d is None:
        t = bd.AbcType(args.a, args.b, args.c)
        inv, doc = bd.abc_invariants(t), {**t.as_dict(), "d": args.b}
    else:
        t = bd.BidoubleType(args.a, args.b, args.c, args.d)
        inv, doc = bd.bidouble_invariants(t), t.as_dict()
    doc.update(inv.as_dict())
    _emit(doc, args)
    return 0


def cmd_abc_diffeo(args):
    from . import bidouble as bd

    s = bd.AbcType(args.a, args.b, args.c)
    s2 = bd.AbcType(args.a2, args.b2, args.c2)
    chain = bd.diffeo_equivalent(s, s2)
    doc = {
        "from": [s.a, s.b, s.c],
        "to": [s2.a, s2.b, s2.c],
        "equivalent": chain is not None,
        "chain": [[t.a, t.b, t.c] for t in chain] if chain else [],
    }
    _emit(doc, args)
    return 0


def cmd_abc_nondef(args):
    from . import bidouble as bd

    report = bd.nondef_predicate(args.a, args.b, args.c, args.k)
    doc = report.as_dict()
    rows = [f"a: {args.a}", f"b: {args.b}", f"c: {args.c}", f"k: {args.k}"]
    for name, ok in report.conditions.items():
        status = "ok" if ok else "FAIL"
        rows.append(f"({name}) {bd.NondefReport.condition_text(name)}: {status}")
    rows.append(f"verdict: {_human(report.verdict)}")
    _emit(doc, args, rows)
    return 0


def cmd_abc_classify(args):
    from . import bidouble as bd

    result = bd.enumerate_types(
        args.chi, args.ksq, args.bound, paper_convention=args.paper_ksq
    )
    _emit(result.as_dict(), args)
    return 0


# ------------------------------------------------------------- hyperell


def cmd_hyperell_branch(args):
    from fractions import Fraction

    from . import moebius as mb

    param = _parse("--param", args.param, Fraction, "a rational")
    branch = mb.family_branch_set(args.genus, param)
    doc = {
        "genus": args.genus,
        "param": str(param),
        "size": len(branch),
        "points": [repr(p) for p in branch.sorted_points()],
    }
    _emit(doc, args)
    return 0


def _parse_branch_set(flag: str, text: str):
    from . import moebius as mb

    parse, what = mb.ProjPoint.parse, "a rational or inf"
    return mb.BranchSet([_parse(flag, tok, parse, what) for tok in text.split(",")])


def cmd_hyperell_iso(args):
    from . import moebius as mb

    b1 = _parse_branch_set("--set1", args.set1)
    b2 = _parse_branch_set("--set2", args.set2)
    m = mb.moebius_equivalent(b1, b2)
    doc = {
        "equivalent": m is not None,
        "map": [[str(x) for x in row] for row in m.matrix()] if m else None,
    }
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------- braid


def _read_ints(name: str, text: str, nested: bool = False):
    """A JSON list of integers, or with ``nested`` a list of such lists."""
    try:
        value = json.loads(text)
    except ValueError:
        value = None
    words = value if nested else [value]
    if not isinstance(words, list) or not all(
        isinstance(w, list) and all(type(x) is int for x in w) for w in words
    ):
        kind = "lists of integers" if nested else "integers"
        raise SurfModuliError(f"{name} must be a JSON list of {kind}, got {text!r}")
    return value


def cmd_braid_equal(args):
    from . import braids as br

    w1 = br.BraidWord.from_ints(args.strands, _read_ints("w1", args.w1))
    w2 = br.BraidWord.from_ints(args.strands, _read_ints("w2", args.w2))
    doc = {
        "strands": args.strands,
        "w1": w1.to_ints(),
        "w2": w2.to_ints(),
        "equal": br.braid_equal(w1, w2),
    }
    _emit(doc, args)
    return 0


def _read_factors(args):
    from . import braids as br

    factors = _read_ints("factors", args.factors, nested=True)
    return br.Factorization.from_ints(args.strands, factors)


def cmd_braid_product(args):
    from . import braids as br

    f = _read_factors(args)
    doc = {
        "strands": args.strands,
        "factors": f.to_ints(),
        "product": br.product(f).to_ints(),
    }
    _emit(doc, args)
    return 0


def cmd_braid_orbit(args):
    from . import braids as br

    f = _read_factors(args)
    orbit = br.hurwitz_orbit(f, budget=args.budget)
    doc = {
        "strands": args.strands,
        "factors": f.to_ints(),
        "budget": args.budget,
        "orbit_size": len(orbit),
        "exhausted": orbit.exhausted,
    }
    _emit(doc, args)
    return 0


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    # output flags live on every leaf so they can be given after the
    # subcommand, e.g. `beauville search --group A5 --json`
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="surfmoduli",
        description="exact searches and invariants for triangle curves, "
        "Beauville structures, bidouble covers, branch sets and braids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="group utilities").add_subparsers(
        dest="sub", required=True
    )
    p = g.add_parser("info", help="order, classes, simplicity", parents=[common])
    p.add_argument("--group", required=True, help="builtin name or file path")
    p.set_defaults(func=cmd_group_info)

    t = sub.add_parser("triangles", help="generating triples").add_subparsers(
        dest="sub", required=True
    )
    p = t.add_parser("enumerate", help="list generating triples", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--type", help="filter by orders, e.g. 5,5,5")
    p.add_argument("--hyperbolic-only", action="store_true")
    p.add_argument(
        "--mod-branch-permutation",
        action="store_true",
        help="deduplicate triples that differ by reordering the branch points",
    )
    p.set_defaults(func=cmd_triangles_enumerate)

    b = sub.add_parser("beauville", help="Beauville structures").add_subparsers(
        dest="sub", required=True
    )
    p = b.add_parser("search", help="search one group", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--first", action="store_true",
                   help="stop at the first structure")
    p.add_argument("--structures", action="store_true",
                   help="include the structures in the output")
    p.set_defaults(func=cmd_beauville_search)
    p = b.add_parser("scan", help="scan a family of groups", parents=[common])
    p.add_argument("--groups", nargs="+", required=True, metavar="NAME")
    p.add_argument("--all", action="store_true",
                   help="count all structures instead of stopping at the first")
    p.add_argument("--csv", action="store_true", help="CSV instead of table/JSON")
    p.set_defaults(func=cmd_beauville_scan)

    iso = sub.add_parser("isogenous", help="free quotients of curve products")
    isub = iso.add_subparsers(dest="sub", required=True)
    p = isub.add_parser("invariants", help="chi, K^2, e, tau", parents=[common])
    p.add_argument("g1", type=int)
    p.add_argument("g2", type=int)
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_isogenous_invariants)

    abc = sub.add_parser("abc", help="bidouble and simple-type covers")
    asub = abc.add_subparsers(dest="sub", required=True)
    p = asub.add_parser("invariants", help="chi and both K^2 conventions",
                        parents=[common])
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("d", type=int, nargs="?", default=None)
    p.set_defaults(func=cmd_abc_invariants)
    p = asub.add_parser("diffeo", help="connect two abc types by steps",
                        parents=[common])
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("b2", type=int)
    p.add_argument("c2", type=int)
    p.set_defaults(func=cmd_abc_diffeo)
    p = asub.add_parser("nondef", help="non-deformation criterion",
                        parents=[common])
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_abc_nondef)
    p = asub.add_parser("classify", help="types matching (chi, K^2)",
                        parents=[common])
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--ksq", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--paper-ksq", action="store_true",
                   help="match K^2 in the printed convention")
    p.set_defaults(func=cmd_abc_classify)

    h = sub.add_parser("hyperell", help="branch sets on the line")
    hsub = h.add_subparsers(dest="sub", required=True)
    p = hsub.add_parser("branch", help="branch set of the one-parameter family",
                        parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--param", required=True, help="rational like 7 or -1/2")
    p.set_defaults(func=cmd_hyperell_branch)
    p = hsub.add_parser("iso", help="rational Moebius equivalence",
                        parents=[common])
    p.add_argument("--set1", required=True,
                   help="comma-separated rationals and inf")
    p.add_argument("--set2", required=True)
    p.set_defaults(func=cmd_hyperell_iso)

    braid = sub.add_parser("braid", help="braid words and factorizations")
    bsub = braid.add_subparsers(dest="sub", required=True)
    p = bsub.add_parser("equal", help="word problem", parents=[common])
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("w1", help="signed list, e.g. [1,2,1]")
    p.add_argument("w2")
    p.set_defaults(func=cmd_braid_equal)
    p = bsub.add_parser("product", help="product of a factorization",
                        parents=[common])
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("factors", help="list of signed lists, e.g. [[1],[2]]")
    p.set_defaults(func=cmd_braid_product)
    p = bsub.add_parser("orbit", help="Hurwitz orbit enumeration",
                        parents=[common])
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("factors")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=cmd_braid_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SurfModuliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
