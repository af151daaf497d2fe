"""Command-line entry point.

Exit codes: 0 = success / verdict true, 1 = verdict false or property
failure, 2 = input or parse error (including a path that cannot be read
and a non-quasi-hereditary order for `tilting build` and `rigidity
check`).  Identical inputs produce byte-identical reports.  `--seed` is
accepted and recorded in reports; results do not depend on it.

At module level this file imports only the standard library.  Each
subcommand imports the library modules it uses inside its body, so a
process compiles and runs only those: `algebra check` loads `linalg` and
`quiver`, and the `sl4` calculators add only `characters` to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        text_renderer(payload)


def _load_system(path: str, field: Optional[int], weight: Optional[str] = None):
    """The `StandardSystem` of the algebra file at `path`, of which `weight`, if given, is a vertex."""
    from .highest_weight import StandardSystem
    from .quiver import load_alg

    sys_ = StandardSystem(load_alg(path, field_override=field))
    if weight is not None and weight not in sys_.labels:
        raise CliError(f"argument --weight: {weight!r} is not a vertex of {path}", 2)
    return sys_


def cmd_algebra(args) -> int:
    from .quiver import load_alg

    algebra = load_alg(args.path, field_override=args.field)
    chain = algebra.radical_powers()
    payload = {
        "path": args.path,
        "field": algebra.field.characteristic,
        "dimension": algebra.dim,
        "radical_power_dims": [len(layer) for layer in chain],
        "loewy_length": len(chain) - 1,
        "duality": sorted(algebra.duality_pairs.items()) if algebra.duality_pairs else None,
        "vertices": list(algebra.quiver.vertices),
    }
    _emit(payload, args.format, lambda p: print(
        f"algebra ok: dim {p['dimension']}, radical power dims {p['radical_power_dims']}"
    ))
    return 0


def cmd_module_series(args) -> int:
    from .modules import load_rep, radical_profile, socle_profile
    from .quiver import format_profile

    rep = load_rep(args.path, field_override=args.field)
    profile = radical_profile(rep) if args.type == "radical" else socle_profile(rep)
    labels = rep.algebra.quiver.vertices
    payload = {
        "path": args.path,
        "type": args.type,
        "profile": [dict(layer) for layer in profile],
        "profile_text": format_profile(profile, labels),
        "dims": dict(rep.dims),
    }
    _emit(payload, args.format, lambda p: print(p["profile_text"]))
    return 0


def cmd_qh_verify(args) -> int:
    from .highest_weight import check_bgg, check_quasihereditary

    sys_ = _load_system(args.path, args.field)
    report = check_quasihereditary(sys_)
    report["bgg"] = check_bgg(sys_)
    _emit(report, args.format, _print_qh_text)
    return 0 if report["ok"] else 1


def _print_qh_text(report) -> None:
    for lam, entry in sorted(report["weights"].items()):
        status = "ok" if entry["ok"] else "FAIL"
        extra = f" filtration {entry['filtration']}" if "filtration" in entry else f" {entry.get('witness', '')}"
        print(f"weight {lam}: {status} (End dim {entry['end_dim']}){extra}")
    bgg = report["bgg"]
    if bgg.get("applicable"):
        print(f"bgg reciprocity: {'ok' if bgg['ok'] else 'FAIL'}")
    else:
        print("bgg reciprocity: skipped (no duality declared)")
    print("quasi-hereditary:", "PASS" if report["ok"] else "FAIL")


def cmd_tilting(args) -> int:
    from .modules import radical_profile
    from .quiver import format_profile

    sys_ = _load_system(args.path, args.field, args.weight)
    T = sys_.tilting(args.weight)
    profile = radical_profile(T)
    payload = {
        "weight": args.weight,
        "seed": args.seed,
        "dims": dict(T.dims),
        "radical_profile": [dict(layer) for layer in profile],
        "profile_text": format_profile(profile, sys_.algebra.quiver.vertices),
    }
    _emit(payload, args.format, lambda p: print(f"T({args.weight}) = {p['profile_text']}"))
    return 0


def cmd_rigidity(args) -> int:
    from .rigidity import rigidity_pipeline

    sys_ = _load_system(args.path, args.field, args.weight)
    report = rigidity_pipeline(sys_, args.weight, method=args.method)
    report["seed"] = args.seed
    _emit(report, args.format, _print_rigidity_text)
    if args.format == "text" and args.verbose and "filteredExt" in report:
        for entry in report["filteredExt"]:
            print(f"    Ext_F^1(Delta({entry['weight']})<{entry['shift']}>, T) = {entry['dim']}")
    if not report["consistent"]:
        return 1
    if args.method == "theorem":
        return 0 if report["rigid_theorem"] is True else 1
    verdict = report.get("rigid_oracle")
    if verdict is None:
        verdict = report["rigid_theorem"] is True
    return 0 if verdict else 1


def _print_rigidity_text(report) -> None:
    print(f"weight {report['weight']}: hypothesis {'ok' if report['hypothesis']['ok'] else 'FAIL'}")
    if "stretched" in report:
        for side in ("deltaL", "Lnabla"):
            entry = report["stretched"][side]
            print(f"  stretched {side}: {'none' if entry['ok'] else entry['failures']}")
        print(f"  filtered Ext^1 all vanish: {report['filteredExt_all_vanish']}")
    print(f"  rigid (theorem path): {report['rigid_theorem']}")
    if "rigid_oracle" in report:
        print(f"  rigid (direct oracle): {report['rigid_oracle']}")
    print(f"  consistent: {report['consistent']}")


def _parse_mults(text: str) -> Counter:
    out: Counter = Counter()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        label, star, count = item.partition("*")
        try:
            out[label.strip()] += int(count) if star else 1
        except ValueError:
            raise CliError(f"multiplicity {count.strip()!r} in {item!r} is not an integer", 2) from None
    return out


def cmd_sl4(args) -> int:
    from . import characters as ch
    from .quiver import format_profile, layers_from_placement

    b = ch.load_block(args.block)
    if args.what in ("projectives", "tiltings"):
        if args.what == "projectives":
            tag, profiles = "proj", {mu: ch.projective_layers(b, mu) for mu in b.labels}
        else:
            tag = "tilt"
            profiles = {lam: layers_from_placement(ch.SL4_TILTING_PLACEMENTS[lam], b.layered) for lam in b.labels}
        lines = [f"{tag} {lab} : {format_profile(profile, b.labels)}" for lab, profile in profiles.items()]
        payload = {args.what: {lab: [dict(l) for l in profile] for lab, profile in profiles.items()}}
        _emit(payload, args.format, lambda p: print("\n".join(lines)))
        return 0
    if args.what == "wallcross":
        basis = {"L": "L", "delta": "delta", "Delta": "delta", "D": "delta", "Δ": "delta"}.get(args.basis)
        if basis is None:
            raise CliError(f"unknown basis {args.basis!r} (use L or delta)", 2)
        char = ch.Character(basis, {args.label: 1})
        result = ch.wall_cross(args.generator, char, b)
        payload = {"basis": basis, "coeffs": dict(result.coeffs), "text": ch.format_character(result, b)}
        _emit(payload, args.format, lambda p: print(p["text"]))
        return 0
    # homdim, the last of the four subcommands
    m = _parse_mults(args.standard_mults)
    n = _parse_mults(args.costandard_mults)
    _emit({"dim": ch.hom_dim(m, n, b)}, args.format, lambda p: print(p["dim"]))
    return 0


def cmd_render(args) -> int:
    from .coeffquiver import extract, render
    from .modules import load_rep

    rep = load_rep(args.path, field_override=args.field)
    cq = extract(rep)
    fmt = "dot" if args.dot else "ascii"
    print(render(cq, fmt, label_order=rep.algebra.quiver.vertices), end="" if fmt == "dot" else "\n")
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    return 0 if run_all() else 1


def _characteristic(text: str) -> int:
    """The `--field` value: 0 or a prime."""
    from .linalg import Field

    try:
        return Field(int(text)).characteristic
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiltrig", description="Rigidity toolkit for tilting modules over quasi-hereditary path algebras")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--field", type=_characteristic, default=None, help="override the ground field characteristic")
    parser.add_argument("--seed", type=int, default=0, help="recorded in reports; results do not depend on it")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="parse and validate an algebra file")
    ps = p.add_subparsers(dest="what", required=True)
    pc = ps.add_parser("check")
    pc.add_argument("path")
    pc.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("module", help="module computations from a .rep file")
    ps = p.add_subparsers(dest="what", required=True)
    pm = ps.add_parser("series")
    pm.add_argument("path")
    pm.add_argument("--type", choices=["radical", "socle"], default="radical")
    pm.set_defaults(fn=cmd_module_series)

    p = sub.add_parser("qh", help="quasi-hereditary verification")
    ps = p.add_subparsers(dest="what", required=True)
    pq = ps.add_parser("verify")
    pq.add_argument("path")
    pq.set_defaults(fn=cmd_qh_verify)

    p = sub.add_parser("tilting", help="build an indecomposable tilting module")
    ps = p.add_subparsers(dest="what", required=True)
    pt = ps.add_parser("build")
    pt.add_argument("path")
    pt.add_argument("--weight", required=True)
    pt.set_defaults(fn=cmd_tilting)

    p = sub.add_parser("rigidity", help="rigidity pipeline")
    ps = p.add_subparsers(dest="what", required=True)
    pr = ps.add_parser("check")
    pr.add_argument("path")
    pr.add_argument("--weight", required=True)
    pr.add_argument("--method", choices=["theorem", "direct", "both"], default="both")
    pr.set_defaults(fn=cmd_rigidity)

    p = sub.add_parser("sl4", help="bundled block-data calculators")
    p.add_argument("--block", default=None, help="override the bundled .block file")
    ps = p.add_subparsers(dest="what", required=True)
    ps.add_parser("projectives").set_defaults(fn=cmd_sl4)
    ps.add_parser("tiltings").set_defaults(fn=cmd_sl4)
    pw = ps.add_parser("wallcross")
    pw.add_argument("generator")
    pw.add_argument("basis")
    pw.add_argument("label")
    pw.set_defaults(fn=cmd_sl4)
    ph = ps.add_parser("homdim")
    ph.add_argument("standard_mults", help="comma list, e.g. \"4\" or \"3,3',2*2\"")
    ph.add_argument("costandard_mults")
    ph.set_defaults(fn=cmd_sl4)

    p = sub.add_parser("render", help="coefficient quiver of a .rep module")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:  # every library error class is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
