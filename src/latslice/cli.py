"""latslice command line: parse bodies, dispatch operations, emit reports.

Exit codes: 0 success, 1 input/usage error, 2 a mathematical check failed
(the failing chain entry is named on stderr), so CI can treat a dominance
violation as a red build.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .bodies import body_from_spec, volume
from .errors import LatsliceError
from .hull import graham_hull
from .lattices import LatticeSubspace, count_points, enumerate_points
from .minima import successive_minima
from .slicing import BrunnReport, max_slice, slice_count, slice_profile
from .verify import (
    frac_str,
    gauss_scaling,
    pick_quantities,
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    report_csv_header,
    report_csv_row,
    report_to_dict,
    verify_dim2,
    verify_main,
    verify_unconditional,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2


def _parse_vector(text):
    vec = []
    for tok in text.split(","):
        try:
            vec.append(int(tok))
        except ValueError:
            raise LatsliceError(f"bad entry {tok.strip()!r} in --normal") from None
    return tuple(vec)


def _parse_subspace(text, d) -> LatticeSubspace:
    """A --normal value: a hyperplane normal, or basis vectors joined by ';'."""
    t = text.strip()
    if t.startswith("u:"):
        t = t[2:]
    if ";" in t:
        vecs = []
        for chunk in t.split(";"):
            chunk = chunk.strip().strip("()")
            if chunk:
                v = _parse_vector(chunk)
                if len(v) != d:
                    raise LatsliceError(
                        f"basis vector {chunk!r} has length {len(v)}, body dimension is {d}"
                    )
                vecs.append(v)
        return LatticeSubspace.from_basis(vecs)
    u = _parse_vector(t)
    if len(u) != d:
        raise LatsliceError(f"normal has length {len(u)}, body dimension is {d}")
    return LatticeSubspace.from_normal(u)


def _parse_radii(text):
    radii = []
    for tok in filter(str.strip, text.split(",")):
        try:
            radii.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise LatsliceError(f"bad radius {tok.strip()!r} in --radii") from exc
    return radii


def _emit(args, text_lines, payload):
    """Write the chosen format to --out or stdout."""
    if args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in payload["rows"]:
            writer.writerow(row)
        out = buf.getvalue()
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_count(args):
    body = body_from_spec(args.body)
    total = count_points(body).total
    _emit(
        args,
        [str(total)],
        {"body": body.name, "count": total},
    )
    return EXIT_OK


def _cmd_volume(args):
    body = body_from_spec(args.body)
    if args.mode == "mc":
        v = volume(body, mode="monte_carlo", samples=args.samples, seed=args.seed)
        _emit(
            args,
            [f"{v.value} +- {v.error}"],
            {"body": body.name, "mode": "monte_carlo", "volume": v.value, "error": v.error},
        )
    else:
        v = volume(body)
        _emit(
            args,
            [frac_str(v.value)],
            {"body": body.name, "mode": "exact", "volume": frac_str(v.value)},
        )
    return EXIT_OK


def _cmd_minima(args):
    body = body_from_spec(args.body)
    sm = successive_minima(body)
    lines = [
        "lambdas: " + " ".join(frac_str(l) for l in sm.lambdas),
        "basis: " + " ".join(str(list(v)) for v in sm.directional_basis),
    ]
    payload = {
        "body": body.name,
        "lambdas": [frac_str(l) for l in sm.lambdas],
        "directional_basis": [list(v) for v in sm.directional_basis],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_slice(args):
    body = body_from_spec(args.body)
    if args.normal:
        for flag, value in (("--m", args.m), ("--normal-bound", args.normal_bound)):
            if value is not None:
                raise LatsliceError(f"slice --normal counts one given subspace and takes no {flag}")
        sub = _parse_subspace(args.normal, body.dim)
        total = slice_count(body, sub).total
        _emit(args, [str(total)], {"body": body.name, "subspace": sub.spec(), "count": total})
        return EXIT_OK
    if args.m is None:
        raise LatsliceError("slice needs --normal or --m")
    res = max_slice(body, args.m, normal_bound=args.normal_bound)
    lines = [
        f"best: {res.best_count}",
        f"witness: {res.witness.spec()}",
        f"exhaustive: {res.exhaustive} (candidates searched: {res.candidates_searched})",
    ]
    payload = {
        "body": body.name,
        "m": res.m,
        "best_count": res.best_count,
        "witness": res.witness.spec(),
        "exhaustive": res.exhaustive,
        "candidates_searched": res.candidates_searched,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _profile_payload(sub, prof):
    if sub.normal is not None:
        levels = {str(t[0]): c for t, c in sorted(prof.by_translate.items())}
        return {"normal": list(sub.normal), "levels": levels}
    return {
        "basis": [list(v) for v in sub.basis],
        "levels": {",".join(map(str, t)): c for t, c in sorted(prof.by_translate.items())},
    }


def _cmd_brunn(args):
    body = body_from_spec(args.body)
    if not args.normal:
        raise LatsliceError("brunn needs --normal")
    sub = _parse_subspace(args.normal, body.dim)
    prof = slice_profile(body, sub)
    rep = BrunnReport.from_profile(prof)
    payload = _profile_payload(sub, prof)
    payload.update(
        {
            "central": rep.central,
            "max_translate": rep.max_translate_count,
            "min_ratio": frac_str(rep.min_ratio),
            "bound": frac_str(rep.bound),
            "holds": rep.holds,
        }
    )
    lines = [
        "levels: " + " ".join(f"{t}:{c}" for t, c in sorted(prof.by_translate.items())),
        f"central: {rep.central}  max translate: {rep.max_translate_count}",
        f"min ratio: {rep.min_ratio}  bound: {rep.bound}  holds: {rep.holds}",
    ]
    _emit(args, lines, payload)
    if not rep.holds:
        print("FAILED: central-slice dominance", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _cmd_pick(args):
    body = body_from_spec(args.body)
    if body.dim != 2:
        raise LatsliceError("pick needs a 2-dimensional body")
    hull_pts = graham_hull(enumerate_points(body))
    if len(hull_pts) < 3:
        raise LatsliceError(f"the lattice points of {body.name} are collinear, so their hull has no area")
    q = pick_quantities(hull_pts)
    payload = {
        "body": body.name,
        "A": frac_str(q.A),
        "I": q.I,
        "B": q.B,
        "identity_holds": q.identity_holds,
    }
    lines = [f"A={q.A} I={q.I} B={q.B} identity: {q.identity_holds}"]
    _emit(args, lines, payload)
    if not q.identity_holds:
        print("FAILED: pick-identity", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _report_exit(report):
    if report.hypothesis_violated:
        return EXIT_OK
    bad = report.failures()
    if bad:
        print(f"FAILED: {', '.join(bad)}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _report_lines(report):
    lines = [
        f"{report.kind} report for {report.body} (d={report.d}, m={report.m})",
        f"count: {report.count_total}",
    ]
    if report.hypothesis_violated:
        lines.append("hypothesis violated: dim(K ∩ Z^d) < d")
        return lines
    if report.max_slice_count is not None:
        lines.append(
            f"max slice: {report.max_slice_count} (witness {report.max_slice_witness}, "
            f"exhaustive={report.max_slice_exhaustive})"
        )
    if report.volume is not None:
        lines.append(f"volume: {report.volume}")
    if report.volume_polar is not None:
        lines.append(f"polar volume: {report.volume_polar}  mahler: {report.mahler}")
    if report.observed_constant is not None:
        lines.append(
            f"observed constant: {report.observed_constant:.6f} "
            f"(exact power {report.observed_constant_power})"
        )
    for e in report.chain:
        lines.append(f"  [{'pass' if e.passed else 'FAIL'}] {e.name}: {e.detail}")
    return lines


def _check_chain_flags(args, d):
    """Reject the --m and --normal-bound values that the dim2 and unconditional chains ignore.

    The unconditional chain checks m = d - 1 and takes no normal bound; the
    dim2 chain checks m = 1.
    """
    if args.kind == "main":
        return
    m = d - 1 if args.kind == "unconditional" else 1
    if args.m is not None and args.m != m:
        raise LatsliceError(f"the {args.kind} chain checks m = {m}, not --m {args.m}")
    if args.kind == "unconditional" and getattr(args, "normal_bound", None) is not None:
        raise LatsliceError("the unconditional chain takes no --normal-bound")


def _cmd_verify(args):
    body = body_from_spec(args.body)
    _check_chain_flags(args, body.dim)
    if args.kind == "dim2":
        report = verify_dim2(body, normal_bound=args.normal_bound)
    elif args.kind == "unconditional":
        report = verify_unconditional(body)
    else:
        m = args.m if args.m is not None else body.dim - 1
        report = verify_main(body, m, normal_bound=args.normal_bound)
    _emit(args, _report_lines(report), report_to_dict(report))
    return _report_exit(report)


def _scan_one(task):
    kind, gen, d, m, seed = task
    if gen == "random-unconditional":
        body = random_unconditional_body(d, seed)
    elif gen == "random-rational":
        body = random_rational_symmetric_2d(seed)
    else:
        body = random_symmetric_body(d, seed)
    if kind == "dim2":
        return verify_dim2(body, seed=seed)
    if kind == "unconditional":
        return verify_unconditional(body, seed=seed)
    return verify_main(body, m if m is not None else d - 1, seed=seed)


def _cmd_scan(args):
    try:
        gen, dtext = args.body.split(":")
        d = int(dtext)
    except ValueError as exc:
        raise LatsliceError(
            "scan --body must be random:<d>, random-unconditional:<d>, or random-rational:2"
        ) from exc
    if gen not in ("random", "random-unconditional", "random-rational"):
        raise LatsliceError(f"unknown scan generator {gen!r}")
    if gen == "random-rational" and d != 2:
        raise LatsliceError("the random-rational generator is 2-dimensional only: use random-rational:2")
    if args.kind == "dim2" and d != 2:
        raise LatsliceError("dim2 scan needs a 2-dimensional generator")
    _check_chain_flags(args, d)
    if args.trials < 0:
        raise LatsliceError("scan --trials must be non-negative")
    if args.jobs < 1:
        raise LatsliceError("scan --jobs must be at least 1")
    tasks = [(args.kind, gen, d, args.m, args.seed + i) for i in range(args.trials)]
    workers = min(args.jobs, len(tasks))  # a fork pool starts every worker at its first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_scan_one, tasks))
    else:
        reports = [_scan_one(t) for t in tasks]
    rows = [report_csv_header()] + [report_csv_row(r) for r in reports]
    payload_rows = {"rows": rows}
    if args.format == "json":
        _emit(args, [], {"kind": args.kind, "reports": [report_to_dict(r) for r in reports]})
    elif args.format == "csv":
        _emit(args, [], payload_rows)
    else:
        lines = [",".join(row) for row in rows]
        _emit(args, lines, None)
    bad = [r for r in reports if not r.hypothesis_violated and r.failures()]
    if bad:
        names = sorted({n for r in bad for n in r.failures()})
        print(f"FAILED: {len(bad)} trials ({', '.join(names)})", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _cmd_gauss(args):
    body = body_from_spec(args.body)
    radii = _parse_radii(args.radii) if args.radii else [Fraction(r) for r in (1, 2, 4)]
    hyper = args.normal if args.normal else None
    sub = _parse_subspace(hyper, body.dim) if hyper else None
    rep = gauss_scaling(body, radii, hyperplane=sub)
    lines = [f"gauss scaling for {rep.body} (vol={frac_str(rep.expected[0] / rep.radii[0] ** body.dim)})"]
    for i, r in enumerate(rep.radii):
        lines.append(
            f"r={r}: count={rep.counts[i]} expected={frac_str(rep.expected[i])} "
            f"abs={frac_str(rep.abs_dev[i])} rel={frac_str(rep.rel_dev[i])}"
        )
    lines.append(f"relative deviation strictly decreasing: {rep.strictly_decreasing}")
    payload = {
        "body": rep.body,
        "radii": [frac_str(r) for r in rep.radii],
        "counts": list(rep.counts),
        "expected": [frac_str(x) for x in rep.expected],
        "abs_dev": [frac_str(x) for x in rep.abs_dev],
        "rel_dev": [frac_str(x) for x in rep.rel_dev],
        "strictly_decreasing": rep.strictly_decreasing,
    }
    if rep.slice_counts is not None:
        payload["slice"] = {
            "normal": list(rep.slice_normal) if rep.slice_normal else None,
            "counts": list(rep.slice_counts),
            "expected": [frac_str(x) for x in rep.slice_expected],
            "abs_dev": [frac_str(x) for x in rep.slice_abs_dev],
            "note": "expected uses section volume / det(Z^d ∩ H) >= 1",
        }
        for i, r in enumerate(rep.radii):
            lines.append(
                f"r={r} slice: count={rep.slice_counts[i]} "
                f"expected={frac_str(rep.slice_expected[i])}"
            )
    _emit(args, lines, payload)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latslice",
        description="Exact lattice-point counting and slicing-inequality checks "
        "for origin-symmetric convex bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, body=True):
        if body:
            p.add_argument("--body", required=True, help="built-in (cube:d, cross:d, box:r1,...) or JSON file")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text", help="csv: scan only")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("count", help="count lattice points in the body")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("volume", help="exact or Monte Carlo volume")
    common(p)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("minima", help="successive minima and directional basis")
    common(p)
    p.set_defaults(func=_cmd_minima)

    p = sub.add_parser("slice", help="slice count for --normal, or max slice for --m")
    common(p)
    p.add_argument("--normal", default=None, help='hyperplane normal "1,2,3" or basis "1,0,0;0,1,0"')
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--normal-bound", dest="normal_bound", type=int, default=None)
    p.set_defaults(func=_cmd_slice)

    p = sub.add_parser("brunn", help="slice profile and central dominance check")
    common(p)
    p.add_argument("--normal", required=True)
    p.set_defaults(func=_cmd_brunn)

    p = sub.add_parser("pick", help="Pick quantities of hull(K ∩ Z^2)")
    common(p)
    p.set_defaults(func=_cmd_pick)

    p = sub.add_parser("verify", help="run an inequality chain")
    p.add_argument("kind", choices=["dim2", "unconditional", "main"])
    common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--normal-bound", dest="normal_bound", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="verify a chain over seeded random bodies")
    p.add_argument("kind", choices=["dim2", "unconditional", "main"])
    common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("gauss", help="counts of rK against r^d vol(K)")
    common(p)
    p.add_argument("--radii", default=None, help="comma-separated rational radii")
    p.add_argument("--normal", default=None, help="optional hyperplane for the slice analogue")
    p.set_defaults(func=_cmd_gauss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if args.format == "csv" and args.func is not _cmd_scan:
            raise LatsliceError(f"--format csv is only offered by scan, not by {args.command}")
        return args.func(args)
    except LatsliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
