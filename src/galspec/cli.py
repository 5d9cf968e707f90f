"""Command-line front end: it only parses arguments and prints results.

The library does the work; census and identification live in ``grunwald``.
Every subcommand reads a family manifest (a JSON file path or a built-in
name), writes structured JSON or CSV to --out or stdout, and prints a
one-line human summary to stderr, plus one line when an identification
ends INCONCLUSIVE or verify's or search's ends REJECT.  Exit codes: 0
success, 1 a mathematical check failed (a verification mismatch, an
unrealizable condition, a census mismatch, a rejected or inconclusive
identification), 2 malformed input.  All randomness flows from --seed, so
equal invocations produce byte-identical output.
"""

import argparse
import json
import sys
from itertools import count
from pathlib import Path

from .arith import format_rat, parse_rat
from .beckmann import PredictionContradiction, bad_primes, predict_any, specialization
from .family import (
    FamilyManifest,
    ManifestInconsistent,
    branch_locus,
    builtin_manifest,
    load_manifest,
    nondegenerate_check,
)
from .grunwald import (
    SearchFailed,
    Unramified,
    UnsupportedConditionCombination,
    census,
    identify,
    parse_condition,
    run_search,
    verify,
)
from .permgrp import cycle_type
from .poly import format_poly


def _load(spec: str) -> FamilyManifest:
    path = Path(spec)
    if path.exists():
        return load_manifest(str(path))
    name = spec[:-5] if spec.endswith(".json") else spec
    try:
        return builtin_manifest(name)
    except (FileNotFoundError, OSError):
        raise ValueError(f"no such manifest file or built-in name: {spec}") from None


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _note_bad_prime(report) -> None:
    _note(f"p={report.p} is bad at this specialization: {', '.join(report.reasons)}")


def _shape_list(pairs) -> list:
    return [list(pair) for pair in pairs]


def _s0(args, m: FamilyManifest):
    """--s0, else 0; a degenerate default is refused with a nondegenerate hint."""
    check = nondegenerate_check(m, 0) if args.s0 is None else True
    if not check:
        # the s-guards are nonzero polynomials, so some small integer passes
        k = next(k for n in count(1) for k in (n, -n) if nondegenerate_check(m, k))
        raise ValueError(
            f"s0 = 0, the default without --s0, is degenerate: {'; '.join(check.reasons)}; "
            f"the least nondegenerate integer s0 (by absolute value) is {k}, so pass --s0 {k}"
        )
    return parse_rat("0" if args.s0 is None else args.s0)


# -- branch ---------------------------------------------------------------------


def cmd_branch(args) -> int:
    m = _load(args.manifest)
    declared = []
    for bp in m.branch_points:
        declared.append(
            {
                "location": "inf" if bp.is_infinite else format_poly(bp.location),
                "e": bp.e,
                "inertia_class": str(cycle_type(bp.inertia_generator)),
                "decomposition_order": bp.decomposition.order,
                "residue_subextension": None if bp.rho is None else format_poly(bp.rho),
            }
        )
    payload = {"family": m.name, "declared": declared}
    if args.s0 is None:
        locus = m.locus
    else:
        s0 = parse_rat(args.s0)
        locus = branch_locus(m.f, s0)
        check = nondegenerate_check(m, s0)
        if check.ok:
            specialization(m, s0)  # raises ManifestInconsistent on a wrong declared class
        payload["s0"] = format_rat(s0)
        payload["nondegenerate"] = check.ok
        payload["degenerate_reasons"] = list(check.reasons)
    payload["points"] = [format_rat(pt) for pt in locus.points]
    payload["residual_degree"] = locus.residual.degree()
    payload["infinity"] = locus.infinity
    _emit(payload, args.out)
    _note(
        f"{m.name}: {len(payload['points'])} rational branch point(s), "
        f"residual degree {locus.residual.degree()}, "
        f"infinity: {'yes' if locus.infinity else 'no'}"
    )
    return 0


# -- badprimes -------------------------------------------------------------------


def cmd_badprimes(args) -> int:
    m = _load(args.manifest)
    s0 = _s0(args, m)
    reports = bad_primes(m, s0, bound=args.bound)
    payload = {
        "family": m.name,
        "s0": format_rat(s0),
        "bound": args.bound,
        "bad_primes": [{"p": r.p, "reasons": list(r.reasons)} for r in reports],
    }
    _emit(payload, args.out)
    _note(f"{m.name} at s0={format_rat(s0)}: {len(reports)} bad prime(s) <= {args.bound}")
    return 0


# -- predict ---------------------------------------------------------------------


def cmd_predict(args) -> int:
    m = _load(args.manifest)
    s0, t0 = _s0(args, m), parse_rat(args.t0)
    try:
        result = predict_any(m, s0, t0, args.p)
    except PredictionContradiction as exc:
        _emit(
            {
                "p": exc.report.p,
                "bad_prime": True,
                "reasons": list(exc.report.reasons),
            },
            args.out,
        )
        _note_bad_prime(exc.report)
        return 1
    if result is None:
        _emit({"p": args.p, "ramified": False}, args.out)
        _note(f"p={args.p} is unramified at (s0={args.s0 or 0}, t0={args.t0})")
        return 0
    _emit(
        {
            "p": result.p,
            "ramified": result.order > 1,
            "branch": result.branch,
            "multiplicity": result.multiplicity,
            "inertia_class": str(result.generator_class),
            "order": result.order,
        },
        args.out,
    )
    _note(
        f"p={args.p}: inertia order {result.order} "
        f"(class {result.generator_class}, contact {result.multiplicity})"
    )
    return 0


# -- search / verify -------------------------------------------------------------


def _condition_json(cond) -> dict:
    if isinstance(cond, Unramified):
        return {"kind": "unramified", "p": cond.p, "type": str(cond.target)}
    return {
        "kind": "ramified",
        "p": cond.p,
        "branch": cond.branch,
        "d": cond.d,
        "frobenius_target": cond.frobenius_target,
    }


def _record_json(record) -> dict:
    if isinstance(record.observed, str):
        observed = record.observed
    elif record.mode == "full":
        observed = _shape_list(record.observed)
    else:
        observed = list(record.observed)
    if record.mode == "full":
        predicted = [_shape_list(shape) for shape in record.predicted]
    else:
        predicted = list(record.predicted)
    return {
        "condition": _condition_json(record.condition),
        "mode": record.mode,
        "predicted": predicted,
        "observed": observed,
        "passed": record.passed,
    }


def _report_json(report) -> dict:
    payload = {
        "s0": format_rat(report.s0),
        "t0": format_rat(report.t0),
        "records": [_record_json(r) for r in report.records],
        "passed": report.passed,
    }
    if report.s0_progression is not None:
        payload["s0_progression"] = str(report.s0_progression)
    if report.t0_progression is not None:
        prog = report.t0_progression
        payload["t0_progression"] = {
            "chart": prog.chart,
            "congruence": str(prog.congruence),
            "valuations": [list(v) for v in prog.valuations],
        }
    ident = report.identification
    if ident is not None:
        payload["identification"] = {
            "sampled": ident.sampled,
            "observed": {str(ct): n for ct, n in ident.counts},
            "missing": [str(ct) for ct in ident.missing],
            "alien": [str(ct) for ct in ident.alien],
            "passed": ident.passed,
            "verdict": ident.verdict,
            "certificate": [str(ct) for ct in ident.certificate],
        }
    return payload


def _note_identification(report) -> None:
    ident = report.identification
    if ident is None or ident.passed:
        return
    if ident.verdict == "REJECT":
        types = ", ".join(map(str, ident.alien))
        _note(f"identification REJECT: type(s) {types} lie outside the declared group")
    else:
        _note(
            f"identification INCONCLUSIVE: no two types in {ident.sampled} readable "
            "prime(s) invariably generate the declared group"
        )


def _parse_conditions(m: FamilyManifest, texts) -> list:
    if not texts:
        raise ValueError("give at least one --cond")
    return [parse_condition(text, m) for text in texts]


def cmd_search(args) -> int:
    m = _load(args.manifest)
    conditions = _parse_conditions(m, args.cond)
    report = run_search(m, conditions, n_id=args.n_id, seed=args.seed)
    _emit(_report_json(report), args.out)
    _note(
        f"witness (s0, t0) = ({format_rat(report.s0)}, {format_rat(report.t0)}); "
        f"{'all conditions verified' if report.passed else 'VERIFICATION FAILED'}"
    )
    _note_identification(report)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    m = _load(args.manifest)
    conditions = _parse_conditions(m, args.cond)
    report = verify(
        m, _s0(args, m), parse_rat(args.t0), conditions,
        n_id=args.n_id, seed=args.seed,
    )
    _emit(_report_json(report), args.out)
    ok = sum(1 for r in report.records if r.passed)
    _note(f"{ok}/{len(report.records)} condition(s) hold; report {'passed' if report.passed else 'FAILED'}")
    if args.n_id and report.identification is None:
        # verify skips a requested identification only on a branch point
        _note(
            f"identification skipped: t0 = {format_rat(report.t0)} lies on a branch point, "
            "so the fibre has a repeated factor and no auxiliary prime can read it"
        )
    _note_identification(report)
    return 0 if report.passed else 1


# -- identify --------------------------------------------------------------------


def cmd_identify(args) -> int:
    m = _load(args.manifest)
    result = identify(m, _s0(args, m), args.samples, args.seed)
    _emit(result, args.out)
    _note(f"{m.name}: {len(result['observed'])} type(s) in {args.samples} samples; verdict {result['verdict']}")
    if result["verdict"] == "INCONCLUSIVE":
        _note(f"identification INCONCLUSIVE: no two types in {args.samples} sampled fibre(s) invariably "
              f"generate the declared group, and chi-square does not reject it at alpha = {result['alpha']}")
    return 0 if result["verdict"] in ("ACCEPT", "SUPPORT-ONLY") else 1


# -- census ----------------------------------------------------------------------


def cmd_census(args) -> int:
    m = _load(args.manifest)
    s0 = _s0(args, m)
    try:
        t_lo, t_hi = (int(x) for x in args.t_range.split("..", 1))
    except ValueError:
        raise ValueError(f"bad --t-range {args.t_range!r}; expected like -500..500") from None
    rows, bad = census(m, s0, t_lo, t_hi, args.p_max)
    s0_text = format_rat(s0)
    lines = ["s0,t0,p,predicted,observed,match"]
    for r in rows:
        lines.append(f"{s0_text},{r.t0},{r.p},{r.predicted},{r.observed},{r.match}")
    _write("\n".join(lines) + "\n", args.out)
    good = [r for r in rows if r.match != "bad"]
    matched = sum(1 for r in good if r.match == "true")
    rate = matched / len(good) if good else 1.0
    _note(
        f"{m.name}: {len(rows)} rows, {len(good)} over good primes, "
        f"match rate {rate:.4f}, bad primes {sorted(bad)}"
    )
    return 0 if matched == len(good) else 1


# -- argument plumbing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="galspec")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, s0=False):
        p.add_argument("--manifest", required=True, help="JSON file or built-in name")
        p.add_argument("--out", help="write the JSON/CSV here instead of stdout")
        if s0:
            p.add_argument("--s0", help="bind s (default 0)")
        return p

    p = common(sub.add_parser("branch", help="branch locus and declared branch data"))
    p.add_argument("--s0", help="bind s to evaluate the locus")
    p.set_defaults(run=cmd_branch)

    p = common(sub.add_parser("badprimes", help="bad primes with reasons"), s0=True)
    p.add_argument("--bound", type=int, default=1000)
    p.set_defaults(run=cmd_badprimes)

    p = common(sub.add_parser("predict", help="tame inertia at one prime"), s0=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(run=cmd_predict)

    p = common(sub.add_parser("search", help="find and verify a specialization"))
    p.add_argument("--cond", action="append", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-id", type=int, default=300, help="cap on readable auxiliary primes")
    p.set_defaults(run=cmd_search)

    p = common(sub.add_parser("verify", help="check conditions at a given (s0, t0)"), s0=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--cond", action="append", default=[])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-id", type=int, default=300, help="cap on readable auxiliary primes")
    p.set_defaults(run=cmd_verify)

    p = common(sub.add_parser("identify", help="group identification by sampling"), s0=True)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_identify)

    p = common(sub.add_parser("census", help="prediction vs shape over a grid"), s0=True)
    p.add_argument("--t-range", required=True, help="like -500..500")
    p.add_argument("--p-max", type=int, default=97)
    p.set_defaults(run=cmd_census)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SearchFailed as exc:
        _note(f"search failed: {exc}")
        return 1
    except PredictionContradiction as exc:
        _note_bad_prime(exc.report)
        return 1
    except (
        ValueError,
        TypeError,
        KeyError,
        OSError,
        ManifestInconsistent,
        UnsupportedConditionCombination,
        json.JSONDecodeError,
    ) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
