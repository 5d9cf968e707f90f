"""galspec benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload census-cubic --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports galspec from its
``src/``.  The seed fixes every input; galspec sees only the generated
inputs.  Set-up runs several times and reports its median (``setup_s``);
lazy caches are then filled, and whole sessions of operations run back to
back until ``--seconds`` have passed.  Each operation's result is checked.
Every time is in reference seconds (see clock.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` set-up runs once under the tracer, the untraced sessions
run as before, and then the first sessions run again under the tracer; the
last line carries the per-layer metrics.  A detail report (machine stamp,
raw timings, per-operation-kind counts) is printed on the line before it
and written to ``bench/out/``, with the spans of a traced run.

``--size smoke`` shrinks every session and set-up to a few operations.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import CAL_EVERY_S, RefClock
from spans import SETUP_TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TRACED_SESSIONS = 3
SMOKE_TRACED_SESSIONS = 1
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0  # cheap set-ups repeat until this much time has passed
SETUP_MAX_REPS = 400
P90_TAIL_MIN = 10  # returned operations that must lie beyond op_p90_ms
ROW_KINDS = ("census", "padic_shape")


def _import_galspec():
    if not (SRC / "galspec" / "__init__.py").is_file():
        sys.exit(f"bench: no galspec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import galspec

    if Path(galspec.__file__).resolve().parent != SRC / "galspec":
        sys.exit(f"bench: imported galspec from {galspec.__file__}, not from {SRC}")


def _commit():
    """HEAD of the checkout's own repository, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # no repository above the checkout may answer for it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp() -> dict:
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "loadavg_1m": load1,
    }


def run_session(ops, clock, tracer=None) -> list:
    """Run one session's operations in order; one record per operation.

    Its time is kept as measured ("raw_s") and in reference seconds ("s"),
    with a kernel timing after every CAL_EVERY_S of operations.  Under a
    tracer, "spans" is the operation's range of span ids.
    """
    records = []
    stretch = 0  # first record not yet rescaled
    since = time.perf_counter()
    for op in ops:
        error, known = None, False
        first_span = len(tracer) if tracer is not None else 0
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a refused or crashed operation is a failure, not an abort
            error = f"{type(exc).__name__}: {exc}"
            known = op.known_raise is not None and op.known_raise(exc)
        elapsed = time.perf_counter() - start
        spans = (first_span, len(tracer)) if tracer is not None else None
        if error is None:
            verdict = op.check(result)
            ok, wrong, rows = verdict.ok, verdict.wrong, verdict.rows
            known = not ok and verdict.known
        else:
            ok, wrong, rows = False, False, 0
        records.append({"kind": op.kind, "raw_s": elapsed, "ok": ok, "wrong": wrong,
                        "known": known, "rows": rows, "error": error, "spans": spans})
        if time.perf_counter() - since >= CAL_EVERY_S:
            _rescale(records[stretch:], clock.factor())
            stretch = len(records)
            since = time.perf_counter()
    if stretch < len(records):
        _rescale(records[stretch:], clock.factor())
    return records


def _rescale(records, factor: float) -> None:
    """Set each record's time in reference seconds, "s"."""
    for r in records:
        r["factor"] = factor
        r["s"] = r["raw_s"] * factor


def timed_setups(wl, min_reps: int, min_s: float, clock):
    """Repeat set-up in batches between kernel timings, ticking inside them;
    returns the last state and every set-up time, in reference and in
    measured seconds, without the ticks' own time."""
    ref, raw = [], []
    while len(raw) < min_reps or (sum(raw) < min_s and len(raw) < SETUP_MAX_REPS):
        batch = []
        start = time.perf_counter()
        with clock.ticking() as ticks:
            while not batch or time.perf_counter() - start < CAL_EVERY_S:
                seen = len(ticks)
                t = time.perf_counter()
                state = wl.setup()
                batch.append(time.perf_counter() - t - sum(ticks[seen:]))
        factor = clock.factor(ticks)
        raw += batch
        ref += [x * factor for x in batch]
    return state, ref, raw


def timed_phase(wl, state, seconds: float, clock) -> list:
    """Whole sessions, back to back, until `seconds` have passed."""
    sessions = []
    start = time.perf_counter()
    while not sessions or time.perf_counter() - start < seconds:
        sessions.append(run_session(wl.session(state, len(sessions)), clock))
    return sessions


def _wall(session, key="s") -> float:
    return sum(r[key] for r in session)


def _row_rates(sessions) -> list:
    """Per session, rows per second of the row-producing operations that
    completed; sessions where none completed give no rate."""
    rates = []
    for s in sessions:
        done = [r for r in s if r["kind"] in ROW_KINDS and r["error"] is None]
        if done:
            rates.append(sum(r["rows"] for r in done) / _wall(done))
    return rates


def end_to_end(setups: list, sessions: list, smoke: bool) -> dict:
    """Rates and walls are medians over sessions, so one slow stretch moves
    them less than a run-long mean would.  Outside smoke size, a run whose
    op_p90_ms would rest on fewer than P90_TAIL_MIN operations stops."""
    recs = [r for s in sessions for r in s]
    # latency of operations that returned; the raised ones count in ok_frac
    durations = sorted(r["s"] * 1e3 for r in recs if r["error"] is None)
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8] if len(durations) > 1 else durations[0]
    tail = sum(d > p90 for d in durations)
    if not smoke and tail < P90_TAIL_MIN:
        sys.exit(f"bench: only {tail} of {len(durations)} returned operations lie beyond "
                 f"op_p90_ms (need {P90_TAIL_MIN}); give --seconds more time")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(map(_wall, sessions)), "s"),
        "ops_per_s": (statistics.median(len(s) / _wall(s) for s in sessions), "ops/s"),
        "rows_per_s": (statistics.median(_row_rates(sessions) or [0.0]), "rows/s"),
        "op_p50_ms": (statistics.median(durations), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_frac": (sum(r["ok"] for r in recs) / len(recs), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, setup_range, traced: list, untraced: list) -> dict:
    """Calls and self times from the traced set-up (setup_range) and the
    traced sessions, each operation's self times in reference seconds."""
    ops = [(*r["spans"], r["factor"]) for s in traced for r in s]
    agg = tracer.aggregate([setup_range] + ops)
    setup = tracer.aggregate([setup_range])
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = (agg["calls"][name], "count")
        out[f"{name}.self_s"] = (agg["self_s"][name], "s")
    for name in SETUP_TRACED:
        out[f"setup.{name}.calls"] = (setup["calls"][name], "count")
        out[f"setup.{name}.self_s"] = (setup["self_s"][name], "s")
    shapes = agg["calls"]["padic.padic_shape"]
    seqs = agg["calls"]["ffact.degree_sequence"]
    out["padic.exact_frac"] = (agg["exact_shapes"] / shapes if shapes else 0.0, "fraction")
    out["ffact.not_squarefree_frac"] = (agg["not_squarefree"] / seqs if seqs else 0.0, "fraction")
    overhead = sum(map(_wall, traced)) / sum(map(_wall, untraced[: len(traced)])) - 1
    out["trace_overhead_frac"] = (overhead, "fraction")
    return out


def kind_summary(sessions: list) -> dict:
    kinds = {}
    for r in (r for s in sessions for r in s):
        k = kinds.setdefault(r["kind"], {"attempted": 0, "checked": 0, "failed": 0,
                                         "known_defect": 0, "wrong": 0, "raised": 0, "ms": [],
                                         "first_error": None})
        k["attempted"] += 1
        k["checked"] += r["error"] is None
        k["failed"] += not r["ok"]
        k["known_defect"] += r["known"]
        k["wrong"] += r["wrong"]
        k["ms"].append(r["s"] * 1e3)
        if r["error"] is not None:
            k["raised"] += 1
            k["first_error"] = k["first_error"] or r["error"]
    for k in kinds.values():
        k["p50_ms"] = statistics.median(k.pop("ms"))
    return kinds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    _import_galspec()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    smoke = args.size == "smoke"
    wl = WORKLOADS[args.workload](args.seed, smoke)
    run_stamp = stamp()
    tracer = Tracer() if args.trace else None

    setup_clock = RefClock()
    if tracer is not None:
        tracer.install()
        try:
            start = time.perf_counter()
            state = wl.setup()
            raw_setups = [time.perf_counter() - start]
        finally:
            tracer.uninstall()
        setup_range = (0, len(tracer), setup_clock.factor())
    elif smoke:
        state, setups, raw_setups = timed_setups(wl, 1, 0.0, setup_clock)
    else:
        state, setups, raw_setups = timed_setups(wl, SETUP_MIN_REPS, SETUP_MIN_S, setup_clock)
    wl.warm(state)

    clocks = [setup_clock, RefClock()]
    sessions = timed_phase(wl, state, args.seconds, clocks[-1])
    all_sessions = list(sessions)
    if tracer is None:
        metrics = end_to_end(setups, sessions, smoke)
    else:
        n = min(len(sessions), SMOKE_TRACED_SESSIONS if smoke else TRACED_SESSIONS)
        planned = [wl.session(state, k) for k in range(n)]
        clocks.append(RefClock())
        tracer.install()
        try:
            traced = [run_session(ops, clocks[-1], tracer) for ops in planned]
        finally:
            tracer.uninstall()
        all_sessions += traced
        metrics = per_layer(tracer, setup_range, traced, sessions)

    recs = [r for s in all_sessions for r in s]
    result = {
        "correct": not any(r["wrong"] for r in recs),
        "attempted": len(recs),
        # the known defects count in ok_frac and in the per-kind report, not here
        "failed": sum(not r["ok"] and not r["known"] for r in recs),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    cal = [t for c in clocks for t in c.samples]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "stamp": run_stamp,
        "sessions": len(sessions),
        "raw": {
            "calibration_s": {"min": min(cal), "median": statistics.median(cal), "max": max(cal)},
            "setup_s": statistics.median(raw_setups),
            "setup_reps": len(raw_setups),
            "wall_s": statistics.median(_wall(s, "raw_s") for s in sessions),
        },
        "kinds": kind_summary(all_sessions), "result": result,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write_tsv(OUT / f"{tag}.spans.tsv")
    print(json.dumps({k: report[k] for k in ("stamp", "sessions", "raw", "kinds")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
