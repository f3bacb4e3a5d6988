"""The detsize benchmark.

    python3 bench/run.py --workload {blowup,forecast,corpus} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nothing is installed.  One closed loop with one
client: operations run one after another in this process, and CLI commands
run as child processes one at a time.  The timed phase repeats whole passes
over the workload's operations until the next pass would end after
``--seconds``; at least one pass always runs.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced.
An operation's latency is CPU time: ``time.process_time`` in this process,
user plus system time from ``wait4`` for a CLI child.  ``setup_s`` is the
median CPU time of fresh interpreters that import the package and build the
workload's inputs, taken a few at a time between the passes.  ``wall_s`` is
the wall-clock time of a pass.

The speed of a shared host drifts by 10-25% from one minute to the next, for
a fixed loop as much as for the library.  So a fixed reference loop is timed
throughout the passes, before an operation whenever REF_EVERY seconds have
passed since the last sample, and every gated time is given in seconds at
the reference speed: the measured time times the run's host factor,
REF_SECONDS over the mean reference time.  The raw times are kept in the
results.

``--trace 1`` records a span around every call to the layers' public
functions (see tracing.py) and reports per-layer self times and counts per
pass, the tracing overhead, and the ROADMAP baseline rows.

Every operation's answer is checked (see workloads.py).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (wrong
answer, exception, or unexpected exit code) and ``metrics``.  A run is
correct when no answer is wrong, no report text changes between passes, and
every failure is one of ``workloads.KNOWN_FAILURES``.  Lines before it are a
readable report; the full result, with the SHA-256 of the inputs and of the
report texts and the ``src/`` line count, goes to
``bench/results/<workload>-seed<N>-trace<T>.json`` and, for traced runs,
the spans to ``bench/results/<workload>.spans.jsonl.gz``.  Compare two sets
of result files with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_REPS = 15
REF_LOOPS = 50_000
REF_SECONDS = 0.0125  # the reference loop's nominal CPU time
REF_EVERY = 0.2  # seconds between two reference samples
END_TO_END = ("setup_s", "wall_s", "op_median_s", "op_p90_s", "peak_rss_mb")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# a fresh interpreter that imports the package and builds a workload's inputs
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import detsize, workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))"
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "detsize" / "__init__.py").is_file():
        _fail(f"no detsize package under {SRC}; run inside a detsize checkout")
    for name in ("oracles.py", "conftest.py"):
        if not (ROOT / "tests" / name).is_file():
            _fail(f"tests/{name} is missing; the benchmark needs its corpus and oracles")
    sys.path.insert(0, str(SRC))
    import detsize

    if Path(detsize.__file__).resolve().parent != (SRC / "detsize").resolve():
        _fail(f"imported detsize from {detsize.__file__}, not from {SRC}")


def _reference() -> float:
    """CPU seconds of a fixed loop of integer and set operations, the kind of
    work the library does; it measures how fast the host runs right now."""
    start = time.process_time()
    seen = set()
    x = 1
    for _ in range(REF_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen.add(x & 0xFFFF)
    return time.process_time() - start


@dataclass
class Record:
    op: object
    latency: float  # CPU seconds
    wall: float
    status: str  # "ok", "wrong" or "failed"
    detail: str = ""
    rss_kb: int = 0
    span: int = -1  # the operation's span in a traced pass


def _spawn(cmd: list[str], workdir: Path):
    """Run a child to completion; (exit code, stdout, stderr, CPU seconds,
    wall seconds, peak RSS in KiB), the CPU time and peak RSS of this child
    alone, from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
        usage.ru_utime + usage.ru_stime,
        wall,
        usage.ru_maxrss,
    )


class Runner:
    """Executes and checks operations.  ``mode`` picks how CLI operations
    run: plain ``python -m detsize``, or through cli_child.py with spans or
    allocation peaks recorded."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.mode = "plain"
        self.tracer = None  # a tracing.Tracer in mode "spans"
        self.meter = None  # a tracing.PeakMeter in mode "peaks"
        self.reports: dict[str, str] = {}  # each report op's first text
        self.refs: list[float] = []  # reference samples taken in the passes

    def cli(self, argv: list[str]):
        dump = self.workdir / "child.json"
        if self.mode == "plain":
            cmd = [sys.executable, "-m", "detsize", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), self.mode, str(dump), *argv]
        result = _spawn(cmd, self.workdir)
        if self.mode != "plain":
            data = json.loads(dump.read_text(encoding="utf-8"))
            if self.mode == "spans":
                self.tracer.graft(data, self.tracer.current)
            else:
                for key, value in data.items():
                    self.meter.peaks[key] = max(self.meter.peaks[key], value)
        return result

    def execute(self, op) -> Record:
        if op.argv is not None:
            rc, out, err, cpu, wall, rss = self.cli(op.argv)
            if rc == op.expect_rc:
                detail = op.check((rc, out, err))
                status = "wrong" if detail else "ok"
            elif {rc, op.expect_rc} <= {0, 1}:
                status, detail = "wrong", f"exit {rc}, expected {op.expect_rc}: {out.strip()[:80]}"
            else:
                status, detail = "failed", f"exit {rc}: {err.strip()[:120]}"
            return Record(op, cpu, wall, status, detail or "", rss)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, the run goes on
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            return Record(op, cpu, wall, "failed", f"{type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        detail = op.check(result)
        if detail is None and op.kind == "forecast" and self.reports.setdefault(op.name, result) != result:
            detail = "report text differs from the first pass"
        return Record(op, cpu, wall, "wrong" if detail else "ok", detail or "")

    def _sample(self) -> float:
        """Takes a reference sample; returns the wall time it took."""
        start = time.perf_counter()
        self.refs.append(_reference())
        return time.perf_counter() - start

    def run_pass(self, ops) -> tuple[list[Record], float]:
        """The records of one pass over ``ops`` and its wall time, without
        the reference samples."""
        gc.collect()
        records = []
        start = last = time.perf_counter()
        ref_wall = self._sample()
        for op in ops:
            if time.perf_counter() - last >= REF_EVERY:
                ref_wall += self._sample()
                last = time.perf_counter()
            if self.mode == "spans":
                with self.tracer.span(f"op.{op.kind}") as idx:
                    records.append(self.execute(op))
                records[-1].span = idx
            else:
                records.append(self.execute(op))
        return records, time.perf_counter() - start - ref_wall

    def host_factor(self) -> float:
        """REF_SECONDS over the mean reference time of the passes so far."""
        return REF_SECONDS * len(self.refs) / sum(self.refs)

    def run_passes(self, ops, seconds: float, between=None) -> tuple[list[Record], list[float]]:
        """Whole passes until the next would end after ``seconds``; ``between()``
        runs before each pass and counts towards the time."""
        records: list[Record] = []
        walls: list[float] = []
        start = time.perf_counter()
        while True:
            if between is not None:
                between()
            if self.mode == "spans":
                with self.tracer.span("pass"):
                    recs, wall = self.run_pass(ops)
            else:
                recs, wall = self.run_pass(ops)
            records += recs
            walls.append(wall)
            if time.perf_counter() - start + wall > seconds:
                return records, walls


class _SetupProbe:
    """CPU time of SETUP_REPS fresh interpreters that import the package and
    build the workload's inputs.  They are taken a few at a time between the
    passes, so that the host factor of the passes applies to them too."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)]
        self.workdir = workdir
        self.times: list[float] = []
        self._once()  # the first start-up warms the bytecode and file caches

    def _once(self) -> float:
        rc, _out, err, cpu, _wall, _rss = _spawn(self.cmd, self.workdir)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {err.strip()[-400:]}")
        return cpu

    def take(self, count: int = SETUP_REPS) -> None:
        for _ in range(min(count, SETUP_REPS - len(self.times))):
            self.times.append(self._once())


def _prepare(workload: str, seed: int, workdir: Path):
    if workload == "blowup":

        def minimize(src: Path, dst: Path) -> None:
            rc, _out, err, *_ = _spawn([sys.executable, "-m", "detsize", "minimize", str(src), "--out", str(dst)], workdir)
            if rc != 0:
                raise RuntimeError(f"set-up: detsize minimize exited {rc}: {err.strip()}")

        return workloads.blowup(seed, workdir, minimize)
    return getattr(workloads, workload)(seed)


def _p90(values: list[float]) -> float:
    # "inclusive" interpolates between the values; with a handful of
    # operations the default method would extrapolate past the largest one
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10, method="inclusive")[8]


def _summary(records: list[Record], walls: list[float], factor: float) -> dict:
    """Each operation's latency is its mean CPU time over the passes, and
    ``wall_s`` the mean wall-clock time of a pass, both times the host
    ``factor``.  On a shared host the mean, scaled by the factor, spread
    less from run to run than the best or the median of the passes did.
    ``op_median_s`` and ``op_p90_s`` are taken over the operations.
    ``ops_per_s`` is the operations completed per second of the passes' raw
    wall-clock time; it is printed but not gated, because a pass always
    holds the same operations.  ``raw`` has the figures without the
    factor."""
    per_op: dict[str, list[float]] = {}
    kind: dict[str, str] = {}
    for r in records:
        per_op.setdefault(r.op.name, []).append(r.latency)
        kind[r.op.name] = r.op.kind
    raw = [statistics.fmean(v) for v in per_op.values()]
    lat = [t * factor for t in raw]
    by_op = dict(zip(per_op, lat))
    by_kind: dict[str, list[float]] = {}
    for name, t in by_op.items():
        by_kind.setdefault(kind[name], []).append(t)
    failed = [r for r in records if r.status != "ok"]
    unexpected = [
        r for r in failed
        if r.status == "wrong" or not r.detail.startswith(workloads.KNOWN_FAILURES.get(r.op.name, "\0"))
    ]
    return {
        "passes": len(walls),
        "pass_wall_s": walls,
        "host_factor": factor,
        "wall_s": statistics.fmean(walls) * factor,
        "ops_per_s": len(records) / sum(walls),
        "op_median_s": statistics.median(lat),
        "op_p90_s": _p90(lat),
        "raw": {
            "wall_s": statistics.fmean(walls),
            "op_median_s": statistics.median(raw),
            "op_p90_s": _p90(raw),
        },
        "latency_by_kind": {
            f"{k}_s": {"median": statistics.median(v), "ops": len(v), "samples": len(v) * len(walls)}
            for k, v in sorted(by_kind.items())
        },
        "attempted": len(records),
        "failed": len(failed),
        "wrong": sum(r.status == "wrong" for r in records),
        "fail_ratio": len(failed) / len(records),
        "unexpected_failures": len(unexpected),
        "failures": sorted({f"{r.op.name}: {r.detail}" for r in failed}),
    }


def _baseline_rows(workload: str, workdir: Path) -> list[dict]:
    """The ROADMAP baseline table, one untraced timing per row, each answer
    checked against its closed form or the oracles."""
    import detsize

    rows = []

    def timed(name, fn, check):
        start = time.process_time()
        result = fn()
        rows.append({"row": name, "seconds": time.process_time() - start, "ok": check(result)})
        return result

    if workload == "blowup":
        for n in (14, 16, 17, 18):
            a = detsize.gen_moore(n)
            timed(f"subset_construct moore{n}", lambda: detsize.subset_construct(a), lambda s, n=n: s.n == 2**n)
        for n in (12, 14):
            s = detsize.subset_construct(detsize.gen_moore(n))
            d = timed(f"subset_to_dfa moore{n}", lambda: detsize.subset_to_dfa(s), lambda d, n=n: d.n == 2**n)
            timed(f"minimize moore{n}", lambda: detsize.minimize(d), lambda m, n=n: m.n == 2**n)
        path = workdir / "moore14-plain.fsa"
        path.write_text(detsize.serialize_fsa(detsize.gen_moore(14)), encoding="utf-8")
        rc, out, _err, cpu, _wall, _rss = _spawn([sys.executable, "-m", "detsize", "state-complexity", str(path)], workdir)
        rows.append({"row": "cli state-complexity moore14", "seconds": cpu, "ok": rc == 0 and out == f"{2**14}\n"})
    elif workload == "forecast":
        oracles = workloads.load_test_module("oracles")
        caps = workloads.FORECAST_CAPS
        a = detsize.gen_random(detsize.RandomNfaSpec(n=18, alphabet_size=3, density=0.15, seed=1))
        want = workloads.expected_report(a, caps, workloads.expected_answers(a, oracles).subsets, oracles)
        timed(
            "full_report random n18 s3 d0.15 seed1 cap10k",
            lambda: detsize.full_report(a, **caps),
            lambda r: workloads.check_report(detsize.bounds.report_to_json(r), want) is None,
        )
    return rows


def _traced(workload, seed, seconds, workdir, runner: Runner, names):
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    with tracer.span("setup"):
        wl = _prepare(workload, seed, workdir)
    tracer.uninstall()

    # allocation peaks first: the pass also warms the caches for the timed passes
    started = time.perf_counter()
    runner.mode = "peaks"
    meter = runner.meter = tracing.PeakMeter()
    meter.install()
    try:
        runner.run_pass(wl.ops)
    finally:
        meter.uninstall()

    runner.mode = "plain"
    recs, wall = runner.run_pass(wl.ops)
    untraced = _summary(recs, [wall], runner.host_factor())

    runner.mode = "spans"
    tracer.install()
    try:
        records, walls = runner.run_passes(wl.ops, seconds - (time.perf_counter() - started))
    finally:
        tracer.uninstall()
        runner.mode = "plain"

    # per pass: self time of each layer function, counts, and the time a CLI
    # operation spends outside cli.main (interpreter start, imports, exit)
    times, counts = tracer.layer_totals("pass")
    passes = len(walls)
    op_wall = {r.span: r.wall for r in records}
    overhead = sum(op_wall[op] - d for op, d in tracer.durations("cli.main", "pass"))
    metrics = {}
    for name in names:
        if name in tracing.PEAK_TARGETS.values():
            metrics[name] = meter.peaks[name] / 2**20
        elif name == "cli.process_overhead_s":
            metrics[name] = overhead / passes
        elif name.endswith("_s"):
            metrics[name] = times.get(name[:-2], 0.0) / passes
        else:
            metrics[name] = counts.get(name, 0) / passes

    summary = _summary(records, walls, runner.host_factor())
    summary["tracing_overhead_s"] = summary["wall_s"] - untraced["wall_s"]
    det = [r for r in records if r.op.kind == "determinize"]
    if det:
        below, _ = tracer.layer_totals("op.determinize")
        layer = sum(t for name, t in below.items() if name.startswith("determinize."))
        summary["determinize_layer_share"] = layer / sum(r.wall for r in det)
    summary["baseline_rows"] = _baseline_rows(workload, workdir)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{workload}.spans.jsonl.gz")
    return wl, summary, metrics


def _untraced(workload, seed, seconds, workdir, runner: Runner):
    probe = _SetupProbe(workload, seed, workdir)
    wl = _prepare(workload, seed, workdir)
    records, walls = runner.run_passes(wl.ops, seconds, between=lambda: probe.take(3))
    probe.take()
    factor = runner.host_factor()
    summary = _summary(records, walls, factor)
    summary["setup_samples"] = len(probe.times)
    summary["raw"]["setup_s"] = statistics.median(probe.times)
    if workload == "blowup":
        peak_kb = max(r.rss_kb for r in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": statistics.median(probe.times) * factor, "peak_rss_mb": peak_kb / 1024}
    metrics.update((name, summary[name]) for name in ("wall_s", "op_median_s", "op_p90_s"))
    return wl, summary, metrics


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _report(wl, summary: dict, metrics: dict, units: dict) -> None:
    print(f"detsize benchmark  workload={wl.name} seed={wl.seed}  inputs_sha256={wl.inputs_sha256}")
    print(f"src_lines={_src_lines()}  passes={summary['passes']}  ops={summary['attempted']}  "
          f"failed={summary['failed']} (wrong={summary['wrong']}, unexpected={summary['unexpected_failures']})  "
          f"fail_ratio={summary['fail_ratio']:.6f}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    for name, stat in summary["latency_by_kind"].items():
        print(f"  {name:36s} {stat['median']:14.6f} s   ({stat['ops']} ops, {stat['samples']} samples)")
    print(f"  {'ops_per_s':36s} {summary['ops_per_s']:14.6f} 1/s")
    for key in ("tracing_overhead_s", "determinize_layer_share"):
        if key in summary:
            print(f"  {key:36s} {summary[key]:14.6f}")
    for row in summary.get("baseline_rows", ()):
        print(f"  baseline {row['row']:45s} {row['seconds']:.4f} s{'' if row['ok'] else '  WRONG ANSWER'}")
    for failure in summary["failures"][:10]:
        print(f"  failed: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    _import_package()

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}
    known = tracing.layer_metric_names() if args.trace else END_TO_END
    if set(units) - set(known):
        _fail(f"BENCHMARK.json names metrics this benchmark does not measure: {sorted(set(units) - set(known))}")
    # one CPU for this process and its children, so that the reference loop
    # times the CPU the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(workdir)
        if args.trace:
            wl, summary, metrics = _traced(args.workload, args.seed, args.seconds, workdir, runner, units)
        else:
            wl, summary, metrics = _untraced(args.workload, args.seed, args.seconds, workdir, runner)
            metrics = {name: metrics[name] for name in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256()
    for name, text in sorted(runner.reports.items()):
        digest.update(f"{name}\n{text}\n".encode())
    reports_sha256 = digest.hexdigest() if runner.reports else None
    _report(wl, summary, metrics, units)
    if reports_sha256:
        print(f"reports_sha256={reports_sha256}")
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_sha256": wl.inputs_sha256,
        "reports_sha256": reports_sha256,
        "src_lines": _src_lines(),
        "summary": summary,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": summary["unexpected_failures"] == 0 and all(row["ok"] for row in summary.get("baseline_rows", ())),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
