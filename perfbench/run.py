"""qviterbi benchmark: closed-loop requests through ``qviterbi.cli.main``.

One client sends one request at a time, in process, and sends the next only
when the previous returned. A request is one ``decode`` or ``oracle`` CLI
invocation on generated inputs; its report is captured from stdout and
checked against the benchmark's own numpy oracle after the measured phase.

    python3 perfbench/run.py --workload decode_small --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run measures half its time untraced and half traced and the
last line carries the per-layer metrics. Earlier lines print every metric,
including the ones that exist only on some workloads, and the full record is
written to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_report, rescore  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Request, make_inputs  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
P90_MIN_REQUESTS = 100  # at least ten samples beyond the 90th percentile
PROBE_EVERY_S = 0.5
PROBE_REF_S = 1.0e-3  # HostProbe time on a 2-vCPU Intel Xeon VM in its fast periods

LAYER_SPANS = (
    "codes.load_code",
    "hamiltonians.build_mixer_hamiltonian",
    "statevector.prepare_uniform_codespace",
    "statevector.apply_mixer_unitary",
    "statevector.apply_cost_unitary",
    "statevector.measure_counts",
    "engine.train",
    "engine.run_pqc",
    "engine.expectation",
    "engine.minimize",
    "trellis.build_trellis",
    "trellis.viterbi_decode",
    "trellis.ml_brute_force",
    "cli.main",
)
_PASS_SLOTS = {
    "statevector.prepare_uniform_codespace": 0,
    "statevector.apply_mixer_unitary": 1,
    "statevector.apply_cost_unitary": 2,
    "engine.run_pqc": 3,
}


def import_program():
    """Import qviterbi from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(ROOT, "src", "qviterbi", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: {package} not found; run from a qviterbi checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qviterbi
    import qviterbi.cli
    import qviterbi.engine

    if os.path.abspath(qviterbi.__file__) != package:
        sys.exit(f"perfbench: imported qviterbi from {qviterbi.__file__}, not from {package}")
    return qviterbi


@dataclass
class Record:
    request: Request
    rc: object  # main()'s return value, or the SystemExit code
    error: str | None
    stdout: str
    start: float  # perf_counter
    seconds: float


class HostProbe:
    """A fixed numpy gather/scatter kernel of the benchmark's own, timed now and then.

    The host's CPU speed can swing by up to 2x over tens of seconds while
    this process runs, with thread time tracking wall time, so the process
    is not descheduled; the host itself is slower. The probe's time relative
    to PROBE_REF_S is the host factor at that moment, and the gated timings
    rescale each request to a host on which the probe takes PROBE_REF_S.
    The kernel has the shape of the mixer's basis-pair rotation; the program
    under test never runs it.
    """

    def __init__(self):
        self.state = np.ones(1 << 14, dtype=np.complex128)
        self.index = np.arange(1 << 14)
        self.times: list[float] = []  # perf_counter at each probe's start
        self.factors: list[float] = []

    def __call__(self) -> float:
        """Run the kernel once; return the time it took."""
        start = time.perf_counter()
        for _ in range(10):
            lo = self.index[(self.index & 64) == 0]
            hi = lo ^ 64
            saved = self.state[lo].copy()
            self.state[lo] = self.state[hi]
            self.state[hi] = saved
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.factors.append(elapsed / PROBE_REF_S)
        return elapsed

    def factor_over(self, start: float, end: float) -> float:
        """Mean factor of the last probe before ``start`` and the first after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [self.factors[i] for i in (before, after) if 0 <= i < len(self.factors)]
        return statistics.fmean(around)


@dataclass
class Phase:
    records: list[Record]
    wall: float  # request time only; probe time is excluded
    probe: HostProbe

    def normed_seconds(self) -> list[float]:
        """Each request's latency rescaled to the reference host."""
        return [rec.seconds / self.probe.factor_over(rec.start, rec.start + rec.seconds)
                for rec in self.records]

    @property
    def requests_per_s_wall(self) -> float:
        return len(self.records) / self.wall

    @property
    def requests_per_s(self) -> float:
        """Host-normalised throughput."""
        return len(self.records) / sum(self.normed_seconds())


def settle_allocator() -> None:
    """Put the C allocator in the steady state of a long-running process.

    glibc serves large blocks with mmap, and fresh pages fault on first
    touch, until freeing an mmapped block raises its dynamic mmap threshold
    to that block's size. Until a large enough block has been freed, every
    2^15-amplitude state array costs fresh page faults, and a Hamming
    [15,11,3] decode takes twice as long as it does later. How soon that
    changes depends on which codes ran first. One large block, allocated and
    freed before the measured phase, raises the threshold once for all.
    """
    block = np.empty(1 << 20, dtype=np.complex128)  # 16 MiB
    del block


def run_phase(call, requests, cycle: int, seconds: float, tracer=None) -> Phase:
    """Closed loop with one client over whole cycles of ``cycle`` requests.

    The phase ends at the first cycle boundary after ``seconds`` of request
    time, so every run sends the same mix of request shapes. Between
    requests, at most every PROBE_EVERY_S, and once at the end, the host
    probe runs; its time is left out of ``seconds`` and of the wall time.
    """
    records = []
    probe = HostProbe()
    probe_time = 0.0
    begin = end = time.perf_counter()
    last_probe = begin - PROBE_EVERY_S
    for req in itertools.cycle(requests):
        if end - begin - probe_time >= seconds and len(records) % cycle == 0:
            break
        if end - last_probe >= PROBE_EVERY_S:
            probe_time += probe()
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.request_id = len(records)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc, error = call(list(req.argv)), None
        except SystemExit as exc:
            rc, error = exc.code, "SystemExit"
        except Exception as exc:  # a raising request is a failed request, not a crash
            rc, error = None, repr(exc)
        end = time.perf_counter()
        records.append(Record(req, rc, error, out.getvalue(), start, end - start))
    probe()
    return Phase(records, end - begin - probe_time, probe)


def evaluate(records: list[Record], codes) -> tuple[int, list[tuple[Record, dict]], list[str]]:
    """Check every report; return the failure count, the passing decode reports and problems."""
    failed, decodes, problems = 0, [], []
    for rec in records:
        req = rec.request
        fault = None
        if rec.rc != 0 or rec.error is not None:
            fault = f"exit {rec.rc!r} {rec.error or ''}"
        else:
            try:
                report = json.loads(rec.stdout)
                found = check_report(req, codes[req.template.code], report)
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable report: {exc!r}"]
            if found:
                fault = "; ".join(found)
            elif req.template.command == "decode":
                decodes.append((rec, report))
        if fault:
            failed += 1
            if len(problems) < 10:
                problems.append(f"request {req.index} ({' '.join(req.argv)}): {fault}")
    return failed, decodes, problems


def measure_setup(sources: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters to the first request being ready, ``repeats`` times.

    Returns the raw times, and the times rescaled by the host factor of
    the probes just before and just after each child.
    """
    child = os.path.join(HERE, "setup_probe.py")
    probe = HostProbe()
    raw, normed = [], []
    for _ in range(repeats):
        probe()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, child, *sources], capture_output=True, text=True,
                              timeout=120, check=True)
        raw.append(float(done.stdout.split()[-1]) - start)
        probe()
        normed.append(raw[-1] / statistics.fmean(probe.factors[-2:]))
    return raw, normed


def environment(qviterbi_threads: str | None) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "QVITERBI_THREADS": qviterbi_threads,
        "QVITERBI_THREADS_in_effect": 1,
        "loadavg_at_start": os.getloadavg(),
    }


def end_to_end(phase: Phase, failed, decodes, setup, rss_mb, qv, codes) -> tuple[dict, dict]:
    """Gated metrics, and the ones that are only printed and recorded.

    The gated timings are host-normalised (see HostProbe); their wall-clock
    values are printed and recorded as ``*_wall``.
    """
    records = phase.records
    lat_ms = [rec.seconds * 1e3 for rec in records]
    normed = phase.normed_seconds()
    setup_raw, setup_normed = setup
    metrics = {
        "setup_s": (statistics.median(setup_normed), "s"),
        "requests_per_s": (phase.requests_per_s, "1/s"),
        "request_ms_p50": (statistics.median(normed) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # Not gated; see README.md.
    extra = {
        "setup_s_wall": (statistics.median(setup_raw), "s"),
        "requests_per_s_wall": (phase.requests_per_s_wall, "1/s"),
        "request_ms_p50_wall": (statistics.median(lat_ms), "ms"),
        "host_factor": (sum(lat_ms) / 1e3 / sum(normed), "ratio"),
        "error_rate": (failed / len(records), "ratio"),
        "requests": (len(records), "count"),
    }
    if len(records) >= P90_MIN_REQUESTS:
        extra["request_ms_p90_wall"] = (statistics.quantiles(lat_ms, n=10)[-1], "ms")
    if decodes:
        code_objs = {name: qv.load_code(info.source) for name, info in codes.items()}
        masses, ratios = [], []
        for rec, report in decodes:
            name = rec.request.template.code
            mass, ratio = rescore(qv, code_objs[name], codes[name], rec.request, report)
            masses.append(mass)
            if ratio is not None:
                ratios.append(ratio)
        extra["oracle_agree_rate"] = (sum(r["oracle_agrees"] for _, r in decodes) / len(decodes), "ratio")
        extra["ml_mass_mean"] = (statistics.fmean(masses), "probability")
        if ratios:
            extra["exact_ratio_mean"] = (statistics.fmean(ratios), "ratio")
    return metrics, extra


def per_layer(spans, traced: Phase, untraced: Phase, decodes, codes) -> dict:
    records = traced.records
    st = self_times(spans)
    metrics = {}
    for name in LAYER_SPANS:
        calls, self_s, _ = st.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    mixer = st.get("statevector.apply_mixer_unitary", (0, 0.0, 0.0))
    cost = st.get("statevector.apply_cost_unitary", (0, 0.0, 0.0))
    metrics["engine.run_pqc.us_per_layer"] = ((mixer[2] + cost[2]) / mixer[0] * 1e6 if mixer[0] else 0.0, "us")

    # Computed, not measured: each gate, mixer term or cost phase reads and
    # writes every complex128 amplitude once (32 bytes per amplitude).
    counts: dict[int, list[int]] = {}
    for name, _, _, _, rid in spans:
        slot = _PASS_SLOTS.get(name)
        if slot is not None:
            counts.setdefault(rid, [0, 0, 0, 0])[slot] += 1
    total_bytes, evals = 0, 0
    for rid, (preps, mixers, cost_phases, runs) in counts.items():
        info = codes[records[rid].request.template.code]
        passes = preps * info.prep_gates + mixers * info.min_weight_count + cost_phases
        total_bytes += 32 * (1 << info.n) * passes
        evals += runs
    metrics["statevector.bytes_per_eval_computed"] = (total_bytes / evals if evals else 0.0, "bytes")

    n_decodes = sum(rec.request.template.command == "decode" for rec in records)
    expectation_calls = st.get("engine.expectation", (0,))[0]
    metrics["engine.nfev_per_decode"] = (expectation_calls / n_decodes if n_decodes else 0.0, "count")
    draws = [s["converged"] for _, r in decodes for s in r["result"]["samples"]]
    metrics["engine.nonconverged_draw_rate"] = (draws.count(False) / len(draws) if draws else 0.0, "ratio")
    # Wall clock: the halves run back to back, and the host factor's own
    # error is larger than the few percent that tracing costs.
    metrics["trace.overhead_frac"] = (1.0 - traced.requests_per_s_wall / untraced.requests_per_s_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qviterbi_threads = os.environ.pop("QVITERBI_THREADS", None)  # 1 thread, the library default
    qv = import_program()
    env = environment(qviterbi_threads)
    inputs = make_inputs(args.workload, args.seed, os.path.join(OUT, "codes"))
    sources = [info.source for info in inputs.codes.values()]
    cycle = len(WORKLOADS[args.workload])
    settle_allocator()
    main_fn = qv.cli.main

    if args.trace:
        half = args.seconds / 2
        plain = run_phase(main_fn, inputs.requests, cycle, half)
        tracer = Tracer()
        with tracer.installed(qv.engine, qv.cli):
            phase = run_phase(tracer.wrap(main_fn, "cli.main"), inputs.requests, cycle, half, tracer)
        failed_plain, _, problems = evaluate(plain.records, inputs.codes)
        failed, decodes, traced_problems = evaluate(phase.records, inputs.codes)
        failed += failed_plain
        problems += traced_problems
        metrics = per_layer(tracer.spans, phase, plain, decodes, inputs.codes)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.jsonl.gz"))
        attempted = len(plain.records) + len(phase.records)
        extra = {
            "untraced.requests_per_s": (plain.requests_per_s, "1/s"),
            "untraced.requests_per_s_wall": (plain.requests_per_s_wall, "1/s"),
            "traced.requests_per_s": (phase.requests_per_s, "1/s"),
            "traced.requests_per_s_wall": (phase.requests_per_s_wall, "1/s"),
        }
    else:
        # Set-up samples before and after the measured phase, so that their
        # median does not rest on one moment of the host's speed.
        setup = measure_setup(sources, SETUP_REPEATS // 2)
        phase = run_phase(main_fn, inputs.requests, cycle, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = tuple(a + b for a, b in zip(setup, measure_setup(sources, SETUP_REPEATS - SETUP_REPEATS // 2)))
        failed, decodes, problems = evaluate(phase.records, inputs.codes)
        metrics, extra = end_to_end(phase, failed, decodes, setup, rss_mb, qv, inputs.codes)
        attempted = len(phase.records)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "input_hash": inputs.input_hash, "environment": env, "problems": problems,
        "requests": [[rec.request.index, rec.request.template.code, rec.start - phase.probe.times[0],
                      rec.seconds * 1e3] for rec in phase.records],
        "host_probes": [[t - phase.probe.times[0], f] for t, f in zip(phase.probe.times, phase.probe.factors)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    for problem in problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:15s} {name:45s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
